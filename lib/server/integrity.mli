(** Content digest of a served index.

    The integrity subsystem needs a cheap, content-canonical summary of
    "what this server is serving" that two cluster members can compare
    without shipping state: a primary and a replica hold physically
    different index graphs (different index-node ids, different label
    pool layouts are possible after independent builds), so every
    digest here is a function of {e logical} content only:

    - {b data-range digests}: the data-node id space is cut into fixed
      ranges of [1 lsl range_shift] ids; each range digests, per node,
      its label {e name} hash and the set of its children (combined
      order-independently, so the digest does not depend on the order
      the edges arrived in).
    - {b index-range digests}: the same ranges, digesting per data node
      the canonical representative of its class (the smallest data node
      id in the extent, {!Index_graph.extent_min}) and the class's
      local similarity [k] — the partition signature, by range.
    - {b per-label index-edge buckets}: for every live index edge
      [A -> B], a hash of both endpoints' (label-name hash, canonical
      representative, k) is XOR-folded into the bucket of [A]'s label;
      buckets are combined order-independently into one
      [label_edges] scalar, so pool code layout does not matter.

    All of it rolls into a single [root], range digests in order.
    Digests are 48-bit (they travel as [u48] on the wire).

    There is one path: {!compute_full}, from scratch, 8.7 ms at XMark
    scale 2000 (147,461 data nodes, 37 ranges) and 1.7 ms at scale 400
    on a 2-vCPU host.  Per-range caching does not pay: one D(k) edge
    update lowers the similarity of whole index nodes whose extents
    span most ranges, so refreshing only the dirtied ranges after 8
    writes cost as much as a full pass.  dkserve computes it at most
    once per write generation and answers from the memo until the
    next write.  Only [n_nodes] and [root] travel
    ({!Wire.Digest_reply}); a replica whose root disagrees with its
    primary's heals by a snapshot resync. *)

open Dkindex_core

val range_shift : int
(** log2 of the number of data-node ids per range. *)

type digests = {
  n_nodes : int;  (** data nodes the digests were computed over *)
  root : int;  (** every layer, folded *)
}

val compute_full : Index_graph.t -> digests
(** Reads [idx] only; no mutation may be in progress on it. *)
