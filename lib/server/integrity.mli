(** Incremental digest tree over a served index.

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

    All of it rolls into a single [root].  Digests are 48-bit (they
    travel as [u48] on the wire).

    Incrementality: a {!t} caches every layer and recomputes only what
    a mutation could have touched.  Data-edge mutations dirty the
    ranges of their endpoints ({!note_mutation}); structural index
    changes (splits, k/req changes, index-edge flips) are observed via
    {!Index_graph.set_tracer} on the index ({!attach}), and resolved
    to dirty ranges and labels at refresh time.  Wholesale changes
    (subgraph grafts, promote/demote, snapshot installs) invalidate
    everything.  Marks and refreshes come from one thread (dkserve's
    event loop), and a refresh runs between writes, never inside one.
    {!refresh} against an index equals {!compute_full} of it —
    qcheck-proven through update churn.

    Only [n_nodes] and [root] travel ({!Wire.Digest_reply}): the
    ranges and buckets exist so a refresh after a few edge updates
    re-hashes a few ranges, not the whole graph.  A replica whose root
    disagrees with its primary's heals by a snapshot resync. *)

open Dkindex_core

val range_shift : int
(** log2 of the number of data-node ids per range. *)

type digests = {
  n_nodes : int;  (** data nodes the digests were computed over *)
  data_ranges : int array;  (** per range: labels + adjacency *)
  index_ranges : int array;  (** per range: partition signature *)
  label_edges : int;  (** all index edges, bucketed by source label *)
  root : int;  (** everything above, folded *)
}

type t

val create : unit -> t
(** An empty tracker; the first {!refresh} computes from scratch. *)

val attach : t -> Index_graph.t -> unit
(** Install this tracker's structural tracer on an index.  Call for
    the serving index and for every wholesale replacement of it. *)

val note_mutation : t -> Wal.mutation -> unit
(** Record a mutation about to be (or just) applied: edge mutations
    mark their endpoints' ranges, everything else invalidates all
    layers.  Cheap. *)

val invalidate : t -> unit
(** Mark everything dirty: used when a snapshot is installed
    wholesale (replica bootstrap). *)

val refresh : t -> Index_graph.t -> digests
(** Digests of [idx], recomputing only dirty ranges/buckets.  [idx]
    must reflect every mark, and no mutation may be in progress on it
    (the server calls it on the loop, between writes). *)

val compute_full : Index_graph.t -> digests
(** From-scratch digests, no cache: the oracle {!refresh} is tested
    against, and what one-shot tools use. *)
