(** dkserve wire protocol: length-prefixed binary frames.

    {v
    frame   := u32_be payload_length, payload
    payload := u8 version (= 4), u8 kind, u32_be request id, body
    v}

    The payload length is bounded ({!max_frame_default}, configurable
    server-side); a frame whose declared length exceeds the bound is a
    protocol error and the connection is closed (the stream cannot be
    resynchronized against a hostile peer).  A well-framed payload that
    fails to parse is answered with {!Error_reply} [`Protocol] and the
    connection stays usable.

    Bodies are written in {!Codec}'s big-endian primitives.  The five
    mutation requests (kinds 0x05–0x09) carry exactly the body of the
    {!Wal} record of the same mutation (WAL kinds 0x01–0x05), through
    {!Wal.encode_body} and {!Wal.decode_body}.  A path expression
    ([Query_planned], [Explain]) is a prefix encoding, one tag byte
    per constructor — 0 [Any], 1 [Label] (then a u16-length string),
    2 [Seq], 3 [Alt], 4 [Opt], 5 [Star] — decoded within a budget of
    65,536 nodes and a depth of 4,096.  Kinds 0x02 (an unplanned
    expression query), 0x04 (a batch of label paths), 0x14 and the
    replies 0x83 and 0x93 are retired and decode to [Error].

    All decoders are total on arbitrary bytes: malformed input yields
    [Error _], never an exception, a crash, or unbounded work.  Every
    value round-trips: [decode (encode x) = x]. *)

open Dkindex_pathexpr

val version : int
val max_frame_default : int
(** 16 MiB: the bound on requests, and on the responses a client
    reads. *)

val max_replication_frame : int
(** 1 GiB: the bound on the frames a replica reads from its primary's
    replication stream.  One {!Rep_snapshot} carries a whole checkpoint
    file, which passes 16 MiB at about XMark scale 20,000. *)

(** {1 Messages} *)

type query_flags = { no_cache : bool }
(** [no_cache] asks the server to bypass its cross-query validation
    cache, making the returned [cost] bit-for-bit reproducible. *)

type role = Primary | Replica

type request =
  | Ping
  | Query_path of { flags : query_flags; labels : string list }
      (** A label path, answered through the served index. *)
  | Add_edge of { u : int; v : int }
  | Remove_edge of { u : int; v : int }
  | Add_subgraph of { graph : string; reqs : (string * int) list }
      (** [graph] is a {!Dkindex_graph.Serial} document. *)
  | Promote of (string * int) list
      (** Empty list: promote every node back to its recorded
          requirement (the periodic maintenance pass). *)
  | Demote of (string * int) list
  | Stats
  | Snapshot
  | Shutdown
  | Hello of { version : int; epoch : int }
      (** Version negotiation, sent first on every connection.  The
          header version byte carries [version] itself, so a server
          can decode a Hello from {e any} protocol version and refuse
          a mismatch with [Error_reply `Version] instead of a decode
          failure mid-stream.  [epoch] is the highest primary epoch
          the client has observed (0 when unknown); a primary that
          sees a higher epoch than its own knows it was deposed. *)
  | Rep_subscribe of { replica_id : int; epoch : int; seq : int; offset : int }
      (** Subscribe to the WAL stream from generation [seq] at byte
          [offset].  [seq = -1] requests a snapshot bootstrap.  The
          connection is detached from the request/response loop and
          becomes a one-way replication stream. *)
  | Promote_primary
      (** Operator-triggered failover: the replica bumps its epoch,
          persists it, stops following, and starts serving writes. *)
  | Query_planned of { flags : query_flags; expr : Path_ast.t }
      (** Any path expression, answered through the server's planner:
          the scan of the served index, or the raw-graph walk should
          the scan raise.  The {!Planned_result} reply names the plan
          that answered. *)
  | Explain of { expr : Path_ast.t }
      (** Ask for the plan list the planner would consider for
          this query, without executing anything. *)
  | Has_edge of { u : int; v : int }
      (** Point probe: is the data edge [u -> v] present in the serving
          snapshot?  Idempotent; used by the history harness to resolve
          ambiguous (sent-but-unacknowledged) writes after a failure. *)
  | Digest_request
      (** Ask for the server's current {!Dkindex_server.Integrity}
          root digest and the write-stream position it reflects.
          Served even by a stale replica — anti-entropy needs to see
          divergence precisely when a replica is unhealthy. *)

type query_result = {
  nodes : int array;  (** matching data nodes, sorted *)
  index_visits : int;
  data_visits : int;
  n_candidates : int;
  n_certain : int;
  generation : int;
      (** the write generation this read observed (bumped by every
          applied mutation and snapshot install) — monotone per server
          process (not comparable across servers:
          the on-disk index format carries no generation) *)
  age_ms : int;
      (** staleness of the data answered from: 0 on a primary, and on a
          replica the milliseconds since it last heard from its primary
          (the quantity the [--staleness-bound] refusal is keyed on) *)
}

type error_code = [ `Protocol | `App | `Deadline | `Shutting_down | `Version | `Stale ]
(** [`Version]: protocol version mismatch reported against a Hello.
    [`Stale]: a replica outside its staleness bound refusing reads. *)

type response =
  | Pong
  | Result of query_result
  | Ok_reply of { generation : int; epoch : int }
      (** [generation] is the write generation after the write, as
          {!query_result} reports it.  [epoch] is the acking server's
          primary epoch; a client that has observed a higher epoch
          must treat the ack as coming from a deposed primary and
          reject it. *)
  | Stats_reply of (string * string) list
  | Error_reply of { code : error_code; message : string }
  | Overloaded
  | Read_only
      (** the durability layer can no longer log mutations (WAL
          unwritable); writes are refused, reads keep working *)
  | Hello_reply of { version : int; epoch : int; role : role }
      (** Decodable at any header version (see {!Hello}). *)
  | Rep_records of { epoch : int; seq : int; offset : int; data : string }
      (** A chunk of raw WAL bytes from generation [seq]; [offset] is
          the in-generation byte offset {e after} [data].  Records may
          span chunks; the replica reassembles with {!Wal.replay_string}
          semantics. *)
  | Rep_snapshot of { epoch : int; seq : int; checkpoint : string }
      (** Snapshot bootstrap: the bytes of a checkpoint file, its CRC
          header line and the index body, compact since version 4
          (see {!Checkpoint.body}); the stream continues from
          generation [seq], offset 0. *)
  | Rep_heartbeat of { epoch : int; seq : int; offset : int }
      (** Primary liveness + current WAL position (lag measurement,
          failover-timeout reset). *)
  | Not_primary of { host : string; port : int }
      (** Write refused by a replica; [host:port] is its current
          upstream primary (a routing hint, not a guarantee). *)
  | Fenced of { epoch : int }
      (** Write refused by a deposed primary: a peer presented epoch
          [epoch] > ours, so a newer primary exists. *)
  | Planned_result of { plan : string; result : query_result }
      (** Answer to {!Query_planned}; [plan] is the one-line
          description of the plan that produced the result. *)
  | Explain_reply of string list
      (** Answer to {!Explain}: header line plus one line per
          plan, chosen plan marked. *)
  | Edge_reply of { present : bool; generation : int; age_ms : int }
      (** Answer to {!Has_edge}, stamped like {!query_result}:
          [generation] is the write generation and
          [age_ms] the replica age (0 on a primary) — what the
          acknowledged-history checker's monotonicity and staleness
          checks run on. *)
  | Digest_reply of {
      generation : int;  (** write generation *)
      seq : int;
          (** WAL position (generation) the digest reflects, [-1] when
              the server cannot stamp one; two digests are comparable
              only at equal positions *)
      offset : int;  (** WAL byte offset within [seq] *)
      n_nodes : int;
      root : int;  (** {!Integrity.digests} root: data and index layers folded *)
    }
      (** Answer to {!Digest_request}: exactly what anti-entropy
          compares.  A replica that disagrees on [n_nodes] or [root] at
          an equal position heals by a snapshot resync, so no per-range
          detail travels. *)

val mutation : request -> Wal.mutation option
(** The mutation a write request carries: [Some] for the five kinds
    the WAL logs ([Add_edge], [Remove_edge], [Add_subgraph], [Promote],
    [Demote]), whose request body is the WAL record's body
    ({!Wal.encode_body}). *)

(** {1 Codecs} *)

val encode_request : Obuf.t -> id:int -> request -> unit
(** Append a full frame (length prefix included).  The length slot is
    patched in place, so frames already in the buffer are untouched
    and several frames can be batched and flushed with one write. *)

val encode_response : Obuf.t -> id:int -> response -> unit

type 'a decoded = { id : int; msg : 'a }

val decode_request : string -> (request decoded, string) result
(** Decode one frame {e payload} (the length prefix already consumed). *)

val decode_request_at : string -> pos:int -> len:int -> (request decoded, string) result
(** Decode a payload in place from the slice [pos, pos + len) of a
    larger buffer (a connection's read buffer), copying nothing but
    the retained strings.  [decode_request p] is
    [decode_request_at p ~pos:0 ~len:(String.length p)]. *)

val decode_response : string -> (response decoded, string) result
val decode_response_at : string -> pos:int -> len:int -> (response decoded, string) result

(** {1 Framing} *)

val read_frame :
  ?max_frame:int -> read:(bytes -> int -> int -> int) -> unit ->
  [ `Frame of string | `Eof | `Oversized of int ]
(** Blocking frame reader over a [read] function with [Unix.read]
    semantics.  [`Oversized n] reports a declared length beyond
    [max_frame] without consuming the body.
    @raise Failure on a stream that ends mid-frame. *)

val frame_of_payload : string -> string
(** Prepend the length prefix (for tests and hand-rolled clients). *)
