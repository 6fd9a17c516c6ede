(** Self-healing blocking dkserve client (used by the load generator,
    the smoke tests and the serving benchmarks).

    One [t] is one logical connection; it is not domain-safe — give
    each concurrent driver its own.  The client owns reconnection:
    when the TCP connection drops (server restart, timeout, refused
    connect) it redials with exponential backoff and full jitter, up
    to [attempts] tries per operation.

    Retry semantics follow idempotence.  Reads (Ping, Query,
    Query_path, Batch_query, Stats) are retried transparently up to
    [retries] times across reconnects.  Writes are {e never} retried
    automatically — a write that dies mid-flight may or may not have
    been applied and acknowledged, so the failure surfaces as a typed
    {!error} and the caller decides (e.g. re-issue an idempotent
    add-edge, or give up). *)

type error =
  | Retryable of string
      (** connection-level: refused, reset, timed out.  Safe to retry
          reads; writes may have been applied — re-issue only if the
          mutation is idempotent. *)
  | Fatal of string
      (** protocol-level: oversized or undecodable response.  Retrying
          will not help. *)

exception Error of error

val error_to_string : error -> string

type t

val connect :
  ?host:string ->
  ?attempts:int ->
  ?retries:int ->
  ?timeout_s:float ->
  ?backoff_base_s:float ->
  ?backoff_max_s:float ->
  ?seed:int ->
  ?epoch:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_s:float ->
  port:int ->
  unit ->
  t
(** Default host 127.0.0.1.  [attempts] (default 1) bounds connect
    tries per operation; [retries] (default 0) bounds transparent
    re-issues of idempotent reads after a connection failure;
    [timeout_s] (default 0 = none) bounds each response wait;
    [backoff_base_s]/[backoff_max_s] (defaults 0.05/2.0) shape the
    exponential backoff, jittered by [seed].  Dials eagerly, and every
    connection (including reconnects) starts with a {!Wire.Hello}
    carrying the highest epoch observed so far (seeded by [epoch],
    default 0) — a version mismatch is a [Fatal] error.
    [breaker_threshold] (default 0 = disabled) arms a circuit breaker:
    after that many {e consecutive} [Retryable] failures of {!call},
    further calls fail fast ([Retryable "circuit breaker open"]) for
    [breaker_cooldown_s] (default 1.0); the first call after the
    cooldown is a half-open probe — success closes the circuit,
    failure reopens it at once.
    @raise Error when the initial connect exhausts [attempts]. *)

val close : t -> unit

val server_epoch : t -> int
(** Epoch the server reported in the last Hello exchange. *)

val call : t -> Wire.request -> Wire.response
(** Send, then receive until the matching id comes back (responses to
    earlier pipelined requests are discarded).  A server answers a
    connection's reads in send order and its writes in send order, but
    a read sent behind a write can be answered before the write is
    acknowledged, so pipelined replies correlate by id.  Heals per
    the policy above.  @raise Error when healing is exhausted (reads)
    or not permitted (writes, protocol errors), or fast when the
    circuit breaker is open. *)

val circuit_open_count : t -> int
(** Times this client's circuit breaker has opened (0 when the breaker
    is disabled or never tripped). *)

val circuit_open : t -> bool
(** Is the breaker currently failing calls fast? *)

(** {1 Pipelining primitives}

    No healing: these operate on the current connection and raise
    [Failure]/[Unix.Unix_error] directly, for tests that need precise
    control of the byte stream. *)

val send : t -> Wire.request -> int
(** Write one request frame; returns the request id (monotonically
    increasing per connection) for matching against {!recv}. *)

val recv : t -> Wire.response Wire.decoded
(** Read one response frame (honoring [timeout_s] if set).
    @raise Failure on EOF, timeout, an oversized frame, or an
    undecodable response. *)

val send_raw_frame : t -> string -> unit
(** Frame an arbitrary payload and write it verbatim — for protocol
    fuzzing; a normal client never needs this. *)
