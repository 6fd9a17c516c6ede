(** Network chaos: a seeded in-process TCP proxy for nemesis testing.

    A {!t} listens on its own port and forwards byte streams to one
    upstream endpoint (a dkserve primary or replica), injecting the
    faults described by a {!spec} on the way through:

    - {e latency and jitter}: every delivered chunk is held for
      [delay_ms ± jitter_ms] (jitter drawn from a PRNG seeded at
      {!create}, so a given seed replays the same schedule);
    - {e bandwidth caps}: per direction, chunks are released no faster
      than [bandwidth_bps] bytes per second;
    - {e byte-level truncation}: connection [c] forwards exactly [n]
      bytes (both directions combined), then both sides are closed —
      tearing the stream mid-frame;
    - {e connection resets}: as truncation, but the close is an abort
      (SO_LINGER 0 → RST) and queued bytes are discarded;
    - {e half-open stalls}: after [n] bytes the connection forwards
      nothing more but stays open — the peer sees silence, not EOF;
    - {e timed partitions}: from [at_s] (measured from {!run}) all
      forwarding and accepting stops bidirectionally, healing after
      [heal_s]; bytes in flight are delayed, never lost;
    - {e reset storms}: at [at_s], every live connection is aborted
      at once.

    The proxy is a single-threaded {!Evloop} loop: {!run} blocks, so
    callers host it in a forked child (tests, which SIGKILL it at
    cleanup) or a spawned domain (the load generator).
    {!stop} and {!stats} are safe from other domains. *)

type action =
  | Partition of float  (** stop forwarding + accepting; heal after [s] *)
  | Stall_all of float  (** half-open everything; heal after [s] *)
  | Reset_all  (** abort every live proxied connection *)

type event = { at_s : float; action : action }
(** [at_s] is seconds from the moment {!run} starts. *)

type spec = {
  delay_ms : float;  (** base one-way delay per delivered chunk *)
  jitter_ms : float;  (** uniform ± jitter added to the delay *)
  bandwidth_bps : int;  (** per-direction byte rate; 0 = unlimited *)
  truncate : (int * int) list;
      (** [(conn, bytes)]: the [conn]th accepted connection (1-based)
          forwards exactly [bytes] bytes, then closes *)
  reset : (int * int) list;  (** as [truncate], but RST and drop the queue *)
  stall : (int * int) list;  (** as [truncate], but half-open forever *)
  events : event list;  (** timed global actions, in any order *)
}

val no_faults : spec
(** Pure pass-through (useful as a baseline and for overhead checks). *)

val spec_of_string : string -> (spec, string) result
(** Parse a [--nemesis] spec: comma-separated clauses
    {v
    delay:MS~JITTER_MS        latency (jitter optional: delay:5~3)
    bw:BYTES_PER_SEC          bandwidth cap
    truncate:CONN\@BYTES       close conn CONN after BYTES forwarded
    reset:CONN\@BYTES          abort conn CONN after BYTES forwarded
    stall:CONN\@BYTES          half-open conn CONN after BYTES
    partition:AT+DUR          partition at AT s, heal after DUR s
    stall-all:AT+DUR          global half-open at AT s for DUR s
    reset-all:AT              reset storm at AT s
    v}
    e.g. ["delay:2~1,partition:1.5+2,reset-all:5"].  The empty string
    is {!no_faults}. *)

val spec_to_string : spec -> string
(** Round-trips through {!spec_of_string}. *)

type stats = {
  accepted : int;
  forwarded_bytes : int;
  truncations : int;
  resets : int;
  stalls : int;
  partitions : int;
}

type t

val create :
  ?host:string -> ?port:int -> seed:int -> upstream:string * int -> spec -> t
(** Bind the listening socket (default 127.0.0.1:0 — read the actual
    port with {!port}) but do not serve yet.  Each accepted connection
    dials [upstream] on its own.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val port : t -> int
val run : t -> unit
(** Serve until {!stop}; blocks the calling domain/process. *)

val stop : t -> unit
(** Ask {!run} to wind down (idempotent, domain-safe); it closes every
    proxied connection and the listener before returning. *)

val stats : t -> stats
(** Counters so far (domain-safe). *)
