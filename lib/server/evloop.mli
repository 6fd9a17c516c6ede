(** Readiness event loop for dkserve.

    A thin level-triggered abstraction over [poll(2)], upgraded to
    [epoll(7)] on Linux (chosen at {!create} time, with a clean
    fallback where epoll is unavailable).  Replaces the fixed-tick
    [Unix.select] loop: {!wait} parks in the kernel until a registered
    descriptor is ready or the caller's timeout expires, so an idle
    server costs nothing and a busy one wakes exactly when bytes
    arrive.

    Not thread-safe: one loop belongs to one thread.  Other threads
    wake it by writing to a registered self-pipe.  {!wait} releases
    the OCaml runtime lock while it is parked. *)

type t

val rd : int
(** Interest/readiness bit: readable (POLLIN; HUP also surfaces here
    so a closing peer wakes the reader, which then sees EOF). *)

val wr : int
(** Interest/readiness bit: writable. *)

val err : int
(** Readiness bit only: error/invalid descriptor. *)

val create : ?backend:[ `Auto | `Poll | `Epoll ] -> unit -> (t, string) result
(** [`Auto] (default) picks epoll when the OS offers it, else poll.
    [`Epoll] errors where unsupported (tests use it to pin a
    backend). *)

val backend_name : t -> string
(** ["epoll"] or ["poll"]. *)

val add : t -> Unix.file_descr -> int -> unit
(** [add t fd interest] registers [fd] with an {!rd}/{!wr} mask.
    Adding an already-registered fd updates its interest. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister; must happen before the fd is closed.  Unknown fds are
    ignored. *)

val wait : t -> timeout_ms:int -> (Unix.file_descr -> int -> unit) -> int
(** Block until readiness or timeout ([-1] = forever, [0] = poll);
    invoke the callback per ready descriptor with its readiness mask
    and return the ready count (0 on timeout or EINTR).  The callback
    may add/remove descriptors, including the one it was called
    for. *)

val writev :
  Unix.file_descr -> Bytes.t -> int -> int -> string -> int -> int -> int
(** [writev fd head hoff hlen tail toff tlen]: gathered write of a
    bytes slice followed by a string slice, for frame-header + large
    payload sends without concatenation.  Returns bytes written
    (possibly short).
    @raise Unix.Unix_error [EAGAIN]/[EINTR] as [Unix.write] would;
    any other failure surfaces as [EPIPE] (the connection is dead). *)
