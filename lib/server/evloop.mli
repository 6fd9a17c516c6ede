(** Readiness event loop for dkserve.

    A thin level-triggered wrapper over [poll(2)]: {!wait} parks in
    the kernel until a registered descriptor is ready or the caller's
    timeout expires, so an idle server costs nothing and a busy one
    wakes exactly when bytes arrive.  poll is the one backend: it is
    portable, and its cost per {!wait} grows with the registered set,
    which for dkserve is its open connections (no dkbench workload
    holds more than two).

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

val create : unit -> t

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
    for; a descriptor removed by an earlier callback of the same
    [wait] is not reported. *)
