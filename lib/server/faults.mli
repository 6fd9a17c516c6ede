(** Fault injection for the durability layer's file I/O.

    A [t] is threaded through {!Wal} and {!Checkpoint} writes so the
    recovery tests can make the disk misbehave on demand: a clean
    write failure, a short write that tears a record, an abrupt
    process death mid-write (the closest a test can get to a power
    cut), or a disk that fills up and stays full.

    Production code passes no [t]; every primitive then degrades to
    the plain [Unix] call. *)

type spec =
  | Fail_nth_write of int
      (** the [n]th write call (1-based) raises [ENOSPC] without
          writing anything; later writes succeed *)
  | Short_write of int
      (** the [n]th write call writes only half its bytes, then
          raises [EIO] — leaves a torn record on disk *)
  | Crash_after_bytes of int
      (** once [n] cumulative bytes have been written, write the
          prefix up to the threshold and [Unix._exit 70] — simulates
          a crash with a partially written record *)
  | Enospc_after_bytes of int
      (** once [n] cumulative bytes have been written, write the
          prefix and raise [ENOSPC]; every later write and fsync
          raises [ENOSPC] too — a full disk that stays full *)
  | Drop_after_bytes of int
      (** once [n] cumulative bytes have been written, write the
          prefix and raise [EPIPE] forever after — a network
          partition that tears the stream mid-frame (for the
          replication socket) *)
  | Slow_write of float
      (** sleep [s] seconds before every write — a slow replica or a
          congested link *)
  | Short_read of int
      (** every read call returns at most [n] bytes — forces the
          callers' partial-read loops to actually loop *)
  | Flip_bit_after_bytes of int
      (** flip bit [n mod 8] of the byte at cumulative read offset
          [n], once — a deterministic single-bit disk corruption that
          the CRC/decoder validation paths must catch; on writes, a
          link that flips the byte at written offset [n] *)
  | Eintr_reads of int
      (** the first [n] read calls raise [EINTR] — a signal storm
          during recovery; callers must retry, not truncate *)

type t

val create : spec -> t

val exit_code : int
(** The status [Crash_after_bytes] exits with (70). *)

val write : t option -> Unix.file_descr -> bytes -> int -> int -> int
(** [write faults fd b off len] has [Unix.write] semantics, filtered
    through the fault spec.  [None] is a plain [Unix.write]. *)

val write_all : t option -> Unix.file_descr -> bytes -> int -> int -> unit
(** [write_all faults fd b off len] writes all [len] bytes through
    {!write}, retrying [EINTR] and short writes — the one write loop
    of the WAL, checkpoints, replication streams, the client and the
    server.  On a non-blocking [fd] that reports [EAGAIN] it waits for
    writability, one second at a time, and raises [EPIPE] after 30
    consecutive stalled seconds (a peer that stopped reading). *)

val read : t option -> Unix.file_descr -> bytes -> int -> int -> int
(** [read faults fd b off len] has [Unix.read] semantics, filtered
    through the fault spec.  [None] is a plain [Unix.read]. *)

val read_all : ?on_chunk:(int -> unit) -> t option -> string -> string
(** Read a whole file through {!read} (EINTR is retried, short reads
    are looped) — the faultable replacement for
    [In_channel.with_open_bin .. input_all], and the one whole-file
    read of recovery, bootstrap and the scrubber.  [on_chunk n] runs
    after each read that returned [n > 0] bytes, at most 64 KiB: the
    scrubber's rate limit. *)

val fsync : t option -> Unix.file_descr -> unit
(** [Unix.fsync], except a tripped [Enospc_after_bytes] raises. *)

(** {1 At-rest corruption}

    Damage a {e closed} file between runs — bit rot and torn storage
    rather than faulty syscalls.  These drive the scrubber and
    anti-entropy tests. *)

val file_size : string -> int

val flip_bit_at_rest : string -> off:int -> bit:int -> unit
(** Flip bit [bit land 7] of the byte at [off], in place, fsynced.
    @raise Invalid_argument if [off] is outside the file. *)

val truncate_at_rest : string -> size:int -> unit
(** Truncate the file to [size] bytes, fsynced. *)
