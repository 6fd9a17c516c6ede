(** Background verification of at-rest server state.

    A scrub pass walks a data directory — checkpoint generations and
    WAL segments, the only files the server writes there — reads every
    file back at a bounded I/O rate, and re-checks the integrity
    machinery that normally only runs at recovery time: each
    checkpoint through {!Checkpoint.body} (the CRC in its header line;
    a pre-header generation by the legacy rule there) and WAL record
    CRCs.  Silent
    corruption is found while the good copies still exist, not at the
    next crash.

    Scrubbing never deletes: corrupt files are {!quarantine}d — moved
    into a [quarantine/] subdirectory with directory fsyncs on both
    sides, so the evidence survives for forensics and a crash cannot
    resurrect the file into the recovery chain.  The caller (the
    server's integrity thread) re-checkpoints from the live index
    before quarantining anything the recovery chain still needs.

    WAL classification is deliberately tolerant of crash artifacts: a
    trailing {e incomplete} record (fewer bytes than its own header
    claims) is exactly what a torn append looks like and is not
    corruption; only a {e complete} record that fails its CRC or
    decode is flagged.  The live WAL can therefore be scanned while
    the server appends to it. *)

type corrupt = {
  file : string;  (** basename within the scanned directory *)
  what : [ `Checkpoint of int | `Wal of int ];
  reason : string;
}

type report = {
  files_scanned : int;
  bytes_read : int;
  corrupt : corrupt list;  (** in directory-listing order *)
}

val scan : ?faults:Faults.t -> ?max_bytes_per_s:int -> dir:string -> unit -> report
(** One pass over [dir].  Every file is read through
    {!Faults.read_all} with [faults] (the server's read faults), like
    recovery's reads.  [max_bytes_per_s] (default unlimited)
    bounds the read rate — the scrubber shares a disk with the WAL.
    Files in [quarantine/], [.tmp] leftovers, and unrecognized names
    are skipped.  Never raises on file content; I/O errors on a file
    count it as corrupt with the error as reason. *)

val quarantine_dir : string -> string
(** The quarantine subdirectory of a data directory. *)

val quarantine : dir:string -> string list -> string list
(** Move the named files (basenames) into [quarantine_dir dir],
    creating it if needed, fsyncing both directories so neither the
    disappearance nor the evidence can be lost to a crash.  Returns
    the basenames actually moved (already-missing files are
    skipped). *)
