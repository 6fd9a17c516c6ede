module Cursor = Dkindex_graph.Cursor

type corrupt = {
  file : string;
  what : [ `Checkpoint of int | `Wal of int ];
  reason : string;
}

type report = { files_scanned : int; bytes_read : int; corrupt : corrupt list }

(* ------------------------------------------------------------------ *)
(* Rate-limited whole-file reads                                      *)

type throttle = { cap : int; t0 : float; mutable bytes : int }

let throttle cap = { cap; t0 = Unix.gettimeofday (); bytes = 0 }

(* Keep the cumulative rate under [cap] by sleeping after each chunk:
   instantaneous bursts are one chunk (64 KiB) long at most. *)
let pay th n =
  th.bytes <- th.bytes + n;
  if th.cap > 0 then begin
    let min_elapsed = float_of_int th.bytes /. float_of_int th.cap in
    let elapsed = Unix.gettimeofday () -. th.t0 in
    if elapsed < min_elapsed then Unix.sleepf (min_elapsed -. elapsed)
  end

(* ------------------------------------------------------------------ *)
(* Per-kind verification                                              *)

(* A torn tail that looks like a crashed append — fewer bytes than one
   record header, or a header whose record extends past EOF — is not
   corruption.  A complete record that failed CRC/decode is. *)
let verify_wal s =
  let r = Wal.replay_string s in
  if r.Wal.torn_bytes = 0 then None
  else begin
    let off = r.Wal.valid_bytes in
    let torn = r.Wal.torn_bytes in
    if torn < 8 then None
    else
      let len = Cursor.u32_at s off in
      if 8 + len > torn then None
      else
        Some
          (Printf.sprintf "complete record at offset %d fails crc/decode (%d torn bytes)"
             off torn)
  end

(* ------------------------------------------------------------------ *)
(* The pass                                                           *)

let quarantine_dir dir = Filename.concat dir "quarantine"

let scan ?faults ?(max_bytes_per_s = 0) ~dir () =
  let th = throttle max_bytes_per_s in
  let read_file path = Faults.read_all ~on_chunk:(pay th) faults path in
  let scanned = ref 0 and corrupt = ref [] in
  let note file what reason = corrupt := { file; what; reason } :: !corrupt in
  let names =
    match Sys.readdir dir with
    | exception Sys_error _ -> [||]
    | a ->
      Array.sort compare a;
      a
  in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if (not (Filename.check_suffix name ".tmp")) && not (Sys.is_directory path) then
        match Checkpoint.seq_of name ~prefix:"checkpoint-" ~suffix:".index" with
        | Some seq -> (
          incr scanned;
          match read_file path with
          | s -> (
            match Checkpoint.body ~generation:(dir, seq) s with
            | Error reason -> note name (`Checkpoint seq) reason
            | Ok _ -> ())
          | exception e -> note name (`Checkpoint seq) (Printexc.to_string e))
        | None -> (
          match Checkpoint.seq_of name ~prefix:"wal-" ~suffix:".log" with
          | Some seq -> (
            incr scanned;
            match read_file path with
            | s -> (
              match verify_wal s with
              | Some reason -> note name (`Wal seq) reason
              | None -> ())
            | exception e -> note name (`Wal seq) (Printexc.to_string e))
          | None -> ()))
    names;
  { files_scanned = !scanned; bytes_read = th.bytes; corrupt = List.rev !corrupt }

let quarantine ~dir files =
  let q = quarantine_dir dir in
  (try Unix.mkdir q 0o755 with Unix.Unix_error ((EEXIST | EISDIR), _, _) -> ());
  let moved =
    List.filter
      (fun name ->
        match Unix.rename (Filename.concat dir name) (Filename.concat q name) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
      files
  in
  if moved <> [] then begin
    Checkpoint.fsync_dir q;
    Checkpoint.fsync_dir dir
  end;
  moved
