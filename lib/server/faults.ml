type spec =
  | Fail_nth_write of int
  | Short_write of int
  | Crash_after_bytes of int
  | Enospc_after_bytes of int
  | Drop_after_bytes of int
  | Slow_write of float
  | Short_read of int
  | Flip_bit_after_bytes of int
  | Eintr_reads of int

type t = {
  spec : spec;
  mutable writes : int;
  mutable bytes : int;
  mutable reads : int;
  mutable rbytes : int;
  mutable tripped : bool;
}

let create spec = { spec; writes = 0; bytes = 0; reads = 0; rbytes = 0; tripped = false }
let exit_code = 70
let enospc name = raise (Unix.Unix_error (Unix.ENOSPC, name, "injected fault"))

let write faults fd b off len =
  match faults with
  | None -> Unix.write fd b off len
  | Some t -> (
    t.writes <- t.writes + 1;
    match t.spec with
    | Fail_nth_write n when t.writes = n -> enospc "write"
    | Short_write n when t.writes = n ->
      let half = len / 2 in
      if half > 0 then ignore (Unix.write fd b off half);
      raise (Unix.Unix_error (Unix.EIO, "write", "injected short write"))
    | Flip_bit_after_bytes thresh when (not t.tripped) && t.bytes + len > thresh ->
      (* Corrupt a copy: the caller's buffer stays as it was. *)
      let i = thresh - t.bytes in
      let c = Bytes.sub b off len in
      Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor (1 lsl (thresh mod 8))));
      let n = Unix.write fd c 0 len in
      if n > i then t.tripped <- true;
      t.bytes <- t.bytes + n;
      n
    | Slow_write s ->
      Unix.sleepf s;
      let n = Unix.write fd b off len in
      t.bytes <- t.bytes + n;
      n
    | Drop_after_bytes n when t.tripped || t.bytes + len > n ->
      let room = if t.tripped then 0 else max 0 (n - t.bytes) in
      if room > 0 then begin
        ignore (Unix.write fd b off room);
        t.bytes <- t.bytes + room
      end;
      t.tripped <- true;
      raise (Unix.Unix_error (Unix.EPIPE, "write", "injected partition"))
    | (Crash_after_bytes n | Enospc_after_bytes n) when t.tripped || t.bytes + len > n ->
      let room = if t.tripped then 0 else max 0 (n - t.bytes) in
      if room > 0 then begin
        ignore (Unix.write fd b off room);
        t.bytes <- t.bytes + room
      end;
      t.tripped <- true;
      (match t.spec with
      | Crash_after_bytes _ -> Unix._exit exit_code
      | _ -> enospc "write")
    | _ ->
      let n = Unix.write fd b off len in
      t.bytes <- t.bytes + n;
      n)

let write_all faults fd b off len =
  let stalls = ref 0 and off = ref off and len = ref len in
  while !len > 0 do
    match write faults fd b !off !len with
    | n ->
      off := !off + n;
      len := !len - n;
      stalls := 0
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      incr stalls;
      if !stalls > 30 then raise (Unix.Unix_error (EPIPE, "write", "stalled peer"));
      ignore (Unix.select [] [ fd ] [] 1.0)
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let read faults fd b off len =
  match faults with
  | None -> Unix.read fd b off len
  | Some t -> (
    t.reads <- t.reads + 1;
    match t.spec with
    | Eintr_reads n when t.reads <= n ->
      raise (Unix.Unix_error (Unix.EINTR, "read", "injected interrupt"))
    | Short_read cap when len > 0 ->
      let n = Unix.read fd b off (min len (max 1 cap)) in
      t.rbytes <- t.rbytes + n;
      n
    | Flip_bit_after_bytes thresh ->
      let n = Unix.read fd b off len in
      (if (not t.tripped) && n > 0 && t.rbytes + n > thresh then begin
         (* Flip bit [thresh mod 8] of the byte at cumulative offset
            [thresh] — fully determined by the spec, so the same seed
            corrupts the same bit on every run. *)
         let i = off + max 0 (thresh - t.rbytes) in
         let i = min i (off + n - 1) in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (thresh mod 8))));
         t.tripped <- true
       end);
      t.rbytes <- t.rbytes + n;
      n
    | _ ->
      let n = Unix.read fd b off len in
      t.rbytes <- t.rbytes + n;
      n)

let read_all ?(on_chunk = ignore) faults path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        match read faults fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          on_chunk n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ())

let fsync faults fd =
  match faults with
  | Some { spec = Enospc_after_bytes _; tripped = true; _ } -> enospc "fsync"
  | _ -> Unix.fsync fd

(* ------------------------------------------------------------------ *)
(* At-rest corruption: damage a closed file between runs.  These are
   not part of a [spec] — they model bit rot and torn storage rather
   than a faulty syscall, and drive the scrubber / anti-entropy
   tests. *)

let file_size path = (Unix.stat path).Unix.st_size

let flip_bit_at_rest path ~off ~bit =
  let size = file_size path in
  if off < 0 || off >= size then
    invalid_arg
      (Printf.sprintf "Faults.flip_bit_at_rest: offset %d out of [0, %d)" off size);
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      if Unix.read fd b 0 1 <> 1 then failwith "Faults.flip_bit_at_rest: read";
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl (bit land 7))));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then failwith "Faults.flip_bit_at_rest: write";
      Unix.fsync fd)

let truncate_at_rest path ~size =
  if size < 0 then invalid_arg "Faults.truncate_at_rest: negative size";
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd size;
      Unix.fsync fd)
