type mutation =
  | Add_edge of { u : int; v : int }
  | Remove_edge of { u : int; v : int }
  | Add_subgraph of { graph : string; reqs : (string * int) list }
  | Promote of (string * int) list
  | Demote of (string * int) list

type sync_policy = Always | Interval of int | Never

let sync_policy_of_string s =
  match String.split_on_char ':' s with
  | [ "always" ] -> Ok Always
  | [ "never" ] -> Ok Never
  | [ "interval" ] -> Ok (Interval 64)
  | [ "interval"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (Interval n)
    | _ -> Error (Printf.sprintf "bad sync interval %S" n))
  | _ -> Error (Printf.sprintf "bad sync policy %S (always|never|interval[:N])" s)

let sync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval n -> Printf.sprintf "interval:%d" n

(* ------------------------------------------------------------------ *)
(* Payload codec.  Same u8/u16/u32 conventions as Wire, but records
   are self-contained — the WAL must stay readable even if the wire
   protocol moves on. *)

(* A single record's payload is bounded: the largest legal mutation is
   an Add_subgraph carrying a Wire-sized document. *)
let max_payload = 64 * 1024 * 1024

let add_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let add_u16 buf n =
  add_u8 buf (n lsr 8);
  add_u8 buf n

let add_u32 buf n =
  add_u16 buf (n lsr 16);
  add_u16 buf n

let add_str16 buf s =
  if String.length s > 0xffff then invalid_arg "Wal: string too long";
  add_u16 buf (String.length s);
  Buffer.add_string buf s

let add_pairs16 buf pairs =
  if List.length pairs > 0xffff then invalid_arg "Wal: too many pairs";
  add_u16 buf (List.length pairs);
  List.iter
    (fun (l, k) ->
      add_str16 buf l;
      add_u32 buf k)
    pairs

let kind_of = function
  | Add_edge _ -> 0x01
  | Remove_edge _ -> 0x02
  | Add_subgraph _ -> 0x03
  | Promote _ -> 0x04
  | Demote _ -> 0x05

let encode_payload buf m =
  add_u8 buf (kind_of m);
  match m with
  | Add_edge { u; v } | Remove_edge { u; v } ->
    add_u32 buf u;
    add_u32 buf v
  | Add_subgraph { graph; reqs } ->
    add_u32 buf (String.length graph);
    Buffer.add_string buf graph;
    add_pairs16 buf reqs
  | Promote pairs | Demote pairs -> add_pairs16 buf pairs

let encode_mutation buf m =
  let payload = Buffer.create 32 in
  encode_payload payload m;
  let p = Buffer.contents payload in
  add_u32 buf (String.length p);
  add_u32 buf (Dkindex_graph.Crc32.string p 0 (String.length p));
  Buffer.add_string buf p

exception Bad

type cursor = { s : string; limit : int; mutable pos : int }

let need c n = if c.pos + n > c.limit then raise Bad

let u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u16 c =
  let hi = u8 c in
  let lo = u8 c in
  (hi lsl 8) lor lo

let u32 c =
  let a = u16 c in
  let b = u16 c in
  (a lsl 16) lor b

let str16 c =
  let n = u16 c in
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let pairs16 c =
  let n = u16 c in
  if n * 6 > c.limit - c.pos then raise Bad;
  List.init n (fun _ ->
      let l = str16 c in
      let k = u32 c in
      (l, k))

(* [decode_payload c] reads one payload from [c.pos .. c.limit); the
   caller has already verified the CRC over exactly that span. *)
let decode_payload c =
  let m =
    match u8 c with
    | 0x01 ->
      let u = u32 c in
      let v = u32 c in
      Add_edge { u; v }
    | 0x02 ->
      let u = u32 c in
      let v = u32 c in
      Remove_edge { u; v }
    | 0x03 ->
      let n = u32 c in
      need c n;
      let graph = String.sub c.s c.pos n in
      c.pos <- c.pos + n;
      Add_subgraph { graph; reqs = pairs16 c }
    | 0x04 -> Promote (pairs16 c)
    | 0x05 -> Demote (pairs16 c)
    | _ -> raise Bad
  in
  if c.pos <> c.limit then raise Bad;
  m

(* ------------------------------------------------------------------ *)
(* Writer *)

type t = {
  fd : Unix.file_descr;
  faults : Faults.t option;
  sync_policy : sync_policy;
  buf : Buffer.t;
  mutable n_records : int;
  mutable n_bytes : int;
  mutable unsynced : int;
}

let create ?faults ~sync path =
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let n_bytes = (Unix.fstat fd).st_size in
  { fd; faults; sync_policy = sync; buf = Buffer.create 256; n_records = 0; n_bytes; unsynced = 0 }

let sync t =
  if t.unsynced > 0 then begin
    Faults.fsync t.faults t.fd;
    t.unsynced <- 0
  end

let append t m =
  Buffer.clear t.buf;
  encode_mutation t.buf m;
  let b = Buffer.to_bytes t.buf in
  Faults.write_all t.faults t.fd b 0 (Bytes.length b);
  t.n_records <- t.n_records + 1;
  t.n_bytes <- t.n_bytes + Bytes.length b;
  t.unsynced <- t.unsynced + 1;
  match t.sync_policy with
  | Always -> sync t
  | Interval n -> if t.unsynced >= n then sync t
  | Never -> ()

let records t = t.n_records
let bytes t = t.n_bytes

let close t =
  (try sync t with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Replay *)

type replay = { mutations : mutation list; valid_bytes : int; torn_bytes : int }

let replay_string s =
  let len = String.length s in
  let acc = ref [] in
  let pos = ref 0 in
  let stop = ref false in
  while not !stop do
    if !pos + 8 > len then stop := true
    else begin
      let c = { s; limit = len; pos = !pos } in
      let plen = u32 c in
      let crc = u32 c in
      if plen <= 0 || plen > max_payload || !pos + 8 + plen > len then stop := true
      else if Dkindex_graph.Crc32.string s (!pos + 8) plen <> crc then stop := true
      else begin
        let c = { s; limit = !pos + 8 + plen; pos = !pos + 8 } in
        match decode_payload c with
        | m ->
          acc := m :: !acc;
          pos := !pos + 8 + plen
        | exception Bad -> stop := true
      end
    end
  done;
  { mutations = List.rev !acc; valid_bytes = !pos; torn_bytes = len - !pos }

let replay ?faults path =
  match Faults.read_all faults path with
  | s -> replay_string s
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    { mutations = []; valid_bytes = 0; torn_bytes = 0 }
