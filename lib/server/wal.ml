module Cursor = Dkindex_graph.Cursor

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
(* Record codec.  A mutation's body is also the body of its wire
   request ({!Wire} encodes and decodes mutation requests through
   [encode_body] and [decode_body]), so the two formats cannot drift. *)

(* A single record's payload is bounded: the largest legal mutation is
   an Add_subgraph carrying a Wire-sized document. *)
let max_payload = 64 * 1024 * 1024

let kind = function
  | Add_edge _ -> 0x01
  | Remove_edge _ -> 0x02
  | Add_subgraph _ -> 0x03
  | Promote _ -> 0x04
  | Demote _ -> 0x05

let encode_body buf = function
  | Add_edge { u; v } | Remove_edge { u; v } ->
    Obuf.add_u32 buf u;
    Obuf.add_u32 buf v
  | Add_subgraph { graph; reqs } ->
    Codec.add_str32 buf graph;
    Codec.add_pairs16 buf reqs
  | Promote pairs | Demote pairs -> Codec.add_pairs16 buf pairs

let decode_body kind c =
  match kind with
  | 0x01 ->
    let u = Cursor.u32 c in
    let v = Cursor.u32 c in
    Add_edge { u; v }
  | 0x02 ->
    let u = Cursor.u32 c in
    let v = Cursor.u32 c in
    Remove_edge { u; v }
  | 0x03 ->
    let graph = Cursor.str32 c in
    Add_subgraph { graph; reqs = Codec.pairs16 c }
  | 0x04 -> Promote (Codec.pairs16 c)
  | 0x05 -> Demote (Codec.pairs16 c)
  | k -> raise (Cursor.Bad (Printf.sprintf "unknown mutation kind 0x%02x" k))

(* Reserve the length and CRC slots, write the payload, patch both. *)
let encode_mutation buf m =
  let start = Obuf.length buf in
  Obuf.add_u32 buf 0;
  Obuf.add_u32 buf 0;
  Obuf.add_u8 buf (kind m);
  encode_body buf m;
  let plen = Obuf.length buf - start - 8 in
  Obuf.patch_u32 buf start plen;
  Obuf.patch_u32 buf (start + 4) (Dkindex_graph.Crc32.update 0 (Obuf.base buf) (start + 8) plen)

(* ------------------------------------------------------------------ *)
(* Writer *)

type t = {
  fd : Unix.file_descr;
  faults : Faults.t option;
  sync_policy : sync_policy;
  buf : Obuf.t;
  mutable n_records : int;
  mutable n_bytes : int;
  mutable unsynced : int;
}

let create ?faults ~sync path =
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let n_bytes = (Unix.fstat fd).st_size in
  { fd; faults; sync_policy = sync; buf = Obuf.create 256; n_records = 0; n_bytes; unsynced = 0 }

let sync t =
  if t.unsynced > 0 then begin
    Faults.fsync t.faults t.fd;
    t.unsynced <- 0
  end

let append t m =
  Obuf.clear t.buf;
  encode_mutation t.buf m;
  let n = Obuf.length t.buf in
  Faults.write_all t.faults t.fd (Obuf.base t.buf) 0 n;
  t.n_records <- t.n_records + 1;
  t.n_bytes <- t.n_bytes + n;
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

type replay = { mutations : mutation list; ends : int list; valid_bytes : int; torn_bytes : int }

(* The record at [pos] and the offset just past it, if it is whole,
   passes its CRC and decodes. *)
let record_at s pos =
  let len = String.length s in
  if pos + 8 > len then None
  else
    let plen = Cursor.u32_at s pos in
    if
      plen = 0 || plen > max_payload
      || pos + 8 + plen > len
      || Dkindex_graph.Crc32.string s (pos + 8) plen <> Cursor.u32_at s (pos + 4)
    then None
    else
      let c = Cursor.make s ~pos:(pos + 8) ~len:plen in
      match
        let m = decode_body (Cursor.u8 c) c in
        Cursor.expect_end c "record";
        m
      with
      | m -> Some (m, pos + 8 + plen)
      | exception Cursor.Bad _ -> None

let replay_string s =
  let rec go pos muts ends =
    match record_at s pos with
    | Some (m, next) -> go next (m :: muts) (next :: ends)
    | None ->
      {
        mutations = List.rev muts;
        ends = List.rev ends;
        valid_bytes = pos;
        torn_bytes = String.length s - pos;
      }
  in
  go 0 [] []

let replay ?faults path =
  match Faults.read_all faults path with
  | s -> replay_string s
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    { mutations = []; ends = []; valid_bytes = 0; torn_bytes = 0 }
