module Cursor = Dkindex_graph.Cursor

(* ------------------------------------------------------------------ *)
(* Writers *)

let add_u48 buf n =
  Obuf.add_u16 buf (n lsr 32);
  Obuf.add_u32 buf n

let add_seq buf n = Obuf.add_u32 buf (if n < 0 then 0xffffffff else n)

let add_str16 buf s =
  if String.length s > 0xffff then invalid_arg "Codec: string too long";
  Obuf.add_u16 buf (String.length s);
  Obuf.add_string buf s

let add_str32 buf s =
  Obuf.add_u32 buf (String.length s);
  Obuf.add_string buf s

let add_list16 buf add items =
  let n = List.length items in
  if n > 0xffff then invalid_arg "Codec: too many items";
  Obuf.add_u16 buf n;
  List.iter (add buf) items

let add_pair buf (l, k) =
  add_str16 buf l;
  Obuf.add_u32 buf k

let add_pairs16 buf pairs = add_list16 buf add_pair pairs

(* ------------------------------------------------------------------ *)
(* Readers *)

let seq32 c =
  let n = Cursor.u32 c in
  if n = 0xffffffff then -1 else n

let pair c =
  let l = Cursor.str16 c in
  let k = Cursor.u32 c in
  (l, k)

let pairs16 c = Cursor.list16 c ~min_item_bytes:6 pair
