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

exception Bad of string

type cursor = { s : string; mutable pos : int; hi : int }

let cursor s ~pos ~len = { s; pos; hi = pos + len }
let u32_at s off = Int32.to_int (String.get_int32_be s off) land 0xffffffff
let need c n = if c.pos + n > c.hi then raise (Bad "truncated")

let u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u16 c =
  need c 2;
  let v = String.get_uint16_be c.s c.pos in
  c.pos <- c.pos + 2;
  v

let u32 c =
  need c 4;
  let v = u32_at c.s c.pos in
  c.pos <- c.pos + 4;
  v

let u48 c =
  let a = u16 c in
  let b = u32 c in
  (a lsl 32) lor b

let seq32 c =
  let n = u32 c in
  if n = 0xffffffff then -1 else n

let sub c n =
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let str16 c = sub c (u16 c)
let str32 c = sub c (u32 c)

let check_count c count ~min_item_bytes =
  if count < 0 || count * min_item_bytes > c.hi - c.pos then raise (Bad "count exceeds frame")

let list16 c ~min_item_bytes item =
  let n = u16 c in
  check_count c n ~min_item_bytes;
  List.init n (fun _ -> item c)

let pair c =
  let l = str16 c in
  let k = u32 c in
  (l, k)

let pairs16 c = list16 c ~min_item_bytes:6 pair
let expect_end c what = if c.pos <> c.hi then raise (Bad (what ^ ": trailing bytes"))
let skip_rest c = c.pos <- c.hi
