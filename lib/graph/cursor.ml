exception Bad of string

type t = { s : string; mutable pos : int; hi : int }

let make s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Cursor.make";
  { s; pos; hi = pos + len }

let u32_at s off = Int32.to_int (String.get_int32_be s off) land 0xffffffff
let need c n = if n < 0 || n > c.hi - c.pos then raise (Bad "truncated")

let u8 c =
  need c 1;
  let v = Char.code (String.unsafe_get c.s c.pos) in
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

(* [acc] holds the seven-bit groups read so far and [shift] is where
   the next one goes.  Eight groups hold 56 bits; a ninth byte may add
   six more, so the value stays below 2^62. *)
let rec varint_from c acc shift =
  if c.pos >= c.hi then raise (Bad "truncated");
  let b = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  if shift = 56 then
    if b > 0x3f then raise (Bad "varint too long") else acc lor (b lsl 56)
  else if b < 0x80 then acc lor (b lsl shift)
  else varint_from c (acc lor ((b land 0x7f) lsl shift)) (shift + 7)

let varint c = varint_from c 0 0

let sub c n =
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let str16 c = sub c (u16 c)
let str32 c = sub c (u32 c)

let check_count c count ~min_item_bytes =
  if count < 0 || count > (c.hi - c.pos) / min_item_bytes then
    raise (Bad "count exceeds what is left")

let list16 c ~min_item_bytes item =
  let n = u16 c in
  check_count c n ~min_item_bytes;
  List.init n (fun _ -> item c)

let expect_end c what = if c.pos <> c.hi then raise (Bad (what ^ ": trailing bytes"))
let skip_rest c = c.pos <- c.hi
