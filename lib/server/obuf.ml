type t = { mutable buf : Bytes.t; mutable len : int }

let create hint = { buf = Bytes.create (max 16 hint); len = 0 }
let length t = t.len
let clear t = t.len <- 0
let base t = t.buf
let contents t = Bytes.sub_string t.buf 0 t.len

let reserve t n =
  let need = t.len + n in
  let cap = Bytes.length t.buf in
  if need > cap then begin
    let cap' = ref (2 * cap) in
    while !cap' < need do
      cap' := 2 * !cap'
    done;
    let b = Bytes.create !cap' in
    Bytes.blit t.buf 0 b 0 t.len;
    t.buf <- b
  end

let add_u8 t n =
  reserve t 1;
  Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (n land 0xff));
  t.len <- t.len + 1

let add_u16 t n =
  reserve t 2;
  Bytes.unsafe_set t.buf t.len (Char.unsafe_chr ((n lsr 8) land 0xff));
  Bytes.unsafe_set t.buf (t.len + 1) (Char.unsafe_chr (n land 0xff));
  t.len <- t.len + 2

let add_u32 t n =
  reserve t 4;
  Bytes.unsafe_set t.buf t.len (Char.unsafe_chr ((n lsr 24) land 0xff));
  Bytes.unsafe_set t.buf (t.len + 1) (Char.unsafe_chr ((n lsr 16) land 0xff));
  Bytes.unsafe_set t.buf (t.len + 2) (Char.unsafe_chr ((n lsr 8) land 0xff));
  Bytes.unsafe_set t.buf (t.len + 3) (Char.unsafe_chr (n land 0xff));
  t.len <- t.len + 4

let add_string t s =
  let len = String.length s in
  reserve t len;
  Bytes.blit_string s 0 t.buf t.len len;
  t.len <- t.len + len

let patch_u32 t off v =
  if off < 0 || off + 4 > t.len then invalid_arg "Obuf.patch_u32";
  Bytes.unsafe_set t.buf off (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set t.buf (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set t.buf (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set t.buf (off + 3) (Char.unsafe_chr (v land 0xff))
