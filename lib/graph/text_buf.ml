(* The contents are buf.[start, pos). *)
type t = { mutable buf : Bytes.t; mutable start : int; mutable pos : int }

(* The line writers check for room for their longest line, so [slack]
   bytes past the hint keep an exact hint from growing the buffer on
   the last line. *)
let slack = 64
let create ~gap hint = { buf = Bytes.create (gap + max hint 0 + slack); start = gap; pos = gap }
let length t = t.pos - t.start
let bytes t = t.buf
let start t = t.start
let contents t = Bytes.sub_string t.buf t.start (length t)

(* Room for [k] more bytes at [pos], at least doubling the storage. *)
let grow t k =
  let cap = max (2 * Bytes.length t.buf) (t.pos + k) in
  let b = Bytes.create cap in
  Bytes.blit t.buf t.start b t.start (length t);
  t.buf <- b

let[@inline] reserve t k = if t.pos + k > Bytes.length t.buf then grow t k

let add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.buf t.pos c;
  t.pos <- t.pos + 1

let add_string t s =
  let k = String.length s in
  reserve t k;
  Bytes.unsafe_blit_string s 0 t.buf t.pos k;
  t.pos <- t.pos + k

let rec n_digits n =
  if n < 10 then 1
  else if n < 100 then 2
  else if n < 1000 then 3
  else if n < 10000 then 4
  else if n < 100000 then 5
  else if n < 1000000 then 6
  else 6 + n_digits (n / 1000000)

(* "00" .. "99": two digits per division. *)
let pairs = String.init 200 (fun i -> Char.unsafe_chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* The digits of [n >= 0], ending just before [stop]. *)
let rec put_digits b stop n =
  if n >= 100 then begin
    let r = 2 * (n mod 100) in
    Bytes.unsafe_set b (stop - 1) (String.unsafe_get pairs (r + 1));
    Bytes.unsafe_set b (stop - 2) (String.unsafe_get pairs r);
    put_digits b (stop - 2) (n / 100)
  end
  else if n >= 10 then begin
    Bytes.unsafe_set b (stop - 1) (String.unsafe_get pairs ((2 * n) + 1));
    Bytes.unsafe_set b (stop - 2) (String.unsafe_get pairs (2 * n))
  end
  else Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + n))

(* Unchecked: the caller has reserved the room. *)
let[@inline] put_nat t n =
  let k = n_digits n in
  put_digits t.buf (t.pos + k) n;
  t.pos <- t.pos + k

let[@inline] put_char t c =
  Bytes.unsafe_set t.buf t.pos c;
  t.pos <- t.pos + 1

(* At most 20 bytes: a sign and 19 digits. *)
let put_int t n =
  if n >= 0 then put_nat t n
  else if n = min_int then begin
    let s = string_of_int n in
    Bytes.unsafe_blit_string s 0 t.buf t.pos (String.length s);
    t.pos <- t.pos + String.length s
  end
  else begin
    put_char t '-';
    put_nat t (-n)
  end

let add_int t n =
  reserve t 20;
  put_int t n

let add_line t s =
  let k = String.length s in
  reserve t (k + 1);
  Bytes.unsafe_blit_string s 0 t.buf t.pos k;
  t.pos <- t.pos + k;
  put_char t '\n'

let add_int_line t n =
  reserve t 21;
  put_int t n;
  put_char t '\n'

let add_int_pair_line t a b =
  reserve t 42;
  put_int t a;
  put_char t ' ';
  put_int t b;
  put_char t '\n'

let prepend t s =
  let k = String.length s in
  if k > t.start then invalid_arg "Text_buf.prepend: larger than the gap left";
  t.start <- t.start - k;
  Bytes.blit_string s 0 t.buf t.start k
