(* The state is 8 bytes, not an [int64] record field: a field holds a
   boxed int64, so each draw would allocate a box for the new state and
   another for the result.  The bytes primitives read and write the raw
   word, and [step] is inlined into each drawing function, so ocamlopt
   keeps the whole SplitMix64 round in registers and a draw allocates
   nothing.  The byte order is the host's: the state never leaves the
   process. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create ~seed =
  let t = Bytes.create 8 in
  set64 t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

let golden = 0x9E3779B97F4A7C15L

let[@inline always] step t =
  let s = Int64.add (get64 t 0) golden in
  set64 t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = step t

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  Int64.to_int (Int64.shift_right_logical (step t) 2) mod n

let range t lo hi =
  if hi < lo then invalid_arg "Prng.range: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t x =
  let v = Int64.to_float (Int64.shift_right_logical (step t) 11) in
  x *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t p = float t 1.0 < p
let choose t arr = arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Prng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let geometric t ~p ~max =
  let rec go n = if n >= max || bool t p then n else go (n + 1) in
  go 0
