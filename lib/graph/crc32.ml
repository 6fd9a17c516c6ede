(* Slicing-by-4: [tables] holds four 256-entry tables back to back;
   table [k] advances the CRC of a byte by [k] further zero bytes, so
   one step folds a 32-bit little-endian word with four lookups. *)
let tables =
  lazy
    (let t = Array.make 1024 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 3 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let update crc b off len =
  if len > 0 && (off < 0 || off > Bytes.length b - len) then invalid_arg "Crc32.update";
  let t = Lazy.force tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref off and stop = off + len in
  while !i + 4 <= stop do
    let x = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    c :=
      Array.unsafe_get t (768 + (x land 0xff))
      lxor Array.unsafe_get t (512 + ((x lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((x lsr 16) land 0xff))
      lxor Array.unsafe_get t (x lsr 24);
    i := !i + 4
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xff)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let string s off len = update 0 (Bytes.unsafe_of_string s) off len
