let magic = "dkindex-graph 1"
let magic_v2 = "dkindex-graph 2"

(* ------------------------------------------------------------------ *)
(* Writing *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n = min_int then Buffer.add_string buf (string_of_int n)
  else if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end
  else add_digits buf n

(* Payloads are written percent-escaped so they stay one-per-line. *)
let add_escaped buf s =
  if not (String.exists (function '\n' | '\r' | '%' -> true | _ -> false) s) then
    Buffer.add_string buf s
  else
    String.iter
      (function
        | '\n' -> Buffer.add_string buf "%0A"
        | '\r' -> Buffer.add_string buf "%0D"
        | '%' -> Buffer.add_string buf "%25"
        | c -> Buffer.add_char buf c)
      s

let write buf g =
  let n = Data_graph.n_nodes g in
  Buffer.add_string buf magic_v2;
  Buffer.add_string buf "\nnodes ";
  add_int buf n;
  Buffer.add_char buf '\n';
  for u = 0 to n - 1 do
    Buffer.add_string buf (Data_graph.label_name g u);
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "edges ";
  add_int buf (Data_graph.n_edges g);
  Buffer.add_char buf '\n';
  (* Canonical (u, v) order straight from the CSR: a graph mutated
     through the overflow layer and its reloaded copy serialize
     byte-identically. *)
  for u = 0 to n - 1 do
    Data_graph.iter_children_sorted g u (fun v ->
        add_int buf u;
        Buffer.add_char buf ' ';
        add_int buf v;
        Buffer.add_char buf '\n')
  done;
  Buffer.add_string buf "values ";
  add_int buf (Data_graph.n_values g);
  Buffer.add_char buf '\n';
  for u = 0 to n - 1 do
    match Data_graph.value g u with
    | Some payload ->
      add_int buf u;
      Buffer.add_char buf ' ';
      add_escaped buf payload;
      Buffer.add_char buf '\n'
    | None -> ()
  done

let size_hint g = (Data_graph.n_nodes g * 24) + (Data_graph.n_edges g * 12) + 64

let to_string g =
  let buf = Buffer.create (size_hint g) in
  write buf g;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading *)

(* The value of the plain decimal s.[k .. j - 1], or -1 on any other
   character. *)
let rec digits s k j acc =
  if k = j then acc
  else
    match String.unsafe_get s k with
    | '0' .. '9' as c -> digits s (k + 1) j ((acc * 10) + Char.code c - 48)
    | _ -> -1

let int_of_sub s i j =
  let neg = j - i > 1 && Char.equal (String.unsafe_get s i) '-' in
  let d0 = if neg then i + 1 else i in
  (* Up to 18 plain digits cannot overflow; anything else (signs,
     underscores, base prefixes, long runs) is int_of_string's call. *)
  let v = if j - d0 < 1 || j - d0 > 18 then -1 else digits s d0 j 0 in
  if v < 0 then int_of_string_opt (String.sub s i (j - i)) else Some (if neg then -v else v)

let rec same_from s i lit k =
  k = String.length lit
  || Char.equal (String.unsafe_get s (i + k)) (String.unsafe_get lit k)
     && same_from s i lit (k + 1)

(* s.[i .. j - 1] = lit, without the copy. *)
let sub_equals s i j lit = j - i = String.length lit && same_from s i lit 0

(* The first [c] in s.[i .. j - 1], or [j]. *)
let rec index_in s c i j =
  if i >= j || Char.equal (String.unsafe_get s i) c then i else index_in s c (i + 1) j

(* The inverse of [add_escaped]; an unknown or cut-short escape stays
   literal. *)
let unescape_sub s i j =
  if index_in s '%' i j = j then String.sub s i (j - i)
  else begin
    let buf = Buffer.create (j - i) in
    let k = ref i in
    while !k < j do
      if Char.equal s.[!k] '%' && !k + 2 < j then begin
        (match (s.[!k + 1], s.[!k + 2]) with
        | '0', 'A' -> Buffer.add_char buf '\n'
        | '0', 'D' -> Buffer.add_char buf '\r'
        | '2', '5' -> Buffer.add_char buf '%'
        | _ -> Buffer.add_string buf (String.sub s !k 3));
        k := !k + 3
      end
      else begin
        Buffer.add_char buf s.[!k];
        incr k
      end
    done;
    Buffer.contents buf
  end

let of_substring s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Serial.of_substring";
  let fail fmt = Printf.ksprintf failwith fmt in
  let lim = pos + len in
  (* A cursor over the lines [String.split_on_char '\n'] would yield
     for the region: [next_line] sets [ls, le) to the next line and
     moves [cur] past its '\n'.  The text after the last '\n' (maybe
     empty) is a line too; [cur > lim] once it has been taken. *)
  let cur = ref pos and ls = ref pos and le = ref pos in
  let next_line missing =
    if !cur > lim then fail "Serial.of_string: %s" missing;
    ls := !cur;
    le := index_in s '\n' !cur lim;
    cur := !le + 1
  in
  let parse_count keyword missing =
    next_line missing;
    let kl = String.length keyword in
    if not (!le - !ls > kl && sub_equals s !ls (!ls + kl) keyword && Char.equal s.[!ls + kl] ' ')
    then fail "Serial.of_string: expected '%s <count>'" keyword;
    match int_of_sub s (!ls + kl + 1) !le with
    | Some n when n >= 0 -> n
    | _ -> fail "Serial.of_string: bad %s count" keyword
  in
  (* A section of [count] lines of at least [min_line] bytes each
     cannot fit in what is left: reject before allocating for it. *)
  let check_fits count min_line what =
    if count > (lim + 1 - !cur) / min_line then fail "Serial.of_string: truncated %s" what
  in
  next_line "truncated";
  let version =
    if sub_equals s !ls !le magic_v2 then 2
    else if sub_equals s !ls !le magic then 1
    else fail "Serial.of_string: bad magic"
  in
  let n = parse_count "nodes" "truncated" in
  check_fits n 1 "labels";
  let pool = Label.Pool.create () in
  let label_codes = Int_vec.create n in
  for u = 0 to n - 1 do
    next_line "truncated labels";
    Int_vec.unsafe_set label_codes u
      (Label.to_int (Label.Pool.intern pool (String.sub s !ls (!le - !ls))))
  done;
  let m = parse_count "edges" "missing edges" in
  check_fits m 4 "edges";
  let src = Int_vec.create m and dst = Int_vec.create m in
  for i = 0 to m - 1 do
    next_line "truncated edges";
    let sp = index_in s ' ' !ls !le in
    if sp = !le then fail "Serial.of_string: bad edge line";
    match (int_of_sub s !ls sp, int_of_sub s (sp + 1) !le) with
    | Some u, Some v ->
      Int_vec.unsafe_set src i u;
      Int_vec.unsafe_set dst i v
    | _ -> fail "Serial.of_string: bad edge"
  done;
  if n = 0 then fail "Serial.of_string: empty graph";
  (* Newest first, as [make] takes them: the first line for a node
     wins. *)
  let values = ref [] in
  if version >= 2 then begin
    let nv = parse_count "values" "missing values section" in
    check_fits nv 3 "values";
    for _ = 1 to nv do
      next_line "truncated values";
      let sp = index_in s ' ' !ls !le in
      if sp = !le then fail "Serial.of_string: bad value line";
      match int_of_sub s !ls sp with
      | Some u -> values := (u, unescape_sub s (sp + 1) !le) :: !values
      | None -> fail "Serial.of_string: bad value line"
    done
  end;
  Data_graph.of_edge_vecs ~values:!values ~pool ~label_codes ~src ~dst ()

let of_string s = of_substring s ~pos:0 ~len:(String.length s)

let save path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
