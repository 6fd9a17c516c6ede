let magic = "dkindex-graph 1"
let magic_v2 = "dkindex-graph 2"

(* ------------------------------------------------------------------ *)
(* Writing *)

(* Whether s.[i ..] needs no escape: a loop, not [String.exists],
   which calls a closure per byte. *)
let rec plain s i =
  i >= String.length s
  || match String.unsafe_get s i with '\n' | '\r' | '%' -> false | _ -> plain s (i + 1)

(* Payloads are written percent-escaped so they stay one-per-line. *)
let add_escaped out s =
  if plain s 0 then Text_buf.add_string out s
  else
    String.iter
      (function
        | '\n' -> Text_buf.add_string out "%0A"
        | '\r' -> Text_buf.add_string out "%0D"
        | '%' -> Text_buf.add_string out "%25"
        | c -> Text_buf.add_char out c)
      s

(* Label names by code. *)
let label_names g =
  let pool = Data_graph.pool g in
  Array.init (Label.Pool.count pool) (fun c -> Label.Pool.name pool (Label.of_int c))

(* Every node id is counted at the digits of [n], its most; escapes
   in payloads are not counted. *)
let size_hint g =
  let n = Data_graph.n_nodes g and codes = Data_graph.label_codes g in
  let line = Array.map (fun name -> String.length name + 1) (label_names g) in
  let id = String.length (string_of_int n) in
  let bytes = ref (64 + (Data_graph.n_edges g * ((2 * id) + 2))) in
  for u = 0 to n - 1 do
    bytes := !bytes + line.(Int_vec.unsafe_get codes u)
  done;
  Data_graph.iter_values g (fun _ payload -> bytes := !bytes + id + 2 + String.length payload);
  !bytes

let encode out g =
  let n = Data_graph.n_nodes g in
  Text_buf.add_string out magic_v2;
  Text_buf.add_string out "\nnodes ";
  Text_buf.add_int out n;
  Text_buf.add_char out '\n';
  let names = label_names g and codes = Data_graph.label_codes g in
  for u = 0 to n - 1 do
    Text_buf.add_line out names.(Int_vec.unsafe_get codes u)
  done;
  Text_buf.add_string out "edges ";
  Text_buf.add_int out (Data_graph.n_edges g);
  Text_buf.add_char out '\n';
  (* Canonical (u, v) order straight from the CSR runs: a graph mutated
     through the overflow layer and its reloaded copy serialize
     byte-identically.  A flat graph's runs are read in place; with
     pending updates each run is merged with its overflow on the fly,
     leaving the graph as it is. *)
  (match Data_graph.overflow g with
  | 0, 0 ->
    let off, arr = Data_graph.csr_children g in
    for u = 0 to n - 1 do
      for i = Int_vec.unsafe_get off u to Int_vec.unsafe_get off (u + 1) - 1 do
        Text_buf.add_int_pair_line out u (Int_vec.unsafe_get arr i)
      done
    done
  | _ ->
    for u = 0 to n - 1 do
      Data_graph.iter_children_sorted g u (Text_buf.add_int_pair_line out u)
    done);
  let values = Data_graph.payloads g in
  Text_buf.add_string out "values ";
  Text_buf.add_int out (Payloads.length values);
  Text_buf.add_char out '\n';
  for i = 0 to Payloads.length values - 1 do
    Text_buf.add_int out (Payloads.node values i);
    Text_buf.add_char out ' ';
    add_escaped out (Payloads.text values i);
    Text_buf.add_char out '\n'
  done

let to_string g =
  let out = Text_buf.create ~gap:0 (size_hint g) in
  encode out g;
  Text_buf.contents out

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
  (* In document order; the first line for a node wins. *)
  let values = Payloads.acc () in
  if version >= 2 then begin
    let nv = parse_count "values" "missing values section" in
    check_fits nv 3 "values";
    for _ = 1 to nv do
      next_line "truncated values";
      let sp = index_in s ' ' !ls !le in
      if sp = !le then fail "Serial.of_string: bad value line";
      match int_of_sub s !ls sp with
      | Some u -> Payloads.add values u (unescape_sub s (sp + 1) !le)
      | None -> fail "Serial.of_string: bad value line"
    done
  end;
  Data_graph.of_edge_vecs ~values:(Payloads.freeze values) ~pool ~label_codes ~src ~dst ()

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
