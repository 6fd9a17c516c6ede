open Dkindex_graph

let magic_v1 = "dkindex-index 1"
let magic = "dkindex-index 2"

type slice = { bytes : Bytes.t; off : int; len : int }

(* Room for the header: the magic, three counts and a length, each at
   most 20 characters. *)
let header_room = 128

let encode t =
  let data = Index_graph.data t in
  let cls, order, _ = Index_graph.dense_classes t in
  let count = Array.length order in
  let enc k = if k >= Index_graph.k_infinite then -1 else k in
  let cls_line = String.length (string_of_int count) + 1 in
  let out =
    Text_buf.create ~gap:header_room
      (Serial.size_hint data + (Array.length cls * cls_line) + (count * 8) + 32)
  in
  Serial.encode out data;
  let graph_len = Text_buf.length out in
  Text_buf.add_string out "cls\n";
  Array.iter (Text_buf.add_int_line out) cls;
  Text_buf.add_string out "classes ";
  Text_buf.add_int out count;
  Text_buf.add_char out '\n';
  Array.iter
    (fun id ->
      let nd = Index_graph.node t id in
      Text_buf.add_int_pair_line out (enc nd.Index_graph.k) (enc nd.Index_graph.req))
    order;
  (* The header declares the embedded graph's length, known only now:
     it goes into the gap in front of the body. *)
  Text_buf.prepend out
    (Printf.sprintf "%s\ncounts %d %d %d\ngraph %d\n" magic (Data_graph.n_nodes data)
       (Data_graph.n_edges data) count graph_len);
  { bytes = Text_buf.bytes out; off = Text_buf.start out; len = Text_buf.length out }

let to_string t =
  let { bytes; off; len } = encode t in
  Bytes.sub_string bytes off len

let of_string s =
  let fail fmt = Printf.ksprintf failwith fmt in
  let len = String.length s in
  (* A cursor over '\n'-terminated lines: [next_line] sets [ls, le) to
     the line at [pos] and moves [pos] past it.  A line without its
     '\n' is truncation. *)
  let rec eol i =
    if i >= len then fail "Index_serial.of_string: truncated"
    else if Char.equal (String.unsafe_get s i) '\n' then i
    else eol (i + 1)
  in
  let pos = ref 0 and ls = ref 0 and le = ref 0 in
  let next_line () =
    ls := !pos;
    le := eol !pos;
    pos := !le + 1
  in
  let line_is lit =
    !le - !ls = String.length lit && String.equal (String.sub s !ls (!le - !ls)) lit
  in
  (* [keyword] and a single space, then the line's remaining tokens:
     the position just past the keyword's space, or [-1]. *)
  let after keyword =
    let kl = String.length keyword in
    if !le - !ls > kl && String.equal (String.sub s !ls kl) keyword && Char.equal s.[!ls + kl] ' '
    then !ls + kl + 1
    else -1
  in
  let rec space i =
    if i >= !le || Char.equal (String.unsafe_get s i) ' ' then i else space (i + 1)
  in
  next_line ();
  let version =
    if line_is magic then 2
    else if line_is magic_v1 then 1
    else fail "Index_serial.of_string: bad magic"
  in
  (* v2 declares the shape up front; the declaration is checked against
     what the body actually decodes to, so a snapshot whose graph or
     partition was truncated or spliced is rejected even when each part
     parses on its own. *)
  let declared =
    if version = 1 then None
    else begin
      next_line ();
      let a0 = after "counts" in
      let a1 = if a0 < 0 then !le else space a0 in
      let a2 = if a1 >= !le then !le else space (a1 + 1) in
      if a2 >= !le then
        fail "Index_serial.of_string: expected 'counts <nodes> <edges> <classes>'";
      match
        ( Serial.int_of_sub s a0 a1,
          Serial.int_of_sub s (a1 + 1) a2,
          Serial.int_of_sub s (a2 + 1) !le )
      with
      | Some a, Some b, Some c when a >= 0 && b >= 0 && c >= 0 -> Some (a, b, c)
      | _ -> fail "Index_serial.of_string: bad counts line"
    end
  in
  next_line ();
  let g0 = after "graph" in
  if g0 < 0 then fail "Index_serial.of_string: expected 'graph <len>'";
  let graph_len =
    match Serial.int_of_sub s g0 !le with
    | Some n when n >= 0 && !pos + n <= len -> n
    | _ -> fail "Index_serial.of_string: bad graph length"
  in
  let data = Serial.of_substring s ~pos:!pos ~len:graph_len in
  pos := !pos + graph_len;
  next_line ();
  if not (line_is "cls") then fail "Index_serial.of_string: expected 'cls'";
  let n = Data_graph.n_nodes data in
  let cls = Array.make n 0 in
  for u = 0 to n - 1 do
    next_line ();
    match Serial.int_of_sub s !ls !le with
    | Some c when c >= 0 -> cls.(u) <- c
    | _ -> fail "Index_serial.of_string: bad class for node %d" u
  done;
  next_line ();
  let c0 = after "classes" in
  if c0 < 0 then fail "Index_serial.of_string: expected 'classes <m>'";
  let m =
    match Serial.int_of_sub s c0 !le with
    | Some m when m > 0 -> m
    | _ -> fail "Index_serial.of_string: bad class count"
  in
  Array.iter (fun c -> if c >= m then fail "Index_serial.of_string: class out of range") cls;
  (match declared with
  | None -> ()
  | Some (dn, de, dm) ->
    if dn <> n then
      fail "Index_serial.of_string: declared %d nodes, graph has %d" dn n;
    if de <> Data_graph.n_edges data then
      fail "Index_serial.of_string: declared %d edges, graph has %d" de
        (Data_graph.n_edges data);
    if dm <> m then fail "Index_serial.of_string: declared %d classes, body has %d" dm m);
  (* Each class line takes at least 4 bytes ("k r\n"). *)
  if m > (len - !pos) / 4 then fail "Index_serial.of_string: truncated";
  let ks = Array.make m 0 and reqs = Array.make m 0 in
  let dec k = if k < 0 then Index_graph.k_infinite else k in
  for c = 0 to m - 1 do
    next_line ();
    let sp = space !ls in
    match
      if sp >= !le then (None, None)
      else (Serial.int_of_sub s !ls sp, Serial.int_of_sub s (sp + 1) !le)
    with
    | Some k, Some req ->
      ks.(c) <- dec k;
      reqs.(c) <- dec req
    | _ -> fail "Index_serial.of_string: bad class line %d" c
  done;
  Index_graph.of_partition data ~cls ~n_classes:m
    ~k_of_class:(fun c -> ks.(c))
    ~req_of_class:(fun c -> reqs.(c))

(* Write-to-temp + rename: a crash mid-save leaves the previous
   snapshot intact, never a torn file under the final name. *)
let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         let { bytes; off; len } = encode t in
         output oc bytes off len)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Container persistence: the binary counterpart of the text format
   above — the embedded data graph as mappable sections plus the
   partition (dense first-touch class ids, exactly the numbering
   [to_string] uses), per-class k/req, and the index adjacency itself,
   so loading skips both the text parse and the O(data edges) edge
   projection. *)

let container_sections = Container.graph_n_sections + 6

let save_container path t =
  let data = Index_graph.data t in
  let cls, order, of_id = Index_graph.dense_classes t in
  let nc = Array.length order in
  let enc k = if k >= Index_graph.k_infinite then -1 else k in
  let ks = Int_vec.init nc (fun c -> enc (Index_graph.node t order.(c)).Index_graph.k) in
  let rqs =
    Int_vec.init nc (fun c -> enc (Index_graph.node t order.(c)).Index_graph.req)
  in
  let ioff, iarr = Index_graph.dense_children t ~order ~of_id in
  let w = Container.Writer.create path ~kind:Container.Index ~n_sections:container_sections in
  (try
     Container.write_graph_sections w data;
     Container.Writer.int_section w "cls" (Int_vec.of_array cls);
     Container.Writer.int_section w "clsk" ks;
     Container.Writer.int_section w "clsrq" rqs;
     Container.Writer.int_section w "ioff" ioff;
     Container.Writer.int_section w "iarr" iarr;
     Container.Writer.begin_section w "imeta";
     Container.Writer.write_int w nc;
     Container.Writer.write_int w (Int_vec.length iarr);
     Container.Writer.end_section w
   with e ->
     Container.Writer.abort w;
     raise e);
  Container.Writer.finish w

let load_container ?verify path =
  Container.Reader.with_file ?verify ~kind:Container.Index path (fun h ->
      let malformed what = raise (Container.Error (Container.Malformed what)) in
      let data = Container.Reader.graph h in
      let n = Data_graph.n_nodes data in
      let cls_v = Container.Reader.int_vec h "cls" in
      let ks = Container.Reader.int_vec h "clsk" in
      let rqs = Container.Reader.int_vec h "clsrq" in
      let ioff_v = Container.Reader.int_vec h "ioff" in
      let iarr_v = Container.Reader.int_vec h "iarr" in
      let imeta = Container.Reader.int_vec h "imeta" in
      if Int_vec.length imeta < 2 then malformed "imeta";
      let nc = Int_vec.get imeta 0 and im = Int_vec.get imeta 1 in
      if nc < 1 || im < 0 then malformed "imeta counts";
      if Int_vec.length cls_v <> n then malformed "cls length";
      if Int_vec.length ks <> nc || Int_vec.length rqs <> nc then malformed "class table";
      if Int_vec.length ioff_v <> nc + 1 || Int_vec.length iarr_v <> im then
        malformed "index csr shape";
      let cls = Int_vec.to_array cls_v in
      let dec k = if k < 0 then Index_graph.k_infinite else k in
      try
        Index_graph.of_partition_with_edges data ~cls ~n_classes:nc
          ~k_of_class:(fun c -> dec (Int_vec.get ks c))
          ~req_of_class:(fun c -> dec (Int_vec.get rqs c))
          ~children:(ioff_v, iarr_v)
      with Invalid_argument msg -> malformed msg)
