open Dkindex_graph

let magic_v1 = "dkindex-index 1"
let magic = "dkindex-index 2"

type slice = { bytes : Bytes.t; off : int; len : int }

(* Room for the header (the magic, three counts and a length, at most
   109 bytes) and, in front of it, the [front_room] bytes promised to
   callers. *)
let front_room = 64
let header_room = 128 + front_room

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

(* ------------------------------------------------------------------ *)
(* The compact body: the same content as the text document, as varints
   (index_serial.mli has the layout). *)

let compact_magic = "dkindex-compact 1\n"

(* k and req with infinity as 0 and every finite value one up; a
   negative k, like the text format's -1, reads back as infinity. *)
let enc_k k = if k < 0 || k >= Index_graph.k_infinite then 0 else k + 1
let dec_k k = if k = 0 then Index_graph.k_infinite else k - 1

(* The body's writer: [b] is sized for the whole body before anything
   is written ([encode_compact]'s [bound]), so a write makes no room
   check, and it lives in this module so that the one-byte case
   inlines into the loops.  Seven bits a byte, low group first; the
   high bit marks a byte that is not the last: what
   [Cursor.varint] reads. *)
type writer = { b : Bytes.t; mutable pos : int }

let rec put_long w n =
  if n < 0x80 then begin
    Bytes.set w.b w.pos (Char.unsafe_chr n);
    w.pos <- w.pos + 1
  end
  else begin
    Bytes.set w.b w.pos (Char.unsafe_chr (n land 0x7f lor 0x80));
    w.pos <- w.pos + 1;
    put_long w (n lsr 7)
  end

let put w n =
  if n < 0x80 && n >= 0 then begin
    Bytes.set w.b w.pos (Char.unsafe_chr n);
    w.pos <- w.pos + 1
  end
  else if n < 0 then invalid_arg "Index_serial: negative varint"
  else put_long w n

let put_string w s =
  let len = String.length s in
  put w len;
  Bytes.blit_string s 0 w.b w.pos len;
  w.pos <- w.pos + len

let rec varint_bytes n = if n < 0x80 then 1 else 1 + varint_bytes (n lsr 7)

let encode_compact t =
  let data = Index_graph.data t in
  let cls, order, _ = Index_graph.dense_classes t in
  let n = Data_graph.n_nodes data and m = Data_graph.n_edges data in
  let pool = Data_graph.pool data and nc = Array.length order in
  let values = Data_graph.payloads data and codes = Data_graph.label_codes data in
  let n_labels = Label.Pool.count pool and nv = Payloads.length values in
  (* Room for the whole body: any node id, gap or degree is below [n],
     a label code below [n_labels], a class below [nc]. *)
  let id = varint_bytes n in
  let strings = ref 0 in
  let count s = strings := !strings + varint_bytes (String.length s) + String.length s in
  Label.Pool.fold (fun _ name () -> count name) pool ();
  Payloads.iter values (fun _ p -> count p);
  let bound =
    front_room + String.length compact_magic + 45 + !strings
    + (n * (varint_bytes n_labels + varint_bytes nc))
    + ((n + m + nv) * id) + (nc * 18)
  in
  let w = { b = Bytes.create bound; pos = front_room } in
  Bytes.blit_string compact_magic 0 w.b w.pos (String.length compact_magic);
  w.pos <- w.pos + String.length compact_magic;
  List.iter (put w) [ n; m; nc; n_labels; nv ];
  Label.Pool.fold (fun _ name () -> put_string w name) pool ();
  for u = 0 to n - 1 do
    put w (Int_vec.unsafe_get codes u)
  done;
  (* Serial's canonical order: each node's CSR run, read in place while
     the graph is flat; with pending updates, the run with its overflow
     additions merged in and its tombstones skipped, gathered into
     [run] first because the degree goes in front.  A run is its
     degree, its first id, then each gap to the next id less one. *)
  (match Data_graph.overflow data with
  | 0, 0 ->
    let off, arr = Data_graph.csr_children data in
    for u = 0 to n - 1 do
      let lo = Int_vec.unsafe_get off u and hi = Int_vec.unsafe_get off (u + 1) in
      put w (hi - lo);
      let prev = ref (-1) in
      for i = lo to hi - 1 do
        let v = Int_vec.unsafe_get arr i in
        put w (v - !prev - 1);
        prev := v
      done
    done
  | _ ->
    let run = ref (Array.make 64 0) and len = ref 0 in
    let push v =
      if !len = Array.length !run then begin
        let a = Array.make (2 * !len) 0 in
        Array.blit !run 0 a 0 !len;
        run := a
      end;
      Array.unsafe_set !run !len v;
      incr len
    in
    for u = 0 to n - 1 do
      len := 0;
      Data_graph.iter_children_sorted data u push;
      put w !len;
      let prev = ref (-1) in
      for i = 0 to !len - 1 do
        let v = Array.unsafe_get !run i in
        put w (v - !prev - 1);
        prev := v
      done
    done);
  let prev = ref (-1) in
  Payloads.iter values (fun u p ->
      put w (u - !prev - 1);
      prev := u;
      put_string w p);
  Array.iter (put w) cls;
  Array.iter
    (fun id ->
      let nd = Index_graph.node t id in
      put w (enc_k nd.Index_graph.k);
      put w (enc_k nd.Index_graph.req))
    order;
  { bytes = w.b; off = front_room; len = w.pos - front_room }

(* A body [decode] found the magic at the start of. *)
let of_compact s =
  let fail fmt = Printf.ksprintf failwith ("Index_serial.of_compact: " ^^ fmt) in
  let ml = String.length compact_magic in
  let c = Cursor.make s ~pos:ml ~len:(String.length s - ml) in
  try
    let n = Cursor.varint c in
    let m = Cursor.varint c in
    let nc = Cursor.varint c in
    let n_labels = Cursor.varint c in
    let nv = Cursor.varint c in
    (* Every node takes at least three bytes (label code, degree,
       class), every edge one, every label one, every payload two and
       every class two: declared counts that what is left cannot hold
       are refused before anything is allocated for them. *)
    List.iter
      (fun (count, bytes) -> Cursor.check_count c count ~min_item_bytes:bytes)
      [ (n, 3); (m, 1); (nc, 2); (n_labels, 1); (nv, 2) ];
    Cursor.check_count c ((3 * n) + m + (2 * nc) + n_labels + (2 * nv)) ~min_item_bytes:1;
    if n = 0 then fail "no nodes";
    if nc = 0 then fail "no classes";
    let pool = Label.Pool.create () in
    for code = 0 to n_labels - 1 do
      let name = Cursor.sub c (Cursor.varint c) in
      if Label.to_int (Label.Pool.intern pool name) <> code then fail "label %S repeated" name
    done;
    let codes = Int_vec.create n in
    for u = 0 to n - 1 do
      let code = Cursor.varint c in
      if code >= n_labels then fail "label code %d of node %d out of range" code u;
      Int_vec.unsafe_set codes u code
    done;
    let off = Int_vec.create (n + 1) and arr = Int_vec.create m in
    let k = ref 0 in
    Int_vec.unsafe_set off 0 0;
    for u = 0 to n - 1 do
      let d = Cursor.varint c in
      if d > m - !k then fail "node %d: more edges than declared" u;
      let prev = ref (-1) in
      for _ = 1 to d do
        let gap = Cursor.varint c in
        if gap >= n - !prev - 1 then fail "node %d: child out of range" u;
        prev := !prev + gap + 1;
        Int_vec.unsafe_set arr !k !prev;
        incr k
      done;
      Int_vec.unsafe_set off (u + 1) !k
    done;
    if !k <> m then fail "declared %d edges, runs hold %d" m !k;
    let vnodes = Array.make nv 0 and texts = Array.make nv "" in
    let prev = ref (-1) in
    for i = 0 to nv - 1 do
      let gap = Cursor.varint c in
      if gap >= n - !prev - 1 then fail "payload node out of range";
      prev := !prev + gap + 1;
      vnodes.(i) <- !prev;
      texts.(i) <- Cursor.sub c (Cursor.varint c)
    done;
    let cls = Array.make n 0 in
    for u = 0 to n - 1 do
      let cl = Cursor.varint c in
      if cl >= nc then fail "class %d of node %d out of range" cl u;
      Array.unsafe_set cls u cl
    done;
    let ks = Array.make nc 0 and reqs = Array.make nc 0 in
    for cl = 0 to nc - 1 do
      ks.(cl) <- dec_k (Cursor.varint c);
      reqs.(cl) <- dec_k (Cursor.varint c)
    done;
    Cursor.expect_end c "body";
    let data =
      Data_graph.of_children ~values:(Payloads.of_arrays vnodes texts) ~pool ~label_codes:codes
        (off, arr)
    in
    Index_graph.of_partition data ~cls ~n_classes:nc
      ~k_of_class:(fun cl -> ks.(cl))
      ~req_of_class:(fun cl -> reqs.(cl))
  with Cursor.Bad msg | Invalid_argument msg -> fail "%s" msg

let decode s =
  if String.starts_with ~prefix:compact_magic s then of_compact s else of_string s

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
    (fun () -> decode (really_input_string ic (in_channel_length ic)))

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
