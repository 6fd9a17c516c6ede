(* Reference implementations the production codecs are checked
   against: the Buffer-based text encoders, the line-splitting text
   decoders and the byte-at-a-time CRC-32 that lib/ replaced with
   single-pass versions.  They define what the fast versions must
   write, accept, reject and compute. *)

open Dkindex_graph
open Dkindex_core

let magic = "dkindex-graph 1"
let magic_v2 = "dkindex-graph 2"

(* ----------------------------------------------------------------- *)
(* Encoders: one line at a time into a Buffer, payloads looked up node
   by node, the index header copied in front of the body at the end. *)

let escape_value buf s =
  String.iter
    (function
      | '\n' -> Buffer.add_string buf "%0A"
      | '\r' -> Buffer.add_string buf "%0D"
      | '%' -> Buffer.add_string buf "%25"
      | c -> Buffer.add_char buf c)
    s

let add_int buf n = Buffer.add_string buf (string_of_int n)

let serial_write buf g =
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
      escape_value buf payload;
      Buffer.add_char buf '\n'
    | None -> ()
  done

let serial_to_string g =
  let buf = Buffer.create 1024 in
  serial_write buf g;
  Buffer.contents buf

let index_to_string t =
  let data = Index_graph.data t in
  let cls, order, _ = Index_graph.dense_classes t in
  let enc k = if k >= Index_graph.k_infinite then -1 else k in
  let body = Buffer.create 1024 in
  serial_write body data;
  let graph_len = Buffer.length body in
  Buffer.add_string body "cls\n";
  Array.iter
    (fun c ->
      add_int body c;
      Buffer.add_char body '\n')
    cls;
  Buffer.add_string body "classes ";
  add_int body (Array.length order);
  Buffer.add_char body '\n';
  Array.iter
    (fun id ->
      let nd = Index_graph.node t id in
      add_int body (enc nd.Index_graph.k);
      Buffer.add_char body ' ';
      add_int body (enc nd.Index_graph.req);
      Buffer.add_char body '\n')
    order;
  Printf.sprintf "dkindex-index 2\ncounts %d %d %d\ngraph %d\n%s" (Data_graph.n_nodes data)
    (Data_graph.n_edges data) (Array.length order) graph_len (Buffer.contents body)

(* ----------------------------------------------------------------- *)
(* Decoders *)

let unescape_value s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    if Char.equal s.[!i] '%' && !i + 2 < n then begin
      (match String.sub s (!i + 1) 2 with
      | "0A" -> Buffer.add_char buf '\n'
      | "0D" -> Buffer.add_char buf '\r'
      | "25" -> Buffer.add_char buf '%'
      | other -> Buffer.add_string buf ("%" ^ other));
      i := !i + 3
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let serial_of_string s =
  let lines = String.split_on_char '\n' s in
  let fail fmt = Printf.ksprintf failwith fmt in
  let version = ref 2 in
  let expect_header rest =
    match rest with
    | first :: rest when String.equal first magic_v2 -> rest
    | first :: rest when String.equal first magic ->
      version := 1;
      rest
    | _ -> fail "Serial.of_string: bad magic"
  in
  let parse_count keyword line =
    match String.split_on_char ' ' line with
    | [ kw; n ] when String.equal kw keyword -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> n
      | _ -> fail "Serial.of_string: bad %s count" keyword)
    | _ -> fail "Serial.of_string: expected '%s <count>'" keyword
  in
  match expect_header lines with
  | [] -> fail "Serial.of_string: truncated"
  | count_line :: rest ->
    let n = parse_count "nodes" count_line in
    let pool = Label.Pool.create () in
    let labels = Array.make (max n 1) (Label.of_int 0) in
    let rec read_labels i rest =
      if i >= n then rest
      else
        match rest with
        | name :: rest ->
          labels.(i) <- Label.Pool.intern pool name;
          read_labels (i + 1) rest
        | [] -> fail "Serial.of_string: truncated labels"
    in
    let rest = read_labels 0 rest in
    (match rest with
    | [] -> fail "Serial.of_string: missing edges"
    | edge_line :: rest ->
      let m = parse_count "edges" edge_line in
      let edges = ref [] in
      let rec read_edges i rest =
        if i >= m then rest
        else
          match rest with
          | line :: rest -> (
            match String.split_on_char ' ' line with
            | [ u; v ] -> (
              match (int_of_string_opt u, int_of_string_opt v) with
              | Some u, Some v ->
                edges := (u, v) :: !edges;
                read_edges (i + 1) rest
              | _ -> fail "Serial.of_string: bad edge")
            | _ -> fail "Serial.of_string: bad edge line")
          | [] -> fail "Serial.of_string: truncated edges"
      in
      let rest = read_edges 0 rest in
      if n = 0 then fail "Serial.of_string: empty graph";
      let values = ref [] in
      (if !version >= 2 then
         match rest with
         | [] -> fail "Serial.of_string: missing values section"
         | values_line :: rest ->
           let nv = parse_count "values" values_line in
           let rec read_values i rest =
             if i >= nv then ()
             else
               match rest with
               | line :: rest -> (
                 match String.index_opt line ' ' with
                 | Some sp -> (
                   match int_of_string_opt (String.sub line 0 sp) with
                   | Some u ->
                     values :=
                       (u, unescape_value (String.sub line (sp + 1) (String.length line - sp - 1)))
                       :: !values;
                     read_values (i + 1) rest
                   | None -> fail "Serial.of_string: bad value line")
                 | None -> fail "Serial.of_string: bad value line")
               | [] -> fail "Serial.of_string: truncated values"
           in
           read_values 0 rest);
      (* [values] is newest first; [make] keeps the first entry per
         node, so the first line for a node wins. *)
      Data_graph.make ~values:(List.rev !values) ~pool ~labels:(Array.sub labels 0 n)
        ~edges:!edges ())

let index_magic_v1 = "dkindex-index 1"
let index_magic = "dkindex-index 2"

let index_of_string s =
  let fail fmt = Printf.ksprintf failwith fmt in
  let len = String.length s in
  let line_end pos = match String.index_from_opt s pos '\n' with
    | Some i -> i
    | None -> fail "Index_serial.of_string: truncated"
  in
  let read_line pos =
    let e = line_end pos in
    (String.sub s pos (e - pos), e + 1)
  in
  let header, pos = read_line 0 in
  let version =
    if String.equal header index_magic then 2
    else if String.equal header index_magic_v1 then 1
    else fail "Index_serial.of_string: bad magic"
  in
  (* v2 declares the shape up front; the declaration is checked against
     what the body actually decodes to, so a snapshot whose graph or
     partition was truncated or spliced is rejected even when each part
     parses on its own. *)
  let declared, pos =
    if version = 1 then (None, pos)
    else
      let counts_line, pos = read_line pos in
      match String.split_on_char ' ' counts_line with
      | [ "counts"; a; b; c ] -> (
        match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
        | Some a, Some b, Some c when a >= 0 && b >= 0 && c >= 0 -> (Some (a, b, c), pos)
        | _ -> fail "Index_serial.of_string: bad counts line")
      | _ -> fail "Index_serial.of_string: expected 'counts <nodes> <edges> <classes>'"
  in
  let graph_line, pos = read_line pos in
  let graph_len =
    match String.split_on_char ' ' graph_line with
    | [ "graph"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 && pos + n <= len -> n
      | _ -> fail "Index_serial.of_string: bad graph length")
    | _ -> fail "Index_serial.of_string: expected 'graph <len>'"
  in
  let data = serial_of_string (String.sub s pos graph_len) in
  let pos = pos + graph_len in
  let marker, pos = read_line pos in
  if not (String.equal marker "cls") then fail "Index_serial.of_string: expected 'cls'";
  let n = Data_graph.n_nodes data in
  let cls = Array.make n 0 in
  let pos = ref pos in
  for u = 0 to n - 1 do
    let line, next = read_line !pos in
    (match int_of_string_opt line with
    | Some c when c >= 0 -> cls.(u) <- c
    | _ -> fail "Index_serial.of_string: bad class for node %d" u);
    pos := next
  done;
  let classes_line, next = read_line !pos in
  pos := next;
  let m =
    match String.split_on_char ' ' classes_line with
    | [ "classes"; m ] -> (
      match int_of_string_opt m with
      | Some m when m > 0 -> m
      | _ -> fail "Index_serial.of_string: bad class count")
    | _ -> fail "Index_serial.of_string: expected 'classes <m>'"
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
  let ks = Array.make m 0 and reqs = Array.make m 0 in
  for c = 0 to m - 1 do
    let line, next = read_line !pos in
    (match String.split_on_char ' ' line with
    | [ k; req ] -> (
      match (int_of_string_opt k, int_of_string_opt req) with
      | Some k, Some req ->
        ks.(c) <- (if k < 0 then Index_graph.k_infinite else k);
        reqs.(c) <- (if req < 0 then Index_graph.k_infinite else req)
      | _ -> fail "Index_serial.of_string: bad class line %d" c)
    | _ -> fail "Index_serial.of_string: bad class line %d" c);
    pos := next
  done;
  Index_graph.of_partition data ~cls ~n_classes:m
    ~k_of_class:(fun c -> ks.(c))
    ~req_of_class:(fun c -> reqs.(c))

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), one table
   lookup per byte. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s off len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
