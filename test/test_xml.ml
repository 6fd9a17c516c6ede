open Dkindex_xml
open Testlib

let parse = Xml_sax.parse_string

let root_of s = (parse s).Xml_ast.root

(* The parser's events streamed straight into the graph builder. *)
let load ?config src = Xml_to_graph.convert ?config (Xml_sax.iter (Xml_sax.of_string src))

let parser_tests =
  [
    test "simple element" (fun () ->
        let el = root_of "<a/>" in
        check_string "tag" "a" el.Xml_ast.tag;
        check_int "children" 0 (List.length el.Xml_ast.children));
    test "nested elements" (fun () ->
        let el = root_of "<a><b><c/></b></a>" in
        match el.Xml_ast.children with
        | [ Xml_ast.Element b ] ->
          check_string "b" "b" b.Xml_ast.tag;
          check_int "c inside" 1 (List.length b.Xml_ast.children)
        | _ -> Alcotest.fail "bad shape");
    test "attributes in both quote styles" (fun () ->
        let el = root_of {|<a x="1" y='2'/>|} in
        check_string "x" "1" (Option.get (Xml_ast.attr_opt el "x"));
        check_string "y" "2" (Option.get (Xml_ast.attr_opt el "y")));
    test "attribute entity decoding" (fun () ->
        let el = root_of {|<a t="x &amp; &lt;y&gt; &quot;z&quot;"/>|} in
        check_string "decoded" {|x & <y> "z"|} (Option.get (Xml_ast.attr_opt el "t")));
    test "text content with entities" (fun () ->
        match (root_of "<a>1 &amp; 2 &#65; &#x42;</a>").Xml_ast.children with
        | [ Xml_ast.Text t ] -> check_string "text" "1 & 2 A B" t
        | _ -> Alcotest.fail "expected text");
    test "whitespace-only text is dropped" (fun () ->
        let el = root_of "<a>\n  <b/>\n  <c/>\n</a>" in
        check_int "only elements" 2 (List.length el.Xml_ast.children));
    test "mixed content is preserved" (fun () ->
        match (root_of "<a>x<b/>y</a>").Xml_ast.children with
        | [ Xml_ast.Text "x"; Xml_ast.Element _; Xml_ast.Text "y" ] -> ()
        | _ -> Alcotest.fail "bad mixed content");
    test "CDATA is literal text" (fun () ->
        match (root_of "<a><![CDATA[<not-xml> & raw]]></a>").Xml_ast.children with
        | [ Xml_ast.Text t ] -> check_string "cdata" "<not-xml> & raw" t
        | _ -> Alcotest.fail "expected text");
    test "comments are skipped everywhere" (fun () ->
        let el = root_of "<!-- top --><a><!-- in --><b/><!-- tail --></a>" in
        check_int "children" 1 (List.length el.Xml_ast.children));
    test "processing instructions are skipped" (fun () ->
        let el = root_of "<?xml version=\"1.0\"?><a><?pi data?><b/></a>" in
        check_int "children" 1 (List.length el.Xml_ast.children));
    test "DOCTYPE with internal subset is skipped" (fun () ->
        let el = root_of "<!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b/></a>" in
        check_string "tag" "a" el.Xml_ast.tag);
    test "mismatched closing tag is an error" (fun () ->
        check_bool "raises" true
          (match parse "<a><b></a></b>" with
          | _ -> false
          | exception Xml_sax.Parse_error _ -> true));
    test "unterminated element is an error" (fun () ->
        check_bool "raises" true
          (match parse "<a><b>" with
          | _ -> false
          | exception Xml_sax.Parse_error _ -> true));
    test "trailing content is an error" (fun () ->
        check_bool "raises" true
          (match parse "<a/><b/>" with
          | _ -> false
          | exception Xml_sax.Parse_error _ -> true));
    test "unknown entity is an error" (fun () ->
        check_bool "raises" true
          (match parse "<a>&nope;</a>" with
          | _ -> false
          | exception Xml_sax.Parse_error _ -> true));
    test "error carries a line number" (fun () ->
        match parse "<a>\n<b>\n</c>\n</a>" with
        | _ -> Alcotest.fail "should fail"
        | exception Xml_sax.Parse_error { line; _ } -> check_bool "line >= 3" true (line >= 3));
    test "names can contain colon dash dot digits" (fun () ->
        let el = root_of "<ns:a-b.c2/>" in
        check_string "tag" "ns:a-b.c2" el.Xml_ast.tag);
  ]

let writer_tests =
  [
    test "writer escapes text and attributes" (fun () ->
        let doc =
          { Xml_ast.root = Xml_ast.element ~attrs:[ ("t", "a<b\"") ] "x" [ Xml_ast.text "1 & 2 <3" ] }
        in
        let s = Xml_writer.doc_to_string doc in
        check_bool "escaped amp" true
          (let rec find i needle =
             i + String.length needle <= String.length s
             && (String.sub s i (String.length needle) = needle || find (i + 1) needle)
           in
           find 0 "1 &amp; 2 &lt;3" && find 0 "a&lt;b&quot;"));
    test "round trip: handcrafted document" (fun () ->
        let doc =
          {
            Xml_ast.root =
              Xml_ast.element ~attrs:[ ("id", "r1") ] "r"
                [
                  Xml_ast.Element (Xml_ast.element "a" [ Xml_ast.text "hello & goodbye" ]);
                  Xml_ast.Element (Xml_ast.element ~attrs:[ ("ref", "r1") ] "b" []);
                ];
          }
        in
        let doc' = Xml_sax.parse_string (Xml_writer.doc_to_string doc) in
        check_bool "equal" true (Xml_ast.equal_doc doc doc'));
    test "round trip: generated XMark document" (fun () ->
        let doc = Dkindex_datagen.Xmark.doc ~seed:9 ~scale:5 () in
        let doc' = Xml_sax.parse_string (Xml_writer.doc_to_string doc) in
        check_int "elements" (Xml_ast.n_elements doc) (Xml_ast.n_elements doc');
        check_bool "equal" true (Xml_ast.equal_doc doc doc'));
    test "round trip: generated NASA document" (fun () ->
        let doc = Dkindex_datagen.Nasa.doc ~seed:9 ~scale:5 () in
        let doc' = Xml_sax.parse_string (Xml_writer.doc_to_string doc) in
        check_bool "equal" true (Xml_ast.equal_doc doc doc'));
    test "compact mode also round trips" (fun () ->
        let doc = Dkindex_datagen.Xmark.doc ~seed:10 ~scale:3 () in
        let doc' = Xml_sax.parse_string (Xml_writer.doc_to_string ~indent:false doc) in
        check_bool "equal" true (Xml_ast.equal_doc doc doc'));
  ]

let escape_tests =
  [
    test "escape_text leaves quotes alone" (fun () ->
        check_string "text" "a&lt;b&gt;c&amp;d\"e'f" (Xml_writer.escape_text "a<b>c&d\"e'f"));
    test "escape_attr escapes quotes" (fun () ->
        check_string "attr" "&quot;x&apos;" (Xml_writer.escape_attr "\"x'"));
  ]

let ast_tests =
  [
    test "n_elements counts the root" (fun () ->
        check_int "count" 3 (Xml_ast.n_elements (parse "<a><b/><c/></a>")));
    test "iter_elements is pre-order" (fun () ->
        let doc = parse "<a><b><c/></b><d/></a>" in
        let tags = ref [] in
        Xml_ast.iter_elements doc (fun el -> tags := el.Xml_ast.tag :: !tags);
        check_string_list "order" [ "a"; "b"; "c"; "d" ] (List.rev !tags));
    test "attr_opt returns the first match" (fun () ->
        let el = root_of {|<a k="1"/>|} in
        check_bool "missing" true (Option.is_none (Xml_ast.attr_opt el "nope")));
  ]

let to_graph_tests =
  let module G = Dkindex_graph.Data_graph in
  [
    test "elements become labeled nodes under ROOT" (fun () ->
        let g = (load "<a><b/><b/></a>").Xml_to_graph.graph in
        check_int "nodes: ROOT a b b" 4 (G.n_nodes g);
        check_string "root" "ROOT" (G.label_name g 0);
        check_string "doc root" "a" (G.label_name g 1));
    test "text becomes VALUE leaves" (fun () ->
        let g = (load "<a>hi<b>there</b></a>").Xml_to_graph.graph in
        let values =
          G.fold_nodes g ~init:0 ~f:(fun acc u ->
              if String.equal (G.label_name g u) "VALUE" then acc + 1 else acc)
        in
        check_int "values" 2 values);
    test "plain attributes become name + VALUE nodes" (fun () ->
        let g = (load {|<a size="3"/>|}).Xml_to_graph.graph in
        (* ROOT, a, size, VALUE *)
        check_int "nodes" 4 (G.n_nodes g);
        let size =
          G.fold_nodes g ~init:(-1) ~f:(fun acc u ->
              if String.equal (G.label_name g u) "size" then u else acc)
        in
        check_bool "size exists" true (size >= 0);
        check_int "value child" 1 (G.out_degree g size));
    test "id attributes register, not materialize" (fun () ->
        let g = (load {|<a id="x"/>|}).Xml_to_graph.graph in
        check_int "nodes: ROOT a" 2 (G.n_nodes g));
    test "idref creates a reference edge" (fun () ->
        let result = load {|<a><b id="t"/><c ref="t"/></a>|} in
        let g = result.Xml_to_graph.graph in
        check_int "ref edges" 1 result.Xml_to_graph.n_reference_edges;
        let find l =
          G.fold_nodes g ~init:(-1) ~f:(fun acc u ->
              if String.equal (G.label_name g u) l then u else acc)
        in
        check_bool "c -> b" true (G.has_edge g (find "c") (find "b")));
    test "IDREFS values split on spaces" (fun () ->
        let result = load {|<a><b id="t1"/><b id="t2"/><c ref="t1 t2"/></a>|} in
        check_int "two edges" 2 result.Xml_to_graph.n_reference_edges);
    test "unresolved references are reported" (fun () ->
        let result = load {|<a><c ref="ghost"/></a>|} in
        check_string_list "unresolved" [ "ghost" ] result.Xml_to_graph.unresolved_refs;
        check_int "no edge" 0 result.Xml_to_graph.n_reference_edges);
    test "custom config renames id/idref attributes" (fun () ->
        let config = { Xml_to_graph.id_attrs = [ "key" ]; idref_attrs = [ "to" ] } in
        let result = load ~config {|<a><b key="k"/><c to="k"/></a>|} in
        check_int "edge" 1 result.Xml_to_graph.n_reference_edges);
    test "default idref names are not special under custom config" (fun () ->
        let config = { Xml_to_graph.id_attrs = [ "id" ]; idref_attrs = [ "to" ] } in
        let result = load ~config {|<a><b id="k"/><c ref="k"/></a>|} in
        (* ref becomes an ordinary attribute: a node + VALUE. *)
        check_int "no ref edge" 0 result.Xml_to_graph.n_reference_edges;
        check_int "nodes: ROOT a b c ref VALUE" 6 (G.n_nodes result.Xml_to_graph.graph));
    test "whole graph stays reachable from ROOT" (fun () ->
        let g = (Xml_to_graph.convert ~config:Dkindex_datagen.Xmark.config
                   (Dkindex_datagen.Xmark.events ~seed:5 ~scale:10)).graph in
        check_int "unreachable" 0 (G.stats g).G.unreachable);
  ]

let sax_events src =
  let events = ref [] in
  Xml_sax.iter (Xml_sax.of_string src) (fun e -> events := e :: !events);
  List.rev !events

let count_events ?(keep = fun _ -> true) stream =
  let n = ref 0 in
  Xml_sax.iter stream (fun e -> if keep e then incr n);
  !n

let sax_tests =
  [
    test "event stream of a small document" (fun () ->
        match sax_events "<a x=\"1\"><b>hi</b><c/></a>" with
        | [
            Xml_sax.Start_element { tag = "a"; attrs = [ { Xml_ast.name = "x"; value = "1" } ] };
            Xml_sax.Start_element { tag = "b"; attrs = [] };
            Xml_sax.Text "hi";
            Xml_sax.End_element "b";
            Xml_sax.Start_element { tag = "c"; attrs = [] };
            Xml_sax.End_element "c";
            Xml_sax.End_element "a";
          ] -> ()
        | events -> Alcotest.failf "unexpected events (%d)" (List.length events));
    test "prolog, comments and PIs are skipped" (fun () ->
        let events =
          sax_events "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a (b)>]><!-- c --><a><?pi?><b/></a>"
        in
        check_int "events" 4 (List.length events));
    test "entities and CDATA in the stream" (fun () ->
        match sax_events "<a>1 &amp; 2<![CDATA[<raw>]]></a>" with
        | [ _; Xml_sax.Text "1 & 2"; Xml_sax.Text "<raw>"; _ ] -> ()
        | _ -> Alcotest.fail "bad events");
    test "mismatched tags fail" (fun () ->
        check_bool "raises" true
          (match sax_events "<a><b></a></b>" with
          | _ -> false
          | exception Xml_sax.Parse_error _ -> true));
    test "unclosed element fails" (fun () ->
        check_bool "raises" true
          (match sax_events "<a><b>" with
          | _ -> false
          | exception Xml_sax.Parse_error _ -> true));
    test "trailing content fails" (fun () ->
        check_bool "raises" true
          (match sax_events "<a/><b/>" with
          | _ -> false
          | exception Xml_sax.Parse_error _ -> true));
    test "tiny buffer forces refills across every construct" (fun () ->
        let doc = Dkindex_datagen.Xmark.doc ~seed:13 ~scale:3 () in
        let text = Xml_writer.doc_to_string doc in
        let path = Filename.temp_file "dkindex" ".xml" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () ->
                let stream = Xml_sax.of_channel ~buffer_size:64 ic in
                let from_chan = count_events stream in
                let from_string = count_events (Xml_sax.of_string text) in
                check_int "same event count" from_string from_chan)));
    test "tokens larger than the buffer force growth, not failure" (fun () ->
        let big = String.make 1000 'x' in
        let text = Printf.sprintf {|<a attr="%s"><b>%s</b></a>|} big big in
        let path = Filename.temp_file "dkindex" ".xml" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () ->
                let stream = Xml_sax.of_channel ~buffer_size:64 ic in
                let texts = ref [] in
                Xml_sax.iter stream (fun e ->
                    match e with
                    | Xml_sax.Text t -> texts := t :: !texts
                    | Xml_sax.Start_element { attrs = [ { Xml_ast.value; _ } ]; _ } ->
                      check_int "attr intact" 1000 (String.length value)
                    | _ -> ());
                check_int "text intact" 1000 (String.length (List.hd !texts)))));
    test "event counts match the DOM" (fun () ->
        let doc = Dkindex_datagen.Nasa.doc ~seed:14 ~scale:3 () in
        let text = Xml_writer.doc_to_string doc in
        let starts =
          count_events (Xml_sax.of_string text) ~keep:(function
            | Xml_sax.Start_element _ -> true
            | _ -> false)
        in
        check_int "elements" (Xml_ast.n_elements doc) starts);
    test "streaming loader builds the identical graph" (fun () ->
        let doc = Dkindex_datagen.Xmark.doc ~seed:15 ~scale:5 () in
        let text = Xml_writer.doc_to_string doc in
        let config = Dkindex_datagen.Xmark.config in
        let via_dom = Xml_to_graph.convert ~config (Xml_sax.emit_tree doc.root) in
        let via_sax = Xml_to_graph.convert ~config (Xml_sax.iter (Xml_sax.of_string text)) in
        let module G = Dkindex_graph.Data_graph in
        check_int "ref edges" via_dom.Xml_to_graph.n_reference_edges
          via_sax.Xml_to_graph.n_reference_edges;
        check_string "identical serialization"
          (Dkindex_graph.Serial.to_string via_dom.Xml_to_graph.graph)
          (Dkindex_graph.Serial.to_string via_sax.Xml_to_graph.graph));
    test "convert_file streams from disk" (fun () ->
        let doc = Dkindex_datagen.Nasa.doc ~seed:16 ~scale:4 () in
        let path = Filename.temp_file "dkindex" ".xml" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Xml_writer.write_file path doc;
            let config = Dkindex_datagen.Nasa.config in
            let streamed = Xml_to_graph.convert_file ~config path in
            let tree = Xml_sax.parse_file path in
            let dom = Xml_to_graph.convert ~config (Xml_sax.emit_tree tree.root) in
            check_string "identical"
              (Dkindex_graph.Serial.to_string dom.Xml_to_graph.graph)
              (Dkindex_graph.Serial.to_string streamed.Xml_to_graph.graph)));
  ]

let () =
  Alcotest.run "xml"
    [
      ("parser", parser_tests);
      ("writer", writer_tests);
      ("escape", escape_tests);
      ("ast", ast_tests);
      ("to_graph", to_graph_tests);
      ("sax", sax_tests);
    ]
