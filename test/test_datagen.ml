open Dkindex_datagen
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Xml_sax = Dkindex_xml.Xml_sax
module Xml_to_graph = Dkindex_xml.Xml_to_graph

(* [graph] feeds the generator's events straight into the builder; the
   tree route collects the same events into a document ([doc]), replays
   it and converts that.  Both must give the same graph, byte for
   byte. *)
let graph_is_tree_route ~config ~doc ~graph =
  let tree : Dkindex_xml.Xml_ast.doc = doc () in
  let via_tree = (Xml_to_graph.convert ~config (Xml_sax.emit_tree tree.root)).graph in
  check_string "Serial.to_string"
    (Dkindex_graph.Serial.to_string via_tree)
    (Dkindex_graph.Serial.to_string (graph ()))

let prng_tests =
  [
    test "same seed, same stream" (fun () ->
        let a = Prng.create ~seed:5 and b = Prng.create ~seed:5 in
        for _ = 1 to 50 do
          check_bool "equal" true (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b))
        done);
    test "different seeds diverge" (fun () ->
        let a = Prng.create ~seed:5 and b = Prng.create ~seed:6 in
        check_bool "diverge" false (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)));
    test "copy forks the stream" (fun () ->
        let a = Prng.create ~seed:5 in
        ignore (Prng.next_int64 a);
        let b = Prng.copy a in
        check_bool "same next" true (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)));
    test "int respects its bound" (fun () ->
        let rng = Prng.create ~seed:1 in
        for _ = 1 to 1000 do
          let v = Prng.int rng 7 in
          check_bool "in range" true (v >= 0 && v < 7)
        done);
    test "int hits every residue" (fun () ->
        let rng = Prng.create ~seed:2 in
        let seen = Array.make 5 false in
        for _ = 1 to 500 do
          seen.(Prng.int rng 5) <- true
        done;
        Array.iteri (fun i s -> check_bool (Printf.sprintf "residue %d" i) true s) seen);
    test "int rejects non-positive bounds" (fun () ->
        let rng = Prng.create ~seed:1 in
        check_bool "raises" true
          (match Prng.int rng 0 with _ -> false | exception Invalid_argument _ -> true));
    test "range is inclusive on both ends" (fun () ->
        let rng = Prng.create ~seed:3 in
        let lo = ref max_int and hi = ref min_int in
        for _ = 1 to 500 do
          let v = Prng.range rng 2 4 in
          if v < !lo then lo := v;
          if v > !hi then hi := v;
          check_bool "bounds" true (v >= 2 && v <= 4)
        done;
        check_int "lo" 2 !lo;
        check_int "hi" 4 !hi);
    test "float stays below its bound" (fun () ->
        let rng = Prng.create ~seed:4 in
        for _ = 1 to 500 do
          let v = Prng.float rng 2.5 in
          check_bool "bounds" true (v >= 0.0 && v < 2.5)
        done);
    test "bool at extremes" (fun () ->
        let rng = Prng.create ~seed:5 in
        for _ = 1 to 100 do
          check_bool "never" false (Prng.bool rng 0.0);
          check_bool "always" true (Prng.bool rng 1.0)
        done);
    test "choose only returns members" (fun () ->
        let rng = Prng.create ~seed:6 in
        for _ = 1 to 100 do
          check_bool "member" true (List.mem (Prng.choose rng [| 1; 2; 3 |]) [ 1; 2; 3 ])
        done);
    test "choose_list rejects empty" (fun () ->
        let rng = Prng.create ~seed:6 in
        check_bool "raises" true
          (match Prng.choose_list rng [] with _ -> false | exception Invalid_argument _ -> true));
    test "shuffle permutes" (fun () ->
        let rng = Prng.create ~seed:7 in
        let arr = Array.init 20 Fun.id in
        Prng.shuffle rng arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        check_bool "permutation" true (sorted = Array.init 20 Fun.id));
    test "geometric respects max" (fun () ->
        let rng = Prng.create ~seed:8 in
        for _ = 1 to 200 do
          check_bool "capped" true (Prng.geometric rng ~p:0.1 ~max:3 <= 3)
        done);
  ]

let contains_label g name = Option.is_some (Label.Pool.find_opt (Data_graph.pool g) name)

let ref_edges_exist g pairs =
  let pool = Data_graph.pool g in
  List.iter
    (fun (src, dst) ->
      match (Label.Pool.find_opt pool src, Label.Pool.find_opt pool dst) with
      | Some ls, Some ld ->
        let found = ref false in
        Data_graph.iter_edges g (fun u v ->
            if Label.equal (Data_graph.label g u) ls && Label.equal (Data_graph.label g v) ld
            then found := true);
        check_bool (Printf.sprintf "%s -> %s edge exists" src dst) true !found
      | _ -> Alcotest.failf "labels %s/%s missing" src dst)
    pairs

(* [Xmark.graph] writes the generator's calls straight into the
   builder; the three other routes go through the XML layer or the
   streaming builder.  All four must give the same [Serial] text, over
   seeds and scales 1-60 (scales 1-3 hit [population]'s clamps).  The
   stream's sorter gets the smallest budget (1024 pairs), so scales
   past ~14 spill runs.  A failure prints its seed and scale. *)
let xmark_routes_agree =
  QCheck.Test.make ~count:60 ~name:"xmark: direct graph = events = parsed XML = stream"
    (QCheck.make
       ~print:(fun (seed, scale) -> Printf.sprintf "seed=%d scale=%d" seed scale)
       QCheck.Gen.(
         pair (int_bound 1_000_000) (frequency [ (1, int_range 1 3); (3, int_range 4 60) ])))
    (fun (seed, scale) ->
      let text g = Dkindex_graph.Serial.to_string g in
      let convert events = text (Xml_to_graph.convert ~config:Xmark.config events).graph in
      let direct = text (Xmark.graph ~seed ~scale ()) in
      let xml = Dkindex_xml.Xml_writer.doc_to_string (Xmark.doc ~seed ~scale ()) in
      let path = Filename.temp_file "xmark" ".dkc" in
      let streamed =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            ignore
              (Xmark.stream ~seed ~scale ~mem_budget:(1 lsl 11)
                 ~tmp_dir:(Filename.dirname path) ~path ());
            text (Dkindex_graph.Container.open_graph ~verify:true path))
      in
      List.iter
        (fun (route, got) ->
          if got <> direct then
            QCheck.Test.fail_reportf "seed %d scale %d: %s differs from Xmark.graph" seed scale
              route)
        [
          ("Xml_to_graph.convert (Xmark.events)", convert (Xmark.events ~seed ~scale));
          ("the parsed Xml_writer rendering", convert (Xml_sax.iter (Xml_sax.of_string xml)));
          ("Xmark.stream, reopened", streamed);
        ];
      true)

let xmark_tests =
  [
    test "deterministic for a fixed seed" (fun () ->
        let a = Xmark.doc ~seed:3 ~scale:5 () and b = Xmark.doc ~seed:3 ~scale:5 () in
        check_bool "equal docs" true (Dkindex_xml.Xml_ast.equal_doc a b));
    test "seed changes the document" (fun () ->
        let a = Xmark.doc ~seed:3 ~scale:5 () and b = Xmark.doc ~seed:4 ~scale:5 () in
        check_bool "different" false (Dkindex_xml.Xml_ast.equal_doc a b));
    test "scale grows the graph" (fun () ->
        let small = Xmark.graph ~seed:1 ~scale:10 () and big = Xmark.graph ~seed:1 ~scale:40 () in
        check_bool "monotone" true (Data_graph.n_nodes big > 2 * Data_graph.n_nodes small));
    test "no unresolved references, fully reachable" (fun () ->
        let result = Xml_to_graph.convert ~config:Xmark.config (Xmark.events ~seed:2 ~scale:20) in
        check_int "unresolved" 0 (List.length result.Dkindex_xml.Xml_to_graph.unresolved_refs);
        check_bool "has references" true (result.Dkindex_xml.Xml_to_graph.n_reference_edges > 0);
        check_int "unreachable" 0
          (Data_graph.stats result.Dkindex_xml.Xml_to_graph.graph).Data_graph.unreachable);
    test "schema labels are present" (fun () ->
        let g = Xmark.graph ~seed:2 ~scale:10 () in
        List.iter
          (fun l -> check_bool l true (contains_label g l))
          [ "site"; "regions"; "item"; "person"; "open_auction"; "closed_auction";
            "category"; "bidder"; "itemref"; "VALUE" ]);
    test "every declared ref pair occurs in the data" (fun () ->
        ref_edges_exist (Xmark.graph ~seed:2 ~scale:30 ()) Xmark.ref_pairs);
    test "graph equals the document tree route" (fun () ->
        graph_is_tree_route ~config:Xmark.config
          ~doc:(Xmark.doc ~seed:2 ~scale:20)
          ~graph:(Xmark.graph ~seed:2 ~scale:20));
    QCheck_alcotest.to_alcotest xmark_routes_agree;
    test "graph allocation budget at scale 40" (fun () ->
        (* The hot-read launch generates scale 40; staying small keeps
           it free of collections before listening.  Measured 68,093
           words (the XML-event route this replaced: 191,493); one
           [Printf.sprintf] per ID and IDREF puts it over.  The full
           major runs the finalisers earlier tests left pending (mapped
           containers), which would otherwise allocate inside the
           window; the minor collection at its end flushes the large
           blocks' words into the counters. *)
        Gc.full_major ();
        let w0 = allocated_words () in
        ignore (Sys.opaque_identity (Xmark.graph ~seed:1 ~scale:40 ()));
        Gc.minor ();
        let words = allocated_words () -. w0 in
        check_bool (Printf.sprintf "%.0f words" words) true (words < 75_000.));
  ]

let nasa_tests =
  [
    test "deterministic for a fixed seed" (fun () ->
        let a = Nasa.doc ~seed:3 ~scale:5 () and b = Nasa.doc ~seed:3 ~scale:5 () in
        check_bool "equal docs" true (Dkindex_xml.Xml_ast.equal_doc a b));
    test "no unresolved references, fully reachable" (fun () ->
        let result = Xml_to_graph.convert ~config:Nasa.config (Nasa.events ~seed:2 ~scale:20) in
        check_int "unresolved" 0 (List.length result.Dkindex_xml.Xml_to_graph.unresolved_refs);
        check_int "unreachable" 0
          (Data_graph.stats result.Dkindex_xml.Xml_to_graph.graph).Data_graph.unreachable);
    test "deeper than XMark (the paper's reason for using it)" (fun () ->
        let x = Data_graph.stats (Xmark.graph ~seed:2 ~scale:30 ()) in
        let n = Data_graph.stats (Nasa.graph ~seed:2 ~scale:30 ()) in
        check_bool "deeper" true (n.Data_graph.max_depth > x.Data_graph.max_depth));
    test "exactly 8 reference kinds declared, all occurring" (fun () ->
        check_int "eight" 8 (List.length Nasa.ref_pairs);
        ref_edges_exist (Nasa.graph ~seed:2 ~scale:40 ()) Nasa.ref_pairs);
    test "schema labels are present" (fun () ->
        let g = Nasa.graph ~seed:2 ~scale:10 () in
        List.iter
          (fun l -> check_bool l true (contains_label g l))
          [ "datasets"; "dataset"; "reference"; "source"; "history"; "tableHead";
            "field"; "definition"; "para" ]);
    test "graph equals the document tree route" (fun () ->
        graph_is_tree_route ~config:Nasa.config
          ~doc:(Nasa.doc ~seed:2 ~scale:20)
          ~graph:(Nasa.graph ~seed:2 ~scale:20));
  ]

let treebank_tests =
  [
    test "deterministic and loadable" (fun () ->
        let a = Treebank.doc ~seed:3 ~scale:5 () and b = Treebank.doc ~seed:3 ~scale:5 () in
        check_bool "equal" true (Dkindex_xml.Xml_ast.equal_doc a b);
        let doc = Treebank.doc ~seed:2 ~scale:20 () in
        let result = Xml_to_graph.convert ~config:Treebank.config (Xml_sax.emit_tree doc.root) in
        check_int "unresolved" 0 (List.length result.Dkindex_xml.Xml_to_graph.unresolved_refs);
        check_int "unreachable" 0
          (Data_graph.stats result.Dkindex_xml.Xml_to_graph.graph).Data_graph.unreachable);
    test "deeper than both XMark and NASA" (fun () ->
        let t = Data_graph.stats (Treebank.graph ~seed:2 ~scale:30 ()) in
        let x = Data_graph.stats (Xmark.graph ~seed:2 ~scale:30 ()) in
        let n = Data_graph.stats (Nasa.graph ~seed:2 ~scale:30 ()) in
        check_bool "deepest" true
          (t.Data_graph.max_depth > x.Data_graph.max_depth
          && t.Data_graph.max_depth > n.Data_graph.max_depth));
    test "grammar labels are present" (fun () ->
        let g = Treebank.graph ~seed:2 ~scale:10 () in
        List.iter
          (fun l -> check_bool l true (contains_label g l))
          [ "S"; "NP"; "VP"; "PP"; "SBAR"; "trace"; "VALUE" ]);
    test "the 1-index compresses poorly (the treebank effect)" (fun () ->
        let g = Treebank.graph ~seed:4 ~scale:50 () in
        let one = Dkindex_baselines.One_index.build g in
        let ratio =
          float_of_int (Dkindex_core.Index_graph.n_nodes one)
          /. float_of_int (Data_graph.n_nodes g)
        in
        (* on XMark this ratio is ~0.1; treebank's diversity keeps it high *)
        check_bool "poor compression" true (ratio > 0.25));
    test "trace references resolve to NP/WHNP" (fun () ->
        let g = Treebank.graph ~seed:5 ~scale:40 () in
        let pool = Data_graph.pool g in
        let trace = Option.get (Dkindex_graph.Label.Pool.find_opt pool "trace") in
        let checked = ref 0 in
        List.iter
          (fun t ->
            Data_graph.iter_children g t (fun target ->
                incr checked;
                check_bool "NP or WHNP" true
                  (List.mem (Data_graph.label_name g target) [ "NP"; "WHNP" ])))
          (Data_graph.nodes_with_label g trace);
        check_bool "some traces exist" true (!checked > 0));
  ]

let random_tests =
  [
    test "graph is fully reachable" (fun () ->
        let g = Random_graph.graph ~seed:3 ~nodes:200 ~n_labels:4 ~extra_edges:50 () in
        check_int "nodes" 200 (Data_graph.n_nodes g);
        check_int "unreachable" 0 (Data_graph.stats g).Data_graph.unreachable);
    test "tree has exactly n-1 edges" (fun () ->
        let g = Random_graph.tree ~seed:3 ~nodes:150 ~n_labels:4 () in
        check_int "edges" 149 (Data_graph.n_edges g));
    test "deterministic" (fun () ->
        let a = Random_graph.graph ~seed:9 ~nodes:100 ~n_labels:3 ~extra_edges:20 () in
        let b = Random_graph.graph ~seed:9 ~nodes:100 ~n_labels:3 ~extra_edges:20 () in
        check_string "same serialization" (Dkindex_graph.Serial.to_string a)
          (Dkindex_graph.Serial.to_string b));
    test "rejects zero nodes" (fun () ->
        check_bool "raises" true
          (match Random_graph.graph ~nodes:0 ~n_labels:1 ~extra_edges:0 () with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "datagen"
    [
      ("prng", prng_tests);
      ("xmark", xmark_tests);
      ("nasa", nasa_tests);
      ("treebank", treebank_tests);
      ("random_graph", random_tests);
    ]
