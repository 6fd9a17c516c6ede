(* Tree patterns (branching path queries), the F&B-index, and pattern
   evaluation through indexes. *)
open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Tree_pattern = Dkindex_pathexpr.Tree_pattern
module Cost = Dkindex_pathexpr.Cost
module B = Dkindex_graph.Builder

let eval_data g src =
  let pattern = Tree_pattern.parse src in
  Tree_pattern.eval (Tree_pattern.data_view g ~cost:(Cost.create ())) pattern

let parser_tests =
  [
    test "single rooted step" (fun () ->
        let p = Tree_pattern.parse "/a" in
        check_int "one step" 1 (List.length p.Tree_pattern.steps);
        check_string "round trip" "/a" (Tree_pattern.to_string p));
    test "descendant axis" (fun () ->
        check_string "round trip" "//a/b//c" (Tree_pattern.to_string (Tree_pattern.parse "//a/b//c")));
    test "predicates parse and print" (fun () ->
        check_string "round trip" "//movie[./actor][.//name]/title"
          (Tree_pattern.to_string (Tree_pattern.parse "//movie[./actor][.//name]/title")));
    test "predicate chains fold into nested predicates" (fun () ->
        let p = Tree_pattern.parse "//a[b/c]" in
        match p.Tree_pattern.steps with
        | [ (_, { Tree_pattern.preds = [ (Tree_pattern.Child, b) ]; _ }) ] ->
          check_string "b" "b" (Option.get b.Tree_pattern.label);
          check_int "c nested" 1 (List.length b.Tree_pattern.preds)
        | _ -> Alcotest.fail "bad shape");
    test "wildcard steps" (fun () ->
        let p = Tree_pattern.parse "//*/a" in
        match p.Tree_pattern.steps with
        | (_, { Tree_pattern.label = None; _ }) :: _ -> ()
        | _ -> Alcotest.fail "expected wildcard");
    test "missing leading axis fails" (fun () ->
        check_bool "raises" true
          (match Tree_pattern.parse "a/b" with
          | _ -> false
          | exception Tree_pattern.Parse_error _ -> true));
    test "unclosed predicate fails" (fun () ->
        check_bool "raises" true
          (match Tree_pattern.parse "//a[b" with
          | _ -> false
          | exception Tree_pattern.Parse_error _ -> true));
    test "trailing garbage fails" (fun () ->
        check_bool "raises" true
          (match Tree_pattern.parse "//a]" with
          | _ -> false
          | exception Tree_pattern.Parse_error _ -> true));
  ]

let eval_tests =
  [
    test "child vs descendant from the root" (fun () ->
        let m = movie_graph () in
        (* movieDB is a child of ROOT; title is deeper. *)
        check_bool "child finds movieDB" true (eval_data m.g "/movieDB" = [ m.movie_db ]);
        check_int_list "descendant finds all titles"
          (List.sort compare [ m.title1; m.title2; m.title3 ])
          (eval_data m.g "//title"));
    test "main path navigation" (fun () ->
        let m = movie_graph () in
        check_int_list "director movies" (List.sort compare [ m.movie1; m.movie2 ])
          (eval_data m.g "//director/movie");
        check_int_list "their titles" (List.sort compare [ m.title1; m.title2 ])
          (eval_data m.g "//director/movie/title"));
    test "predicates filter the main path" (fun () ->
        let m = movie_graph () in
        (* movies with an actor credit: movie1 and movie3 *)
        check_int_list "with actor child" (List.sort compare [ m.movie1; m.movie3 ])
          (eval_data m.g "//movie[./actor]");
        (* titles of movies that have an actor credit AND a director parent *)
        check_int_list "branching" [ m.title1 ] (eval_data m.g "//director/movie[./actor]/title"));
    test "descendant predicate" (fun () ->
        let m = movie_graph () in
        check_int_list "movie with some name below" (List.sort compare [ m.movie1; m.movie3 ])
          (eval_data m.g "//movie[.//name]"));
    test "empty result" (fun () ->
        let m = movie_graph () in
        check_int_list "no such" [] (eval_data m.g "//director[./ghost]"));
    test "cycles terminate" (fun () ->
        let g, a, _, c = cyclic_graph () in
        check_bool "a matched" true (List.mem a (eval_data g "//b/a"));
        check_int_list "c below a twice" [ c ] (eval_data g "//a//c"));
    test "wildcard main path step" (fun () ->
        let m = movie_graph () in
        check_int_list "any grandchild titles"
          (List.sort compare [ m.title1; m.title2; m.title3 ])
          (eval_data m.g "//*/title"));
  ]

let fb_tests =
  [
    test "F&B refines the 1-index" (fun () ->
        let g = random_graph ~seed:251 ~nodes:150 in
        let fb = Fb_index.build g and one = One_index.build g in
        check_bool "at least as many classes" true
          (Index_graph.n_nodes fb >= Index_graph.n_nodes one);
        (* refinement: each F&B class sits inside a 1-index class *)
        Index_graph.iter_alive fb (fun nd ->
            match Array.to_list nd.Index_graph.extent with
            | [] -> ()
            | first :: rest ->
              List.iter
                (fun u -> check_int "inside" (Index_graph.cls one first) (Index_graph.cls one u))
                rest);
        Index_graph.check_invariants fb);
    test "F&B edges are universal in both directions" (fun () ->
        let g = random_graph ~seed:252 ~nodes:120 in
        let fb = Fb_index.build g in
        Index_graph.iter_alive fb (fun nd ->
            Index_graph.iter_children fb nd.Index_graph.id (fun child_id ->
                let child = Index_graph.node fb child_id in
                (* every member of the child has a parent in nd *)
                Array.iter
                  (fun u ->
                    check_bool "backward universal" true
                      (List.exists
                         (fun p -> Index_graph.cls fb p = nd.Index_graph.id)
                         (Data_graph.parents g u)))
                  child.Index_graph.extent;
                (* every member of nd has a child in the child class *)
                Array.iter
                  (fun u ->
                    check_bool "forward universal" true
                      (List.exists
                         (fun c -> Index_graph.cls fb c = child_id)
                         (Data_graph.children g u)))
                  nd.Index_graph.extent)));
    test "on a chain the F&B index equals the 1-index" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        check_int "same size" (Index_graph.n_nodes (One_index.build g))
          (Index_graph.n_nodes (Fb_index.build g)));
    test "rounds is finite on cyclic data" (fun () ->
        let g, _, _, _ = cyclic_graph () in
        check_bool "small" true (Fb_index.rounds g < 10));
  ]

let eval_pattern_tests =
  [
    test "F&B answers patterns exactly without validation" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:100 in
            let fb = Fb_index.build g in
            List.iter
              (fun src ->
                let expected = eval_data g src in
                let r = Query_eval.eval_pattern ~validate:false fb (Tree_pattern.parse src) in
                check_int_list src expected r.Query_eval.nodes;
                check_int "no data touched" 0 r.Query_eval.cost.Cost.data_visits)
              [ "//l0"; "//l1[./l2]"; "//l0/l1//l2"; "//l2[.//l3]/l0"; "/l0[./l1][./l2]" ])
          [ 261; 262; 263 ]);
    test "validated patterns are exact on any index" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:100 in
            let indexes =
              [ Label_split.build g; A_k_index.build g ~k:2; One_index.build g ]
            in
            List.iter
              (fun src ->
                let expected = eval_data g src in
                List.iter
                  (fun idx ->
                    let r = Query_eval.eval_pattern idx (Tree_pattern.parse src) in
                    check_int_list src expected r.Query_eval.nodes)
                  indexes)
              [ "//l0"; "//l1[./l2]"; "//l0/l1//l2"; "//l2[.//l3]/l0"; "/l0/l2[./l1]" ])
          [ 264; 265 ]);
    test "label-split without validation over-approximates" (fun () ->
        let m = movie_graph () in
        let a0 = Label_split.build m.g in
        let pattern = Tree_pattern.parse "//director/movie/title" in
        let loose = Query_eval.eval_pattern ~validate:false a0 pattern in
        let exact = Query_eval.eval_pattern a0 pattern in
        check_int_list "exact result" (List.sort compare [ m.title1; m.title2 ])
          exact.Query_eval.nodes;
        check_bool "superset" true
          (List.for_all (fun u -> List.mem u loose.Query_eval.nodes) exact.Query_eval.nodes);
        check_bool "strictly larger" true
          (List.length loose.Query_eval.nodes > List.length exact.Query_eval.nodes));
    test "validation does not admit unreachable lookalikes" (fun () ->
        (* An unreachable 'x' node structurally similar to a reachable
           one must not appear in //x results. *)
        let pool = Dkindex_graph.Label.Pool.create () in
        let l n = Dkindex_graph.Label.Pool.intern pool n in
        let labels = [| l "ROOT"; l "x"; l "x" |] in
        let g = Data_graph.make ~pool ~labels ~edges:[ (0, 1) ] () in
        let a0 = Label_split.build g in
        let r = Query_eval.eval_pattern a0 (Tree_pattern.parse "//x") in
        check_int_list "only the reachable one" [ 1 ] r.Query_eval.nodes);
    test "movie fixture through the F&B index" (fun () ->
        let m = movie_graph () in
        let fb = Fb_index.build m.g in
        let r =
          Query_eval.eval_pattern ~validate:false fb
            (Tree_pattern.parse "//director/movie[./actor]/title")
        in
        check_int_list "title1" [ m.title1 ] r.Query_eval.nodes);
  ]

let serial_tests =
  [
    test "index round trip preserves partition, k, and req" (fun () ->
        let g = random_graph ~seed:271 ~nodes:120 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:271 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let idx' = Index_serial.of_string (Index_serial.to_string idx) in
        Index_graph.check_invariants idx';
        check_bool "same signature" true
          (Index_graph.partition_signature idx = Index_graph.partition_signature idx');
        assert_index_matches_data g idx' queries);
    test "1-index round trip keeps infinite similarity" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let one = One_index.build g in
        let one' = Index_serial.of_string (Index_serial.to_string one) in
        Index_graph.iter_alive one' (fun nd ->
            check_bool "infinite" true (nd.Index_graph.k >= Index_graph.k_infinite)));
    test "a loaded index accepts updates" (fun () ->
        let g = random_graph ~seed:272 ~nodes:100 in
        let idx = Dk_index.build g ~reqs:[ ("l0", 2) ] in
        let idx' = Index_serial.of_string (Index_serial.to_string idx) in
        Dk_update.add_edge idx' 3 7;
        Index_graph.check_invariants idx';
        let g' = Index_graph.data idx' in
        assert_index_matches_data g' idx'
          (Dkindex_workload.Query_gen.generate ~seed:273 ~count:10 g'));
    test "bad magic fails" (fun () ->
        check_bool "raises" true
          (match Index_serial.of_string "garbage" with
          | _ -> false
          | exception Failure _ -> true));
    test "file save/load" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let idx = A_k_index.build g ~k:1 in
        let path = Filename.temp_file "dkindex" ".index" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Index_serial.save path idx;
            let idx' = Index_serial.load path in
            check_int "size" (Index_graph.n_nodes idx) (Index_graph.n_nodes idx')));
  ]

let value_tests =
  [
    test "value predicates parse and print" (fun () ->
        let src = {|//person[./name[.="Kian"]]/phone|} in
        check_string "round trip" src (Tree_pattern.to_string (Tree_pattern.parse src)));
    test "value predicate filters on payloads" (fun () ->
        let b = B.create () in
        let person name phone =
          let p = B.add_child b ~parent:0 "person" in
          let n = B.add_child b ~parent:p "name" in
          ignore (B.add_value ~text:name b ~parent:n);
          let ph = B.add_child b ~parent:p "phone" in
          ignore (B.add_value ~text:phone b ~parent:ph);
          p
        in
        let kian = person "Kian" "111" in
        let _andrew = person "Andrew" "222" in
        let g = B.build b in
        let result = eval_data g {|//person[./name[.="Kian"]]|} in
        check_int_list "only kian" [ kian ] result);
    test "value predicate on the node itself" (fun () ->
        let b = B.create () in
        let n = B.add_child b ~parent:0 "x" in
        B.set_value b n "direct";
        let g = B.build b in
        check_int_list "matches" [ n ] (eval_data g {|//x[.="direct"]|});
        check_int_list "no match" [] (eval_data g {|//x[.="other"]|}));
    test "index evaluation with value predicates validates and stays exact" (fun () ->
        let b = B.create () in
        let item name =
          let i = B.add_child b ~parent:0 "item" in
          let nm = B.add_child b ~parent:i "name" in
          ignore (B.add_value ~text:name b ~parent:nm);
          i
        in
        let gold = item "gold" in
        let _silver = item "silver" in
        let _gold2 = item "gold" in
        let g = B.build b in
        let pattern = Tree_pattern.parse {|//item[./name[.="gold"]]|} in
        let expected = Tree_pattern.eval (Tree_pattern.data_view g ~cost:(Cost.create ())) pattern in
        check_bool "two golds" true (List.length expected = 2 && List.mem gold expected);
        List.iter
          (fun idx ->
            (* even with ~validate:false the value test forces validation *)
            let r = Query_eval.eval_pattern ~validate:false idx pattern in
            check_int_list "exact" expected r.Query_eval.nodes)
          [ Label_split.build g; One_index.build g; Fb_index.build g ]);
    test "xml text round-trips into payloads" (fun () ->
        let doc = Dkindex_xml.Xml_sax.parse_string
            {|<catalog><book genre="fiction"><title>Dune</title></book></catalog>|} in
        let g = (Dkindex_xml.Xml_to_graph.convert (Dkindex_xml.Xml_sax.emit_tree doc.root)).graph in
        check_int_list "by title" (eval_data g {|//book[./title[.="Dune"]]|})
          (eval_data g "//book");
        check_int_list "by attribute" (eval_data g {|//book[./genre[.="fiction"]]|})
          (eval_data g "//book");
        check_int_list "miss" [] (eval_data g {|//book[./title[.="Other"]]|}));
    test "streaming loader also records payloads" (fun () ->
        let text = {|<a><b>hello</b></a>|} in
        let g =
          (Dkindex_xml.Xml_to_graph.convert
             (Dkindex_xml.Xml_sax.iter (Dkindex_xml.Xml_sax.of_string text))).graph
        in
        check_int_list "match" (eval_data g {|//b[.="hello"]|}) (eval_data g "//b"));
    test "has_value_test" (fun () ->
        check_bool "yes" true (Tree_pattern.has_value_test (Tree_pattern.parse {|//a[.="x"]|}));
        check_bool "nested" true
          (Tree_pattern.has_value_test (Tree_pattern.parse {|//a[./b[.="x"]]|}));
        check_bool "no" false (Tree_pattern.has_value_test (Tree_pattern.parse "//a[./b]")));
    test "unterminated string fails" (fun () ->
        check_bool "raises" true
          (match Tree_pattern.parse {|//a[.="x]|} with
          | _ -> false
          | exception Tree_pattern.Parse_error _ -> true));
  ]

let serial_error_tests =
  [
    test "class out of range is rejected" (fun () ->
        let text =
          "dkindex-index 1\ngraph 31\ndkindex-graph 1\nnodes 1\nROOT\nedges 0\ncls\n5\nclasses 1\n0 0\n"
        in
        check_bool "raises" true
          (match Index_serial.of_string text with _ -> false | exception Failure _ -> true));
    test "truncated class table is rejected" (fun () ->
        let g = chain_graph [ "a" ] in
        let idx = Label_split.build g in
        let text = Index_serial.to_string idx in
        let cut = String.sub text 0 (String.length text - 5) in
        check_bool "raises" true
          (match Index_serial.of_string cut with _ -> false | exception Failure _ -> true));
    test "declared counts disagreeing with the body are rejected" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        let idx = Label_split.build g in
        let text = Index_serial.to_string idx in
        let lines = String.split_on_char '\n' text in
        (* Line 1 is "counts <nodes> <edges> <classes>"; perturb each
           field in turn and expect rejection. *)
        let counts =
          match List.nth lines 1 |> String.split_on_char ' ' with
          | [ "counts"; n; e; m ] -> (int_of_string n, int_of_string e, int_of_string m)
          | _ -> Alcotest.fail "expected a counts line"
        in
        let with_counts (n, e, m) =
          List.mapi
            (fun i l -> if i = 1 then Printf.sprintf "counts %d %d %d" n e m else l)
            lines
          |> String.concat "\n"
        in
        let n, e, m = counts in
        List.iter
          (fun tampered ->
            check_bool "raises" true
              (match Index_serial.of_string (with_counts tampered) with
              | _ -> false
              | exception Failure _ -> true))
          [ (n + 1, e, m); (n, e + 1, m); (n, e, m + 1) ];
        (* Sanity: the untampered document still loads. *)
        check_int "size" (Index_graph.n_nodes idx)
          (Index_graph.n_nodes (Index_serial.of_string (with_counts counts))));
    test "version-1 documents (no counts line) still load" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let idx = Label_split.build g in
        let v2 = Index_serial.to_string idx in
        let v1 =
          String.split_on_char '\n' v2
          |> List.filteri (fun i _ -> i <> 1)
          |> List.map (fun l -> if l = "dkindex-index 2" then "dkindex-index 1" else l)
          |> String.concat "\n"
        in
        check_int "size" (Index_graph.n_nodes idx)
          (Index_graph.n_nodes (Index_serial.of_string v1)));
  ]

let () =
  Alcotest.run "patterns"
    [
      ("parser", parser_tests);
      ("data_eval", eval_tests);
      ("fb_index", fb_tests);
      ("eval_pattern", eval_pattern_tests);
      ("value_predicates", value_tests);
      ("index_serial", serial_tests);
      ("index_serial_errors", serial_error_tests);
    ]
