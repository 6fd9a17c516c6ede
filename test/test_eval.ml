open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Cost = Dkindex_pathexpr.Cost
module Path_parser = Dkindex_pathexpr.Path_parser

let eval_path_tests =
  [
    test "director.movie.title on the movie graph" (fun () ->
        let m = movie_graph () in
        let idx = Dk_index.build m.g ~reqs:[ ("title", 2) ] in
        let r =
          Query_eval.eval_path idx (labels_of_strings m.g [ "director"; "movie"; "title" ])
        in
        check_int_list "titles" (List.sort compare [ m.title1; m.title2 ]) r.Query_eval.nodes;
        check_int "no validation" 0 r.Query_eval.n_candidates);
    test "a sound query costs no data visits" (fun () ->
        let m = movie_graph () in
        let idx = Dk_index.build m.g ~reqs:[ ("title", 2) ] in
        let r =
          Query_eval.eval_path idx (labels_of_strings m.g [ "director"; "movie"; "title" ])
        in
        check_int "data visits" 0 r.Query_eval.cost.Cost.data_visits;
        check_bool "index visits counted" true (r.Query_eval.cost.Cost.index_visits > 0));
    test "an approximate index validates and still answers exactly" (fun () ->
        let m = movie_graph () in
        let a0 = Label_split.build m.g in
        let q = labels_of_strings m.g [ "director"; "movie"; "title" ] in
        let r = Query_eval.eval_path a0 q in
        check_int_list "titles" (List.sort compare [ m.title1; m.title2 ]) r.Query_eval.nodes;
        check_bool "validated" true (r.Query_eval.n_candidates > 0);
        check_bool "data visits charged" true (r.Query_eval.cost.Cost.data_visits > 0));
    test "extent members of sound nodes are free" (fun () ->
        (* A(0) answering a single-label query is sound: k=0 >= 0. *)
        let g = Dkindex_datagen.Xmark.graph ~seed:5 ~scale:10 () in
        let a0 = Label_split.build g in
        let r = Query_eval.eval_path a0 (labels_of_strings g [ "item" ]) in
        check_bool "many results" true (List.length r.Query_eval.nodes > 1);
        check_int "one index node visited" 1 r.Query_eval.cost.Cost.index_visits;
        check_int "no data visits" 0 r.Query_eval.cost.Cost.data_visits);
    test "single-label queries are sound on every index" (fun () ->
        let g = random_graph ~seed:201 ~nodes:100 in
        let a0 = Label_split.build g in
        let r = Query_eval.eval_path a0 (labels_of_strings g [ "l1" ]) in
        check_int "no candidates" 0 r.Query_eval.n_candidates);
    test "empty and unknown queries return nothing" (fun () ->
        let m = movie_graph () in
        let idx = Label_split.build m.g in
        check_int_list "empty" [] (Query_eval.eval_path idx [||]).Query_eval.nodes;
        check_int_list "unknown" []
          (Query_eval.eval_path_strings idx [ "nothing"; "here" ]).Query_eval.nodes);
    test "eval_path_strings equals eval_path on known labels" (fun () ->
        let m = movie_graph () in
        let idx = One_index.build m.g in
        let by_strings = Query_eval.eval_path_strings idx [ "movie"; "title" ] in
        let by_labels = Query_eval.eval_path idx (labels_of_strings m.g [ "movie"; "title" ]) in
        check_int_list "same" by_labels.Query_eval.nodes by_strings.Query_eval.nodes);
    test "all indexes agree with the data graph on random workloads" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:150 in
            let queries = Dkindex_workload.Query_gen.generate ~seed ~count:25 g in
            let reqs = Dkindex_workload.Miner.mine g queries in
            List.iter
              (fun idx -> assert_index_matches_data g idx queries)
              [
                Label_split.build g;
                A_k_index.build g ~k:1;
                A_k_index.build g ~k:3;
                One_index.build g;
                Dk_index.build g ~reqs;
              ])
          [ 202; 203 ]);
    test "D(k) mined for the load never validates it" (fun () ->
        let g = Dkindex_datagen.Nasa.graph ~seed:6 ~scale:20 () in
        let queries = Dkindex_workload.Query_gen.generate ~seed:204 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        List.iter
          (fun q ->
            check_int "no candidates" 0 (Query_eval.eval_path idx q).Query_eval.n_candidates)
          queries);
    test "n_certain counts sound matched nodes" (fun () ->
        let m = movie_graph () in
        let one = One_index.build m.g in
        let r = Query_eval.eval_path one (labels_of_strings m.g [ "movie"; "title" ]) in
        check_bool "all certain" true (r.Query_eval.n_certain > 0);
        check_int "none validated" 0 r.Query_eval.n_candidates);
  ]

let eval_expr_tests =
  [
    test "regex equals plain path evaluation on label sequences" (fun () ->
        let g = random_graph ~seed:211 ~nodes:120 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:211 ~count:15 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let pool = Data_graph.pool g in
        List.iter
          (fun q ->
            let names = Array.to_list (Array.map (Label.Pool.name pool) q) in
            let expr = Dkindex_pathexpr.Path_ast.seq_of_labels names in
            let by_expr = (Query_eval.eval_expr idx expr).Query_eval.nodes in
            let by_path = (Query_eval.eval_path idx q).Query_eval.nodes in
            check_int_list "same" by_path by_expr)
          queries);
    test "the paper's optional-wildcard query" (fun () ->
        let m = movie_graph () in
        let idx = Dk_index.build m.g ~reqs:[ ("name", 3) ] in
        let expr = Path_parser.parse "movieDB.(_)?.movie.actor.name" in
        let r = Query_eval.eval_expr idx expr in
        let expected =
          Dkindex_pathexpr.Matcher.eval_nfa m.g
            (Dkindex_pathexpr.Nfa.compile (Data_graph.pool m.g) expr)
            ~cost:(Cost.create ())
        in
        check_int_list "same as data" expected r.Query_eval.nodes);
    test "star queries match the data graph on every index" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:100 in
            let pool = Data_graph.pool g in
            List.iter
              (fun src ->
                let expr = Path_parser.parse src in
                let expected =
                  Dkindex_pathexpr.Matcher.eval_nfa g (Dkindex_pathexpr.Nfa.compile pool expr)
                    ~cost:(Cost.create ())
                in
                List.iter
                  (fun idx ->
                    check_int_list src expected (Query_eval.eval_expr idx expr).Query_eval.nodes)
                  [ Label_split.build g; A_k_index.build g ~k:2; One_index.build g ])
              [ "l0.l1*"; "l2.(l0|l1).l3?"; "_.l0._*"; "l4|l3.l2" ])
          [ 212; 213 ]);
    test "alternation of different lengths" (fun () ->
        let m = movie_graph () in
        let idx = Label_split.build m.g in
        let expr = Path_parser.parse "movie.title|name" in
        let r = Query_eval.eval_expr idx expr in
        let expected =
          Dkindex_pathexpr.Matcher.eval_nfa m.g
            (Dkindex_pathexpr.Nfa.compile (Data_graph.pool m.g) expr)
            ~cost:(Cost.create ())
        in
        check_int_list "same" expected r.Query_eval.nodes);
    test "cyclic data under a star query stays exact" (fun () ->
        let g, _, _, _ = cyclic_graph () in
        let idx = Label_split.build g in
        let expr = Path_parser.parse "a.(b.a)*.b" in
        let expected =
          Dkindex_pathexpr.Matcher.eval_nfa g
            (Dkindex_pathexpr.Nfa.compile (Data_graph.pool g) expr)
            ~cost:(Cost.create ())
        in
        check_int_list "same" expected (Query_eval.eval_expr idx expr).Query_eval.nodes);
    test "regex on the 1-index of bounded queries skips validation" (fun () ->
        let m = movie_graph () in
        let one = One_index.build m.g in
        let expr = Path_parser.parse "director.movie.title" in
        let r = Query_eval.eval_expr one expr in
        check_int "no candidates" 0 r.Query_eval.n_candidates);
  ]

let strategy_tests =
  [
    test "all strategies agree on random workloads" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:150 in
            let queries = Dkindex_workload.Query_gen.generate ~seed ~count:20 g in
            let reqs = Dkindex_workload.Miner.mine g queries in
            let idx = Dk_index.build g ~reqs in
            List.iter
              (fun q ->
                let fwd = Query_eval.eval_path ~strategy:`Forward idx q in
                let bwd = Query_eval.eval_path ~strategy:`Backward idx q in
                let auto = Query_eval.eval_path ~strategy:`Auto idx q in
                check_int_list "fwd=bwd" fwd.Query_eval.nodes bwd.Query_eval.nodes;
                check_int_list "fwd=auto" fwd.Query_eval.nodes auto.Query_eval.nodes)
              queries)
          [ 321; 322 ]);
    test "backward is cheaper when the target label is rare" (fun () ->
        (* 30 structurally distinct `a` classes (different parents) but
           a single rare `b` target under one of them: forward scans
           every `a` class, backward starts from the one `b` class. *)
        let bld = Dkindex_graph.Builder.create () in
        let first_a = ref (-1) in
        for i = 1 to 30 do
          let x = Dkindex_graph.Builder.add_child bld ~parent:0 (Printf.sprintf "x%d" i) in
          let a = Dkindex_graph.Builder.add_child bld ~parent:x "a" in
          if !first_a < 0 then first_a := a
        done;
        ignore (Dkindex_graph.Builder.add_child bld ~parent:!first_a "b");
        let g = Dkindex_graph.Builder.build bld in
        let idx = A_k_index.build g ~k:2 in
        let q = labels_of_strings g [ "a"; "b" ] in
        let fwd = Query_eval.eval_path ~strategy:`Forward idx q in
        let bwd = Query_eval.eval_path ~strategy:`Backward idx q in
        check_int_list "same" fwd.Query_eval.nodes bwd.Query_eval.nodes;
        check_bool "bwd visits fewer index nodes" true
          (bwd.Query_eval.cost.Cost.index_visits < fwd.Query_eval.cost.Cost.index_visits));
    test "auto picks the cheaper side on a rare-target query" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:10 ~scale:30 () in
        let idx = A_k_index.build g ~k:2 in
        (* first label VALUE is the most populous: auto must go backward *)
        let q = labels_of_strings g [ "description"; "VALUE" ] in
        let fwd = Query_eval.eval_path ~strategy:`Forward idx q in
        let auto = Query_eval.eval_path ~strategy:`Auto idx q in
        check_int_list "same" fwd.Query_eval.nodes auto.Query_eval.nodes);
    test "backward on a cyclic index terminates" (fun () ->
        let g, a, _, _ = cyclic_graph () in
        let idx = Label_split.build g in
        let q = labels_of_strings g [ "a"; "b"; "a" ] in
        let r = Query_eval.eval_path ~strategy:`Backward idx q in
        check_int_list "a matched" [ a ] r.Query_eval.nodes);
    test "validation behavior is identical across strategies" (fun () ->
        let g = random_graph ~seed:323 ~nodes:120 in
        let a0 = Label_split.build g in
        let q = labels_of_strings g [ "l0"; "l1"; "l2" ] in
        let fwd = Query_eval.eval_path ~strategy:`Forward a0 q in
        let bwd = Query_eval.eval_path ~strategy:`Backward a0 q in
        check_int "same candidates" fwd.Query_eval.n_candidates bwd.Query_eval.n_candidates);
  ]

let cracking_tests =
  [
    test "a validated query promotes; the repeat is validation-free" (fun () ->
        let g = random_graph ~seed:351 ~nodes:150 in
        let idx = Label_split.build g in
        let q = labels_of_strings g [ "l0"; "l1"; "l2" ] in
        let first = Cracking.eval_path idx q in
        let second = Cracking.eval_path idx q in
        check_int_list "same answers" first.Query_eval.nodes second.Query_eval.nodes;
        check_bool "first validated" true (first.Query_eval.n_candidates > 0);
        check_int "second is sound" 0 second.Query_eval.n_candidates;
        check_bool "second is cheaper" true
          (Cost.total second.Query_eval.cost < Cost.total first.Query_eval.cost);
        Index_graph.check_invariants idx);
    test "answers always match direct data evaluation" (fun () ->
        let g = random_graph ~seed:352 ~nodes:150 in
        let idx = Label_split.build g in
        let queries = Dkindex_workload.Query_gen.generate ~seed:352 ~count:30 g in
        List.iter
          (fun q ->
            let expected =
              Dkindex_pathexpr.Matcher.eval_label_path g q ~cost:(Cost.create ())
            in
            check_int_list "exact" expected (Cracking.eval_path idx q).Query_eval.nodes)
          queries;
        Index_graph.check_invariants idx);
    test "a query stream converges to the mined D(k) shape" (fun () ->
        let g = random_graph ~seed:353 ~nodes:200 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:353 ~count:60 g in
        let cracked = Label_split.build g in
        List.iter (fun q -> ignore (Cracking.eval_path cracked q)) queries;
        (* after one pass, every workload query is answered soundly *)
        List.iter
          (fun q ->
            check_int "sound now" 0 (Query_eval.eval_path cracked q).Query_eval.n_candidates)
          queries;
        (* and the size is in the same ballpark as the offline D(k) *)
        let reqs = Dkindex_workload.Miner.mine g queries in
        let offline = Dk_index.build g ~reqs in
        check_bool "comparable size" true
          (Index_graph.n_nodes cracked <= 2 * Index_graph.n_nodes offline));
    test "sound queries do not promote (no size creep)" (fun () ->
        let g = random_graph ~seed:354 ~nodes:120 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:354 ~count:20 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let size = Index_graph.n_nodes idx in
        List.iter (fun q -> ignore (Cracking.eval_path idx q)) queries;
        check_int "size unchanged" size (Index_graph.n_nodes idx));
    test "single-label queries never crack" (fun () ->
        let g = random_graph ~seed:355 ~nodes:80 in
        let idx = Label_split.build g in
        let size = Index_graph.n_nodes idx in
        ignore (Cracking.eval_path idx (labels_of_strings g [ "l1" ]));
        check_int "unchanged" size (Index_graph.n_nodes idx));
  ]

let cost_model_tests =
  [
    test "coarser indexes visit fewer index nodes but validate more" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:7 ~scale:20 () in
        let q = labels_of_strings g [ "person"; "watches"; "watch"; "open_auction" ] in
        let a0 = Label_split.build g and a4 = A_k_index.build g ~k:4 in
        let r0 = Query_eval.eval_path a0 q and r4 = Query_eval.eval_path a4 q in
        check_bool "A(0) visits fewer index nodes" true
          (r0.Query_eval.cost.Cost.index_visits <= r4.Query_eval.cost.Cost.index_visits);
        check_bool "A(0) pays validation" true
          (r0.Query_eval.cost.Cost.data_visits >= r4.Query_eval.cost.Cost.data_visits);
        check_int_list "same answer" r0.Query_eval.nodes r4.Query_eval.nodes);
    test "total cost is the sum of parts" (fun () ->
        let g = random_graph ~seed:221 ~nodes:100 in
        let idx = Label_split.build g in
        let q = labels_of_strings g [ "l0"; "l1"; "l2" ] in
        let r = Query_eval.eval_path idx q in
        check_int "sum" (Cost.total r.Query_eval.cost)
          (r.Query_eval.cost.Cost.index_visits + r.Query_eval.cost.Cost.data_visits));
  ]

let () =
  Alcotest.run "eval"
    [
      ("eval_path", eval_path_tests);
      ("eval_expr", eval_expr_tests);
      ("strategies", strategy_tests);
      ("cracking", cracking_tests);
      ("cost_model", cost_model_tests);
    ]
