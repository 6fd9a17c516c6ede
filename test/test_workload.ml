open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Query_gen = Dkindex_workload.Query_gen
module Miner = Dkindex_workload.Miner
module Cost = Dkindex_pathexpr.Cost

let gen_tests =
  [
    test "produces the requested number of queries" (fun () ->
        let g = random_graph ~seed:231 ~nodes:200 in
        check_int "count" 100 (List.length (Query_gen.generate ~seed:231 g)));
    test "lengths stay within bounds" (fun () ->
        let g = random_graph ~seed:232 ~nodes:200 in
        List.iter
          (fun q ->
            let len = Array.length q in
            check_bool "2..5" true (len >= 2 && len <= 5))
          (Query_gen.generate ~seed:232 g));
    test "custom bounds are respected" (fun () ->
        let g = random_graph ~seed:233 ~nodes:200 in
        List.iter
          (fun q ->
            let len = Array.length q in
            check_bool "3..4" true (len >= 3 && len <= 4))
          (Query_gen.generate ~seed:233 ~count:40 ~min_len:3 ~max_len:4 g));
    test "every query has a non-empty answer" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:150 in
            List.iter
              (fun q ->
                let r = Dkindex_pathexpr.Matcher.eval_label_path g q ~cost:(Cost.create ()) in
                check_bool "non-empty" true (r <> []))
              (Query_gen.generate ~seed ~count:50 g))
          [ 234; 235 ]);
    test "deterministic per seed" (fun () ->
        let g = random_graph ~seed:236 ~nodes:150 in
        let a = Query_gen.generate ~seed:1 g and b = Query_gen.generate ~seed:1 g in
        check_bool "same" true (a = b);
        let c = Query_gen.generate ~seed:2 g in
        check_bool "seed matters" true (a <> c));
    test "includes long paths and shorter variations" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:8 ~scale:20 () in
        let queries = Query_gen.generate ~seed:237 g in
        let lengths = List.map Array.length queries in
        check_bool "has max-length paths" true (List.mem 5 lengths);
        check_bool "has shorter paths" true (List.exists (fun l -> l < 5) lengths));
    test "invalid length bounds are rejected" (fun () ->
        let g = random_graph ~seed:238 ~nodes:50 in
        check_bool "raises" true
          (match Query_gen.generate ~min_len:3 ~max_len:2 g with
          | _ -> false
          | exception Invalid_argument _ -> true));
    test "to_strings mirrors the label names" (fun () ->
        let g = random_graph ~seed:239 ~nodes:100 in
        let queries = Query_gen.generate ~seed:239 ~count:10 g in
        List.iter2
          (fun q names -> check_int "lengths" (Array.length q) (List.length names))
          queries (Query_gen.to_strings g queries));
  ]

let miner_tests =
  [
    test "requirement is the longest query length minus one" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        let q1 = labels_of_strings g [ "b"; "c" ] in
        let q2 = labels_of_strings g [ "a"; "b"; "c" ] in
        let q3 = labels_of_strings g [ "a"; "b" ] in
        let reqs = Miner.mine g [ q1; q2; q3 ] in
        check_int "c needs 2" 2 (List.assoc "c" reqs);
        check_int "b needs 1" 1 (List.assoc "b" reqs);
        check_bool "a unqueried as target" true (not (List.mem_assoc "a" reqs)));
    test "mined D(k) answers the whole load without validation" (fun () ->
        let g = random_graph ~seed:241 ~nodes:150 in
        let queries = Query_gen.generate ~seed:241 g in
        let reqs = Miner.mine g queries in
        let idx = Dkindex_core.Dk_index.build g ~reqs in
        List.iter
          (fun q ->
            check_int "sound" 0
              (Dkindex_core.Query_eval.eval_path idx q).Dkindex_core.Query_eval.n_candidates)
          queries);
    test "quantile 1.0 equals plain mining" (fun () ->
        let g = random_graph ~seed:242 ~nodes:150 in
        let queries = Query_gen.generate ~seed:242 g in
        check_bool "equal" true (Miner.mine g queries = Miner.mine_quantile g ~quantile:1.0 queries));
    test "lower quantiles never require more" (fun () ->
        let g = random_graph ~seed:243 ~nodes:150 in
        let queries = Query_gen.generate ~seed:243 g in
        let full = Miner.mine g queries in
        let half = Miner.mine_quantile g ~quantile:0.5 queries in
        List.iter
          (fun (l, k) -> check_bool l true (k <= List.assoc l full))
          half);
    test "invalid quantile is rejected" (fun () ->
        let g = chain_graph [ "a" ] in
        check_bool "raises" true
          (match Miner.mine_quantile g ~quantile:1.5 [] with
          | _ -> false
          | exception Invalid_argument _ -> true));
    test "empty workload mines nothing" (fun () ->
        let g = chain_graph [ "a" ] in
        check_bool "empty" true (Miner.mine g [] = []));
  ]

module Tuner = Dkindex_workload.Tuner
module Index_graph = Dkindex_core.Index_graph
module Label_split = Dkindex_baselines.Label_split
module Dk_index = Dkindex_core.Dk_index

let tuner_tests =
  [
    test "observe evaluates exactly and fills the window" (fun () ->
        let g = random_graph ~seed:281 ~nodes:120 in
        let tuner = Tuner.create (Label_split.build g) in
        let queries = Query_gen.generate ~seed:281 ~count:30 g in
        List.iter
          (fun q ->
            let r = Tuner.observe tuner q in
            let expected =
              Dkindex_pathexpr.Matcher.eval_label_path g q ~cost:(Cost.create ())
            in
            check_int_list "exact" expected r.Dkindex_core.Query_eval.nodes)
          queries;
        check_bool "requirements mined" true (Tuner.required_now tuner <> []));
    test "window slides" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        let tuner = Tuner.create ~config:{ Tuner.default_config with window = 5 } (Label_split.build g) in
        let qb = labels_of_strings g [ "a"; "b" ] in
        let qc = labels_of_strings g [ "b"; "c" ] in
        ignore (Tuner.observe tuner qb);
        for _ = 1 to 10 do
          ignore (Tuner.observe tuner qc)
        done;
        (* the b-targeting query has slid out *)
        check_bool "only c remains" true
          (List.for_all (fun (l, _) -> String.equal l "c") (Tuner.required_now tuner)));
    test "lagging labels are detected and promotion clears them" (fun () ->
        let g = random_graph ~seed:282 ~nodes:150 in
        let tuner = Tuner.create (Label_split.build g) in
        let queries = Query_gen.generate ~seed:282 ~count:50 g in
        List.iter (fun q -> ignore (Tuner.observe tuner q)) queries;
        check_bool "lagging on a k=0 index" true (Tuner.lagging tuner <> []);
        let actions = Tuner.run_maintenance tuner in
        check_bool "promoted" true
          (List.exists (function Tuner.Promoted _ -> true | Tuner.Demoted _ -> false) actions);
        check_bool "nothing lags afterwards" true (Tuner.lagging tuner = []);
        Index_graph.check_invariants (Tuner.index tuner));
    test "maintenance is idempotent on a stable load" (fun () ->
        let g = random_graph ~seed:283 ~nodes:120 in
        let tuner = Tuner.create (Label_split.build g) in
        List.iter
          (fun q -> ignore (Tuner.observe tuner q))
          (Query_gen.generate ~seed:283 ~count:40 g);
        ignore (Tuner.run_maintenance tuner);
        check_bool "second pass is a no-op" true (Tuner.run_maintenance tuner = []));
    test "promotion makes the window load validation-free" (fun () ->
        let g = random_graph ~seed:284 ~nodes:150 in
        let tuner = Tuner.create (Label_split.build g) in
        let queries = Query_gen.generate ~seed:284 ~count:40 g in
        List.iter (fun q -> ignore (Tuner.observe tuner q)) queries;
        ignore (Tuner.run_maintenance tuner);
        List.iter
          (fun q ->
            let r = Dkindex_core.Query_eval.eval_path (Tuner.index tuner) q in
            check_int "no validation" 0 r.Dkindex_core.Query_eval.n_candidates)
          queries);
    test "size budget triggers demotion" (fun () ->
        let g = random_graph ~seed:285 ~nodes:200 in
        (* Start from a needlessly refined index and a tiny budget. *)
        let big = Dkindex_baselines.One_index.build g in
        let budget = Index_graph.n_nodes (Label_split.build g) + 10 in
        let tuner =
          Tuner.create ~config:{ Tuner.default_config with size_budget = Some budget } big
        in
        (* Only short queries in the window. *)
        List.iter
          (fun q -> ignore (Tuner.observe tuner q))
          (Query_gen.generate ~seed:285 ~count:30 ~min_len:2 ~max_len:2 g);
        let actions = Tuner.run_maintenance tuner in
        check_bool "demoted" true
          (List.exists (function Tuner.Demoted _ -> true | Tuner.Promoted _ -> false) actions);
        check_bool "within reach of the budget" true
          (Index_graph.n_nodes (Tuner.index tuner) < Index_graph.n_nodes big);
        (* and the window load still answers exactly *)
        List.iter
          (fun q ->
            let r = Dkindex_core.Query_eval.eval_path (Tuner.index tuner) q in
            let expected =
              Dkindex_pathexpr.Matcher.eval_label_path g q ~cost:(Cost.create ())
            in
            check_int_list "exact" expected r.Dkindex_core.Query_eval.nodes)
          (Query_gen.generate ~seed:286 ~count:20 g));
    test "cold labels below the hot fraction are not promoted" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        let tuner =
          Tuner.create
            ~config:{ Tuner.default_config with window = 100; hot_fraction = 0.2 }
            (Dkindex_baselines.Label_split.build g)
        in
        (* 95 queries on c, 1 on b: b stays below 20% of the window *)
        for _ = 1 to 95 do
          ignore (Tuner.observe tuner (labels_of_strings g [ "b"; "c" ]))
        done;
        ignore (Tuner.observe tuner (labels_of_strings g [ "a"; "b" ]));
        let reqs = Tuner.required_now tuner in
        check_bool "c required" true (List.mem_assoc "c" reqs);
        check_bool "b not required" true (not (List.mem_assoc "b" reqs)));
    test "empty queries are ignored by the window" (fun () ->
        let g = chain_graph [ "a" ] in
        let tuner = Tuner.create (Dkindex_baselines.Label_split.build g) in
        ignore (Tuner.observe tuner [||]);
        check_bool "no requirements" true (Tuner.required_now tuner = []));
    test "invalid window rejected" (fun () ->
        let g = chain_graph [ "a" ] in
        check_bool "raises" true
          (match Tuner.create ~config:{ Tuner.default_config with window = 0 } (Label_split.build g) with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "workload"
    [ ("query_gen", gen_tests); ("miner", miner_tests); ("tuner", tuner_tests) ]
