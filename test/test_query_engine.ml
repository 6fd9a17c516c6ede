(* Golden-equivalence and determinism suites for the CSR query engine:
   the flat-array evaluators, the batch driver, and the cross-query
   validation cache must be observationally identical to evaluating
   the same queries one at a time against the data graph. *)

open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Cost = Dkindex_pathexpr.Cost
module Matcher = Dkindex_pathexpr.Matcher
module Nfa = Dkindex_pathexpr.Nfa
module Path_parser = Dkindex_pathexpr.Path_parser
module Tree_pattern = Dkindex_pathexpr.Tree_pattern
module Query_gen = Dkindex_workload.Query_gen
module Prng = Dkindex_datagen.Prng

let fixtures () =
  [
    ("random", random_graph ~seed:811 ~nodes:200);
    ("xmark", Dkindex_datagen.Xmark.graph ~seed:811 ~scale:15 ());
    ("nasa", Dkindex_datagen.Nasa.graph ~seed:811 ~scale:10 ());
  ]

let indexes_of g =
  [
    ("A(0)", Label_split.build g);
    ("A(2)", A_k_index.build g ~k:2);
    ("D(k)", Dk_index.build g ~reqs:(Dkindex_workload.Miner.mine g (Query_gen.generate ~seed:812 g)));
    ("1-index", One_index.build g);
  ]

let oracle_path g q = Matcher.eval_label_path g q ~cost:(Cost.create ())

(* Churn an index through the public update drivers so the CSR overflow
   layer, tombstones and amortized rebuilds all get exercised before
   the equivalence check. *)
let churn g idx ~seed ~rounds =
  let rng = Prng.create ~seed in
  let n = Data_graph.n_nodes g in
  let added = ref [] in
  for _ = 1 to rounds do
    let u = Prng.int rng n and v = 1 + Prng.int rng (n - 1) in
    if not (Data_graph.has_edge g u v) then begin
      Dk_update.add_edge idx u v;
      added := (u, v) :: !added
    end
  done;
  (* Remove half of what was added, hitting the tombstone path. *)
  List.iteri (fun i (u, v) -> if i mod 2 = 0 then Dk_update.remove_edge idx u v) !added

let golden_path_tests =
  [
    test "eval_path matches the data graph on every fixture and index" (fun () ->
        List.iter
          (fun (gname, g) ->
            let queries = Query_gen.generate ~seed:813 ~count:40 g in
            List.iter
              (fun (iname, idx) ->
                List.iter
                  (fun q ->
                    let expected = oracle_path g q in
                    List.iter
                      (fun strategy ->
                        let r = Query_eval.eval_path ~strategy idx q in
                        check_int_list
                          (Printf.sprintf "%s/%s" gname iname)
                          expected r.Query_eval.nodes)
                      [ `Forward; `Backward; `Auto ])
                  queries)
              (indexes_of g))
          (fixtures ()));
    test "eval_path stays exact after update churn" (fun () ->
        let g = random_graph ~seed:821 ~nodes:150 in
        let queries = Query_gen.generate ~seed:822 ~count:30 g in
        let idx = Dk_index.build g ~reqs:(Dkindex_workload.Miner.mine g queries) in
        churn g idx ~seed:823 ~rounds:40;
        Index_graph.check_invariants idx;
        List.iter
          (fun q ->
            let expected = oracle_path g q in
            let r = Query_eval.eval_path ~strategy:`Auto idx q in
            check_int_list "post-churn" expected r.Query_eval.nodes)
          queries);
  ]

let exprs =
  [
    "director.movie.title";
    "director.(movie|name)";
    "_*.title";
    "movie.(_)?.name";
    "(director.movie)|(actor.name)";
  ]

let golden_expr_tests =
  [
    test "eval_expr matches eval_nfa on the data graph" (fun () ->
        let m = movie_graph () in
        List.iter
          (fun (iname, idx) ->
            List.iter
              (fun src ->
                let expr = Path_parser.parse src in
                let nfa = Nfa.compile (Data_graph.pool m.g) expr in
                let expected = Matcher.eval_nfa m.g nfa ~cost:(Cost.create ()) in
                let r = Query_eval.eval_expr idx expr in
                check_int_list (Printf.sprintf "%s: %s" iname src) expected r.Query_eval.nodes)
              exprs)
          (indexes_of m.g));
    test "eval_expr matches eval_nfa on generated graphs" (fun () ->
        List.iter
          (fun (gname, g) ->
            (* Build expressions over labels that exist in the graph. *)
            let queries = Query_gen.generate ~seed:831 ~count:6 ~min_len:2 ~max_len:3 g in
            let pool = Data_graph.pool g in
            let srcs =
              List.filter_map
                (fun q ->
                  match Array.to_list q with
                  | a :: rest ->
                    let name l = Label.Pool.name pool l in
                    Some
                      ("(" ^ String.concat "." (name a :: List.map name rest) ^ ")|(" ^ name a
                     ^ "._*)")
                  | [] -> None)
                queries
            in
            List.iter
              (fun (iname, idx) ->
                List.iter
                  (fun src ->
                    let expr = Path_parser.parse src in
                    let nfa = Nfa.compile (Data_graph.pool g) expr in
                    let expected = Matcher.eval_nfa g nfa ~cost:(Cost.create ()) in
                    let r = Query_eval.eval_expr idx expr in
                    check_int_list
                      (Printf.sprintf "%s/%s: %s" gname iname src)
                      expected r.Query_eval.nodes)
                  srcs)
              (indexes_of g))
          (fixtures ()));
  ]

let golden_pattern_tests =
  [
    test "eval_pattern agrees across all indexes (validation makes it exact)" (fun () ->
        let m = movie_graph () in
        let patterns =
          [ "//director/movie/title"; "//movie[./actor]/title"; "//actor"; "//movie//name" ]
        in
        List.iter
          (fun src ->
            let pattern = Tree_pattern.parse src in
            match
              List.map
                (fun (_, idx) -> (Query_eval.eval_pattern idx pattern).Query_eval.nodes)
                (indexes_of m.g)
            with
            | [] -> ()
            | first :: rest ->
              List.iter (fun other -> check_int_list src first other) rest)
          patterns);
  ]

let batch_tests =
  [
    test "eval_batch equals sequential eval_path" (fun () ->
        let g = random_graph ~seed:841 ~nodes:200 in
        let queries = Query_gen.generate ~seed:842 ~count:60 g in
        let idx = Dk_index.build g ~reqs:(Dkindex_workload.Miner.mine g queries) in
        let sequential = List.map (fun q -> Query_eval.eval_path idx q) queries in
        let batch = Query_eval.eval_batch ~cache:false idx queries in
        List.iteri
          (fun i seq ->
            let b = batch.(i) in
            let tag = Printf.sprintf "q=%d" i in
            check_int_list tag seq.Query_eval.nodes b.Query_eval.nodes;
            check_int (tag ^ " candidates") seq.Query_eval.n_candidates
              b.Query_eval.n_candidates;
            check_int (tag ^ " certain") seq.Query_eval.n_certain b.Query_eval.n_certain;
            (* cache:false: even the per-query cost counters agree *)
            check_int (tag ^ " index visits")
              seq.Query_eval.cost.Cost.index_visits b.Query_eval.cost.Cost.index_visits;
            check_int (tag ^ " data visits") seq.Query_eval.cost.Cost.data_visits
              b.Query_eval.cost.Cost.data_visits)
          sequential);
    test "eval_batch answers are identical with and without caching" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:843 ~scale:10 () in
        let queries = Query_gen.generate ~seed:844 ~count:50 g in
        let idx = Label_split.build g in
        let cached = Query_eval.eval_batch ~cache:true idx queries in
        let uncached = Query_eval.eval_batch ~cache:false idx queries in
        Array.iteri
          (fun i r ->
            check_int_list (Printf.sprintf "q=%d" i) uncached.(i).Query_eval.nodes
              r.Query_eval.nodes)
          cached);
  ]

let cache_tests =
  [
    test "a warmed cache returns the same answers and saves data visits" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:851 ~scale:10 () in
        let idx = Label_split.build g in
        let queries = Query_gen.generate ~seed:852 ~count:20 ~min_len:2 ~max_len:4 g in
        let cache = Validation_cache.create idx in
        List.iter
          (fun q ->
            let cold = Query_eval.eval_path idx q in
            let warm1 = Query_eval.eval_path ~cache idx q in
            let warm2 = Query_eval.eval_path ~cache idx q in
            check_int_list "cold = warm1" cold.Query_eval.nodes warm1.Query_eval.nodes;
            check_int_list "warm1 = warm2" warm1.Query_eval.nodes warm2.Query_eval.nodes;
            (* The second cached run revisits no (node, pos) pair. *)
            check_bool "repeat is no more expensive" true
              (warm2.Query_eval.cost.Cost.data_visits
              <= warm1.Query_eval.cost.Cost.data_visits))
          queries;
        let hits, misses = Validation_cache.stats cache in
        check_bool "cache hit at least once" true (hits > 0);
        check_bool "cache missed at least once" true (misses > 0));
    test "cache stays correct across dk_update churn" (fun () ->
        let g = random_graph ~seed:853 ~nodes:150 in
        let queries = Query_gen.generate ~seed:854 ~count:25 g in
        let idx = Dk_index.build g ~reqs:(Dkindex_workload.Miner.mine g queries) in
        let cache = Validation_cache.create idx in
        let run_all () =
          List.iter
            (fun q ->
              let expected = oracle_path g q in
              let r = Query_eval.eval_path ~cache idx q in
              check_int_list "cached = oracle" expected r.Query_eval.nodes)
            queries
        in
        run_all ();
        churn g idx ~seed:855 ~rounds:30;
        (* The graph changed under the cache: answers must re-validate
           against the new structure, not replay stale memos. *)
        run_all ();
        Index_graph.check_invariants idx);
    test "cache stays correct across promotion and demotion" (fun () ->
        let g = random_graph ~seed:861 ~nodes:150 in
        let queries = Query_gen.generate ~seed:862 ~count:25 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs:[] in
        let idx = ref idx in
        let cache = ref (Validation_cache.create !idx) in
        let run_all () =
          List.iter
            (fun q ->
              let expected = oracle_path g q in
              let r = Query_eval.eval_path ~cache:!cache !idx q in
              check_int_list "cached = oracle" expected r.Query_eval.nodes)
            queries
        in
        run_all ();
        (* Promotion splits nodes in place: same index, new partition. *)
        Dk_tune.promote_labels !idx reqs;
        run_all ();
        (* Demotion rebuilds into a fresh index: rebind a fresh cache. *)
        idx := Dk_tune.demote !idx ~reqs:[];
        cache := Validation_cache.create !idx;
        run_all ());
    test "cap bounds memoized answers under churn and keeps answers exact" (fun () ->
        let g = random_graph ~seed:871 ~nodes:200 in
        let queries = Query_gen.generate ~seed:872 ~count:40 ~min_len:2 ~max_len:4 g in
        let idx = Label_split.build g in
        let cap = 64 in
        let cache = Validation_cache.create ~max_entries:cap idx in
        (* Many distinct paths over a tight cap: eviction must trigger,
           the bound must hold at every lookup, and answers must stay
           equal to the uncached oracle throughout. *)
        for _round = 1 to 5 do
          List.iter
            (fun q ->
              let expected = oracle_path g q in
              let r = Query_eval.eval_path ~cache idx q in
              check_int_list "cached = oracle" expected r.Query_eval.nodes)
            queries
        done;
        check_bool "eviction actually ran" true (Validation_cache.evictions cache > 0);
        (* The sweep runs at lookup time, before the winning table is
           refilled: entering a lookup the total is under the cap, so
           the steady state is cap + (largest single table). *)
        let final = Validation_cache.entry_count cache in
        check_bool "entry count bounded" true (final <= 2 * cap + Data_graph.n_nodes g);
        (* A fresh sweep-triggering lookup drops it back under cap. *)
        ignore (Query_eval.eval_path ~cache idx (List.hd queries));
        let hits, misses = Validation_cache.stats cache in
        check_bool "interning still works under pressure" true (hits > 0 && misses > 0));
    test "unbounded-by-default cache never evicts on small workloads" (fun () ->
        let g = random_graph ~seed:873 ~nodes:150 in
        let queries = Query_gen.generate ~seed:874 ~count:25 g in
        let idx = Label_split.build g in
        let cache = Validation_cache.create idx in
        List.iter (fun q -> ignore (Query_eval.eval_path ~cache idx q)) queries;
        check_int "no evictions" 0 (Validation_cache.evictions cache));
    test "nfa validator caching survives expression reuse" (fun () ->
        let m = movie_graph () in
        let idx = Label_split.build m.g in
        let cache = Validation_cache.create idx in
        let expr = Path_parser.parse "_*.movie.title" in
        let r1 = Query_eval.eval_expr ~cache idx expr in
        let r2 = Query_eval.eval_expr ~cache idx expr in
        check_int_list "same nodes" r1.Query_eval.nodes r2.Query_eval.nodes;
        check_bool "validation got cheaper or equal" true
          (r2.Query_eval.cost.Cost.data_visits <= r1.Query_eval.cost.Cost.data_visits));
  ]

let () =
  Alcotest.run "query_engine"
    [
      ("golden-path", golden_path_tests);
      ("golden-expr", golden_expr_tests);
      ("golden-pattern", golden_pattern_tests);
      ("batch", batch_tests);
      ("validation-cache", cache_tests);
    ]
