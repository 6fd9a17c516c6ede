(* Cost-based query planner: statistics catalog correctness and
   laziness, plan enumeration/ranking, executor equivalence (every
   candidate access path answers bit for bit like direct evaluation),
   and robustness of the whole family under update churn. *)

open Dkindex_graph
open Dkindex_core
open Testlib
module Cost = Dkindex_pathexpr.Cost
module Path_ast = Dkindex_pathexpr.Path_ast
module Path_parser = Dkindex_pathexpr.Path_parser
module Matcher = Dkindex_pathexpr.Matcher
module Query_gen = Dkindex_workload.Query_gen
module Miner = Dkindex_workload.Miner
module Stats_catalog = Dkindex_planner.Stats_catalog
module Plan = Dkindex_planner.Plan
module Planner = Dkindex_planner.Planner
module Prng = Dkindex_datagen.Prng

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

(* The full family the CLI registers, in the same order. *)
let build_family ?(with_cache = true) ?(k = 2) ?(seed = 42) ?(workload = 20) g =
  let queries = Query_gen.generate ~seed ~count:workload g in
  let reqs = Miner.mine g queries in
  let pl = Planner.create g in
  let reg name idx =
    if with_cache then Planner.register pl ~name ~cache:(Validation_cache.create idx) idx
    else Planner.register pl ~name idx
  in
  reg "dk" (Dk_index.build g ~reqs);
  reg "ak" (A_k_index.build g ~k);
  reg "1-index" (One_index.build g);
  reg "label-split" (Label_split.build g);
  reg "fb" (Fb_index.build g);
  Planner.observe_workload pl queries;
  (pl, queries)

let oracle g path =
  let cost = Cost.create () in
  Matcher.eval_label_path g path ~cost

let expr_of_path g path =
  Path_ast.seq_of_labels
    (List.map (Label.Pool.name (Data_graph.pool g)) (Array.to_list path))

(* Execute every enumerated plan for [path] plus every forced pairwise
   intersection, requiring all node lists to equal the raw oracle. *)
let check_all_plans_agree pl g path =
  if Array.length path > 0 then begin
    let expr = expr_of_path g path in
    let want = oracle g path in
    let ranked = Planner.plans pl expr in
    List.iter
      (fun p ->
        let r = Planner.execute pl p expr in
        if r.Query_eval.nodes <> want then
          Alcotest.failf "plan %s disagrees with oracle (%d vs %d nodes)"
            (Plan.describe p) (List.length r.Query_eval.nodes) (List.length want))
      ranked;
    (* Forced intersections, whether or not the enumerator priced them. *)
    let names = Planner.names pl in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a < b then begin
              let p =
                {
                  Plan.access = Plan.Intersect (a, b);
                  est_index_visits = 0.0;
                  est_candidates = 0.0;
                  est_data_visits = 0.0;
                  est_total = 0.0;
                  certain = false;
                }
              in
              let r = Planner.execute pl p expr in
              if r.Query_eval.nodes <> want then
                Alcotest.failf "intersect(%s,%s) disagrees with oracle" a b
            end)
          names)
      names
  end

(* ------------------------------------------------------------------ *)
(* Statistics catalog                                                  *)

let catalog_tests =
  [
    test "catalog rows match a direct recount" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:9 ~scale:10 () in
        let idx = A_k_index.build g ~k:2 in
        let cat = Stats_catalog.create idx in
        check_int "n_inodes" (Index_graph.n_nodes idx) (Stats_catalog.n_inodes cat);
        check_int "n_iedges" (Index_graph.n_edges idx) (Stats_catalog.n_iedges cat);
        check_int "n_data_nodes" (Data_graph.n_nodes g) (Stats_catalog.n_data_nodes cat);
        check_int "n_data_edges" (Data_graph.n_edges g) (Stats_catalog.n_data_edges cat);
        (* recount one label's rows by hand *)
        let pool = Data_graph.pool g in
        for code = 0 to Label.Pool.count pool - 1 do
          let l = Label.of_int code in
          let inodes = ref 0 and extent = ref 0 and mx = ref 0 and cov1 = ref 0 in
          Index_graph.iter_alive idx (fun nd ->
              if Label.equal nd.Index_graph.label l then begin
                incr inodes;
                extent := !extent + nd.Index_graph.extent_size;
                if nd.Index_graph.extent_size > !mx then mx := nd.Index_graph.extent_size;
                if nd.Index_graph.k >= 1 then cov1 := !cov1 + nd.Index_graph.extent_size
              end);
          check_int "label_inodes" !inodes (Stats_catalog.label_inodes cat l);
          check_int "label_extent" !extent (Stats_catalog.label_extent cat l);
          check_int "label_max_extent" !mx (Stats_catalog.label_max_extent cat l);
          check_int "covered_extent m=1" !cov1 (Stats_catalog.covered_extent cat l 1);
          check_int "covered + uncovered = extent" !extent
            (Stats_catalog.covered_extent cat l 1 + Stats_catalog.uncovered_extent cat l 1)
        done;
        (* k histogram covers every live node *)
        let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Stats_catalog.k_histogram cat) in
        check_int "k_histogram total" (Index_graph.n_nodes idx) total);
    test "covered_extent is monotone in m and saturates at k_cap" (fun () ->
        let g = random_graph ~seed:31 ~nodes:120 in
        let idx = A_k_index.build g ~k:3 in
        let cat = Stats_catalog.create idx in
        let pool = Data_graph.pool g in
        for code = 0 to Label.Pool.count pool - 1 do
          let l = Label.of_int code in
          check_int "m=0 covers whole label" (Stats_catalog.label_extent cat l)
            (Stats_catalog.covered_extent cat l 0);
          let prev = ref max_int in
          for m = 0 to Stats_catalog.k_cap do
            let c = Stats_catalog.covered_extent cat l m in
            if c > !prev then Alcotest.failf "covered_extent not monotone at m=%d" m;
            prev := c
          done;
          check_int "beyond cap = at cap"
            (Stats_catalog.covered_extent cat l Stats_catalog.k_cap)
            (Stats_catalog.covered_extent cat l (Stats_catalog.k_cap + 40))
        done);
    test "refresh is generation-gated" (fun () ->
        let g = random_graph ~seed:77 ~nodes:80 in
        let queries = Query_gen.generate ~seed:77 ~count:10 g in
        let idx = Dk_index.build g ~reqs:(Miner.mine g queries) in
        let cat = Stats_catalog.create idx in
        check_int "one sweep at create" 1 (Stats_catalog.refreshes cat);
        Stats_catalog.refresh cat;
        Stats_catalog.refresh cat;
        check_int "no-op refreshes" 1 (Stats_catalog.refreshes cat);
        let u = 0 and v = Data_graph.n_nodes g - 1 in
        if not (Data_graph.has_edge g u v) then Dk_update.add_edge idx u v;
        Stats_catalog.refresh cat;
        check_int "resweep after mutation" 2 (Stats_catalog.refreshes cat);
        check_int "generation tracked" (Index_graph.generation idx)
          (Stats_catalog.generation cat));
    test "cache hit rate feeds from observe_cache" (fun () ->
        let g = random_graph ~seed:5 ~nodes:40 in
        let idx = One_index.build g in
        let cat = Stats_catalog.create idx in
        Alcotest.(check (float 1e-9)) "no observations" 0.0 (Stats_catalog.cache_hit_rate cat);
        Stats_catalog.observe_cache cat ~hits:3 ~misses:1;
        Alcotest.(check (float 1e-9)) "3/4" 0.75 (Stats_catalog.cache_hit_rate cat));
  ]

(* ------------------------------------------------------------------ *)
(* Index_stats.source (satellite: lazy recompute off the generation
   counter)                                                            *)

let index_stats_tests =
  [
    test "Index_stats.source recomputes only when the index moves" (fun () ->
        let g = random_graph ~seed:51 ~nodes:100 in
        let queries = Query_gen.generate ~seed:51 ~count:10 g in
        let idx = Dk_index.build g ~reqs:(Miner.mine g queries) in
        let src = Index_stats.source idx in
        assert (Index_stats.source_index src == idx);
        check_int "lazy before first get" 0 (Index_stats.recomputes src);
        let s1 = Index_stats.get src in
        let s2 = Index_stats.get src in
        check_int "one compute" 1 (Index_stats.recomputes src);
        assert (s1 == s2);
        check_int "matches direct compute" (Index_stats.compute idx).Index_stats.n_nodes
          s1.Index_stats.n_nodes;
        let u = 0 and v = Data_graph.n_nodes g - 1 in
        if not (Data_graph.has_edge g u v) then Dk_update.add_edge idx u v;
        let s3 = Index_stats.get src in
        check_int "recompute after mutation" 2 (Index_stats.recomputes src);
        check_int "fresh stats" (Index_stats.compute idx).Index_stats.n_nodes
          s3.Index_stats.n_nodes);
  ]

(* ------------------------------------------------------------------ *)
(* Enumeration and ranking                                             *)

let plan_tests =
  [
    test "plans are ranked, deterministic, raw-terminated" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:3 ~scale:8 () in
        let pl, _ = build_family g in
        let expr = Path_parser.parse "site.regions.africa.item" in
        let ranked = Planner.plans pl expr in
        (match List.rev ranked with
        | last :: _ -> assert (last.Plan.access = Plan.Raw)
        | [] -> Alcotest.fail "no plans");
        let costs = List.filter_map
            (fun p -> if p.Plan.access = Plan.Raw then None else Some p.Plan.est_total)
            ranked
        in
        let rec sorted = function
          | a :: (b :: _ as rest) -> a <= b && sorted rest
          | _ -> true
        in
        assert (sorted costs);
        (* deterministic: same ranked list on every call *)
        assert (List.map Plan.describe ranked = List.map Plan.describe (Planner.plans pl expr));
        assert (Plan.describe (Planner.choose pl expr) = Plan.describe (List.hd ranked)));
    test "choose_path allocates O(1) words" (fun () ->
        (* Catalog consultation is array indexing into the swept rows and
           a bounded list of plan records: no per-extent or per-node work
           (5 words measured). *)
        let g = Dkindex_datagen.Xmark.graph ~scale:8 () in
        let pl, _ = build_family ~with_cache:false g in
        let path =
          Array.map
            (fun l -> Option.get (Label.Pool.find_opt (Data_graph.pool g) l))
            [| "site"; "open_auctions"; "open_auction"; "bidder"; "personref" |]
        in
        ignore (Planner.choose_path pl path);
        let n = 1_000 in
        let before = allocated_words () in
        for _ = 1 to n do
          ignore (Planner.choose_path pl path)
        done;
        let per = (allocated_words () -. before) /. float_of_int n in
        check_bool (Printf.sprintf "%.0f words per choose_path (budget 2048)" per) true
          (per <= 2048.0));
    test "unknown label plans as an empty raw no-op" (fun () ->
        let g = random_graph ~seed:8 ~nodes:30 in
        let pl, _ = build_family g in
        let expr = Path_parser.parse "no_such_label.l0" in
        (match Planner.plans pl expr with
        | [ p ] ->
          assert (p.Plan.access = Plan.Raw);
          let r = Planner.execute pl p expr in
          check_int_list "empty" [] r.Query_eval.nodes
        | ps -> Alcotest.failf "expected 1 plan, got %d" (List.length ps)));
    test "explain marks the chosen plan" (fun () ->
        let g = random_graph ~seed:12 ~nodes:60 in
        let pl, _ = build_family g in
        let lines = Planner.explain pl (Path_parser.parse "l0.l1") in
        assert (List.length lines >= 2);
        (match lines with
        | _header :: first :: _ ->
          assert (
            String.length first > 10
            && String.sub first (String.length first - 9) 9 = "<- chosen")
        | _ -> Alcotest.fail "explain too short"));
    test "register rejects duplicates, raw, and foreign indexes" (fun () ->
        let g = random_graph ~seed:13 ~nodes:20 in
        let g2 = random_graph ~seed:14 ~nodes:20 in
        let pl = Planner.create g in
        Planner.register pl ~name:"one" (One_index.build g);
        let expect_invalid f =
          match f () with
          | () -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ()
        in
        expect_invalid (fun () -> Planner.register pl ~name:"one" (Label_split.build g));
        expect_invalid (fun () -> Planner.register pl ~name:"raw" (Label_split.build g));
        expect_invalid (fun () -> Planner.register pl ~name:"foreign" (One_index.build g2)));
    test "execute on an unregistered index raises" (fun () ->
        let g = random_graph ~seed:15 ~nodes:20 in
        let pl, _ = build_family g in
        let bogus =
          {
            Plan.access = Plan.Scan "nope";
            est_index_visits = 0.0;
            est_candidates = 0.0;
            est_data_visits = 0.0;
            est_total = 0.0;
            certain = true;
          }
        in
        match Planner.execute pl bogus (Path_parser.parse "l0.l1") with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    test "planner catalogs refresh lazily through plans" (fun () ->
        let g = random_graph ~seed:16 ~nodes:60 in
        let pl, _ = build_family g in
        let expr = Path_parser.parse "l0.l1" in
        ignore (Planner.plans pl expr);
        let cat = Option.get (Planner.catalog pl "dk") in
        let before = Stats_catalog.refreshes cat in
        ignore (Planner.plans pl expr);
        ignore (Planner.plans pl expr);
        check_int "no resweep without mutation" before (Stats_catalog.refreshes cat);
        let idx = Option.get (Planner.find pl "dk") in
        let u = 0 and v = Data_graph.n_nodes g - 1 in
        if not (Data_graph.has_edge g u v) then begin
          Dk_update.add_edge idx u v;
          ignore (Planner.plans pl expr);
          check_int "resweep after mutation" (before + 1) (Stats_catalog.refreshes cat)
        end);
  ]

(* ------------------------------------------------------------------ *)
(* Executor equivalence                                                *)

let executor_tests =
  [
    test "all access paths agree on XMark fixtures" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:21 ~scale:10 () in
        let pl, queries = build_family g in
        List.iter (check_all_plans_agree pl g) queries);
    test "all access paths agree on NASA fixtures" (fun () ->
        let g = Dkindex_datagen.Nasa.graph ~seed:22 ~scale:10 () in
        let pl, queries = build_family g in
        List.iter (check_all_plans_agree pl g) queries);
    test "eval_planned returns the chosen plan's exact result" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:23 ~scale:8 () in
        let pl, queries = build_family g in
        List.iter
          (fun path ->
            if Array.length path > 0 then begin
              let expr = expr_of_path g path in
              let plan, r = Planner.eval_planned pl expr in
              assert (Plan.describe plan = Plan.describe (Planner.choose pl expr));
              check_int_list "nodes = oracle" (oracle g path) r.Query_eval.nodes
            end)
          queries;
        check_int "no fallbacks" 0 (Planner.fallbacks pl));
    test "eval_planned_path observes the workload" (fun () ->
        let g = random_graph ~seed:24 ~nodes:60 in
        let pl = Planner.create g in
        Planner.register pl ~name:"1-index" (One_index.build g);
        let before = Planner.observed_queries pl in
        let pool = Data_graph.pool g in
        let path =
          [| Option.get (Label.Pool.find_opt pool "l0"); Option.get (Label.Pool.find_opt pool "l1") |]
        in
        let _, r = Planner.eval_planned_path pl path in
        check_int "observed" (before + 1) (Planner.observed_queries pl);
        check_int_list "nodes = oracle" (oracle g path) r.Query_eval.nodes);
    test "general expressions route through scans and raw identically" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:25 ~scale:8 () in
        let pl, _ = build_family g in
        List.iter
          (fun s ->
            let expr = Path_parser.parse s in
            let ranked = Planner.plans pl expr in
            let results =
              List.map (fun p -> (Planner.execute pl p expr).Query_eval.nodes) ranked
            in
            match results with
            | first :: rest ->
              List.iteri
                (fun i r ->
                  if r <> first then
                    Alcotest.failf "%s: plan %d disagrees" s (i + 1))
                rest
            | [] -> Alcotest.fail "no plans")
          [ "site.(regions|people).(item|person)"; "site.(people)*.person.name" ]);
  ]

(* ------------------------------------------------------------------ *)
(* qcheck: every candidate plan agrees with the raw oracle and with
   its own repeat execution on random graphs, through update churn.   *)

let churn g pl ~seed ~rounds =
  let idx = Option.get (Planner.find pl "dk") in
  let rng = Prng.create ~seed in
  let added = ref [] in
  for _ = 1 to rounds do
    match (Prng.int rng 2, !added) with
    | 0, _ | _, [] ->
      let u = Prng.int rng (Data_graph.n_nodes g)
      and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
      if not (Data_graph.has_edge g u v) then begin
        Dk_update.add_edge idx u v;
        added := (u, v) :: !added
      end
    | _, (u, v) :: rest ->
      Dk_update.remove_edge idx u v;
      added := rest
  done

(* After churn the maintained D(k) index stays registered while the
   rest of the family is rebuilt against the mutated graph: the mix of
   an incrementally-updated summary and freshly-built ones is exactly
   what the planner must keep coherent. *)
let rebuilt_family g dk =
  let pl = Planner.create g in
  Planner.register pl ~name:"dk" ~cache:(Validation_cache.create dk) dk;
  let reg name idx = Planner.register pl ~name ~cache:(Validation_cache.create idx) idx in
  reg "ak" (A_k_index.build g ~k:2);
  reg "1-index" (One_index.build g);
  reg "label-split" (Label_split.build g);
  reg "fb" (Fb_index.build g);
  pl

let prop_plans_agree_through_churn =
  QCheck.Test.make ~count:25 ~name:"every candidate plan = raw oracle, through churn"
    (QCheck.make
       ~print:(fun (seed, nodes) -> Printf.sprintf "seed=%d nodes=%d" seed nodes)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 10 80)))
    (fun (seed, nodes) ->
      let g = random_graph ~seed ~nodes in
      let pl, queries = build_family g ~seed in
      List.iter (check_all_plans_agree pl g) queries;
      churn g pl ~seed:(seed * 7) ~rounds:12;
      let dk = Option.get (Planner.find pl "dk") in
      Index_graph.check_invariants dk;
      let pl' = rebuilt_family g dk in
      List.iter (check_all_plans_agree pl' g) queries;
      true)

let prop_plan_results_reproducible =
  QCheck.Test.make ~count:25
    ~name:"per-plan (nodes, n_candidates, n_certain) reproducible; scans = Query_eval"
    (QCheck.make
       ~print:(fun (seed, nodes) -> Printf.sprintf "seed=%d nodes=%d" seed nodes)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 10 80)))
    (fun (seed, nodes) ->
      let g = random_graph ~seed ~nodes in
      (* no caches: costs must also be bit-for-bit reproducible *)
      let pl, queries = build_family g ~with_cache:false ~seed in
      List.iter
        (fun path ->
          if Array.length path > 0 then begin
            let expr = expr_of_path g path in
            List.iter
              (fun p ->
                let triple (r : Query_eval.result) =
                  (r.Query_eval.nodes, r.Query_eval.n_candidates, r.Query_eval.n_certain)
                in
                let r1 = Planner.execute pl p expr in
                let r2 = Planner.execute pl p expr in
                if triple r1 <> triple r2 then
                  Alcotest.failf "plan %s not reproducible" (Plan.describe p);
                match p.Plan.access with
                | Plan.Scan name ->
                  let direct =
                    Query_eval.eval_path ~strategy:`Auto
                      (Option.get (Planner.find pl name))
                      path
                  in
                  if triple r1 <> triple direct then
                    Alcotest.failf "plan %s differs from direct Query_eval"
                      (Plan.describe p)
                | Plan.Intersect _ | Plan.Raw -> ())
              (Planner.plans pl expr)
          end)
        queries;
      true)

let props = List.map to_alcotest [ prop_plans_agree_through_churn; prop_plan_results_reproducible ]

let () =
  Alcotest.run "planner"
    [
      ("catalog", catalog_tests);
      ("index_stats_source", index_stats_tests);
      ("plans", plan_tests);
      ("executors", executor_tests);
      ("properties", props);
    ]
