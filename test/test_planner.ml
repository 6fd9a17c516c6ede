(* Query planner: statistics catalog correctness and
   laziness, the two plans of a one-index planner, executor
   equivalence (every plan over every summary answers bit for bit like
   direct evaluation), and robustness under update churn. *)

open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
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

(* The summaries the CLI can plan over, each built on its own. *)
let kinds g ~queries =
  [
    ("dk", fun () -> Dk_index.build g ~reqs:(Miner.mine g queries));
    ("ak", fun () -> A_k_index.build g ~k:2);
    ("1-index", fun () -> One_index.build g);
    ("label-split", fun () -> Label_split.build g);
    ("fb", fun () -> Fb_index.build g);
  ]

(* A planner holding only [idx], with its workload observed. *)
let single ?(with_cache = true) ?(queries = []) g name idx =
  let pl = Planner.create g in
  if with_cache then Planner.register pl ~name ~cache:(Validation_cache.create idx) idx
  else Planner.register pl ~name idx;
  Planner.observe_workload pl queries;
  pl

(* A planner holding only a D(k) mined from a [Query_gen] workload. *)
let dk_planner ?with_cache ?(seed = 42) ?(workload = 20) g =
  let queries = Query_gen.generate ~seed ~count:workload g in
  let dk = Dk_index.build g ~reqs:(Miner.mine g queries) in
  (single ?with_cache ~queries g "dk" dk, queries)

let oracle g path =
  let cost = Cost.create () in
  Matcher.eval_label_path g path ~cost

let expr_of_path g path =
  Path_ast.seq_of_labels
    (List.map (Label.Pool.name (Data_graph.pool g)) (Array.to_list path))

let access_names plans = List.map (fun p -> Plan.access_name p.Plan.access) plans

(* Execute every plan for [expr], requiring the node lists to equal
   [want]; a planner holding an index must offer exactly [scan; raw]. *)
let check_plans_answer pl expr want =
  let plans = Planner.plans pl expr in
  (match Planner.index pl with
  | Some _ -> check_int "plans are [scan; raw]" 2 (List.length plans)
  | None -> ());
  List.iter
    (fun p ->
      let r = Planner.execute pl p expr in
      if r.Query_eval.nodes <> want then
        Alcotest.failf "%s: plan %s disagrees with raw (%d vs %d nodes)"
          (Path_ast.to_string expr) (Plan.describe p) (List.length r.Query_eval.nodes)
          (List.length want))
    plans

let check_all_plans_agree pl g path =
  if Array.length path > 0 then check_plans_answer pl (expr_of_path g path) (oracle g path)

(* For each summary, a planner holding only it answers every workload
   path and each regex like the raw graph, through every plan. *)
let check_kinds_agree g ~queries regexes =
  List.iter
    (fun (name, build) ->
      let pl = single ~queries g name (build ()) in
      List.iter (check_all_plans_agree pl g) queries;
      List.iter
        (fun s ->
          let expr = Path_parser.parse s in
          let nfa = Dkindex_pathexpr.Nfa.compile (Data_graph.pool g) expr in
          check_plans_answer pl expr (Matcher.eval_nfa g nfa ~cost:(Cost.create ())))
        regexes)
    (kinds g ~queries)

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
(* Plans                                                               *)

let expect_invalid f =
  match f () with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let plan_tests =
  [
    test "plans are ranked, deterministic, raw-terminated" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:3 ~scale:8 () in
        let pl, _ = dk_planner g in
        let expr = Path_parser.parse "site.regions.africa.item" in
        let plans = Planner.plans pl expr in
        Alcotest.(check (list string)) "scan, then raw" [ "scan(dk)"; "raw" ] (access_names plans);
        (* deterministic: same plans on every call *)
        assert (List.map Plan.describe plans = List.map Plan.describe (Planner.plans pl expr));
        assert (Plan.describe (Planner.choose pl expr) = Plan.describe (List.hd plans)));
    test "choose_path allocates O(1) words" (fun () ->
        (* Catalog consultation is array indexing into the swept rows and
           a memoized list of plan records: no per-extent or per-node
           work. *)
        let g = Dkindex_datagen.Xmark.graph ~scale:8 () in
        let pl, _ = dk_planner ~with_cache:false g in
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
        let pl, _ = dk_planner g in
        let expr = Path_parser.parse "no_such_label.l0" in
        (match Planner.plans pl expr with
        | [ p ] ->
          assert (p.Plan.access = Plan.Raw);
          let r = Planner.execute pl p expr in
          check_int_list "empty" [] r.Query_eval.nodes
        | ps -> Alcotest.failf "expected 1 plan, got %d" (List.length ps)));
    test "a planner with no index plans [raw]" (fun () ->
        let g = random_graph ~seed:9 ~nodes:60 in
        let pl = Planner.create g in
        check_bool "no index" true (Option.is_none (Planner.index pl));
        let pool = Data_graph.pool g in
        let path = Array.map (fun l -> Option.get (Label.Pool.find_opt pool l)) [| "l0"; "l1" |] in
        let expr = expr_of_path g path in
        Alcotest.(check (list string))
          "label path" [ "raw" ] (access_names (Planner.plans pl expr));
        Alcotest.(check (list string)) "regex" [ "raw" ]
          (access_names (Planner.plans pl (Path_parser.parse "l0.(l1|l2)*")));
        check_bool "choose_path" true ((Planner.choose_path pl path).Plan.access = Plan.Raw);
        let plan, r = Planner.eval_planned pl expr in
        check_bool "raw answered" true (plan.Plan.access = Plan.Raw);
        check_int_list "nodes = oracle" (oracle g path) r.Query_eval.nodes);
    test "explain marks the chosen plan" (fun () ->
        let g = random_graph ~seed:12 ~nodes:60 in
        let pl, _ = dk_planner g in
        let lines = Planner.explain pl (Path_parser.parse "l0.l1") in
        check_int "header and two plans" 3 (List.length lines);
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
        expect_invalid (fun () -> Planner.register pl ~name:"one" (Label_split.build g));
        expect_invalid (fun () ->
            Planner.register (Planner.create g) ~name:"raw" (Label_split.build g));
        expect_invalid (fun () ->
            Planner.register (Planner.create g) ~name:"foreign" (One_index.build g2)));
    test "a second register raises" (fun () ->
        let g = random_graph ~seed:17 ~nodes:40 in
        let pl, _ = dk_planner g in
        let first = Option.get (Planner.index pl) in
        expect_invalid (fun () -> Planner.register pl ~name:"ak" (A_k_index.build g ~k:2));
        check_bool "first index kept" true (Option.get (Planner.index pl) == first);
        Alcotest.(check (list string)) "plans over the first" [ "scan(dk)"; "raw" ]
          (access_names (Planner.plans pl (Path_parser.parse "l0.l1"))));
    test "execute on an unregistered index raises" (fun () ->
        let g = random_graph ~seed:15 ~nodes:20 in
        let pl, _ = dk_planner g in
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
        (* Plans are memoized against the index generation: the same
           list comes back until a mutation re-prices them. *)
        let g = random_graph ~seed:16 ~nodes:60 in
        let pl, _ = dk_planner g in
        let expr = Path_parser.parse "l0.l1" in
        let plans = Planner.plans pl expr in
        check_bool "memoized without mutation" true (Planner.plans pl expr == plans);
        let idx = Option.get (Planner.index pl) in
        let u = 0 and v = Data_graph.n_nodes g - 1 in
        if not (Data_graph.has_edge g u v) then begin
          Dk_update.add_edge idx u v;
          check_bool "re-priced after mutation" false (Planner.plans pl expr == plans)
        end);
  ]

(* ------------------------------------------------------------------ *)
(* Executor equivalence                                                *)

let executor_tests =
  [
    test "the first raw plan after prepare_serving answers like eval_nfa" (fun () ->
        (* [prepare_serving] leaves the data graph's label table to its
           first use, which is the raw plan's start set here. *)
        let idx = Dkindex_server.Dataset.index ~seed:1 ~scale:10 in
        Index_graph.prepare_serving idx;
        let g = Index_graph.data idx in
        let pl = Planner.create g in
        Planner.register pl ~name:"dk" idx;
        List.iter
          (fun q ->
            let expr = Path_parser.parse q in
            let raw = List.find (fun p -> p.Plan.access = Plan.Raw) (Planner.plans pl expr) in
            let got = (Planner.execute pl raw expr).Query_eval.nodes in
            let want =
              Matcher.eval_nfa g
                (Dkindex_pathexpr.Nfa.compile (Data_graph.pool g) expr)
                ~cost:(Cost.create ())
            in
            check_bool (q ^ ": some answers") true (want <> []);
            check_int_list q want got)
          [ "open_auction.bidder.personref"; "person"; "item.name"; "category.name" ]);
    test "all access paths agree on XMark fixtures" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:21 ~scale:10 () in
        let queries = Query_gen.generate ~seed:42 ~count:20 g in
        check_kinds_agree g ~queries
          [ "site.(regions|people).(item|person)"; "site.(people)*.person.name" ]);
    test "all access paths agree on NASA fixtures" (fun () ->
        let g = Dkindex_datagen.Nasa.graph ~seed:22 ~scale:10 () in
        let queries = Query_gen.generate ~seed:42 ~count:20 g in
        check_kinds_agree g ~queries
          [ "dataset.(reference|history).(source|revision)"; "datasets.(dataset)*.title" ]);
    test "eval_planned returns the chosen plan's exact result" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:23 ~scale:8 () in
        let pl, queries = dk_planner g in
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
    test "eval_planned observes the workload" (fun () ->
        let g = random_graph ~seed:24 ~nodes:60 in
        let pl = single g "1-index" (One_index.build g) in
        let before = Planner.observed_queries pl in
        let pool = Data_graph.pool g in
        let path =
          [| Option.get (Label.Pool.find_opt pool "l0"); Option.get (Label.Pool.find_opt pool "l1") |]
        in
        let _, r = Planner.eval_planned pl (expr_of_path g path) in
        check_int "observed" (before + 1) (Planner.observed_queries pl);
        check_int_list "nodes = oracle" (oracle g path) r.Query_eval.nodes);
    test "general expressions route through scans and raw identically" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:25 ~scale:8 () in
        let pl, _ = dk_planner g in
        List.iter
          (fun s ->
            let expr = Path_parser.parse s in
            let plans = Planner.plans pl expr in
            Alcotest.(check (list string)) "scan, then raw" [ "scan(dk)"; "raw" ]
              (access_names plans);
            let results =
              List.map (fun p -> (Planner.execute pl p expr).Query_eval.nodes) plans
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
(* qcheck: every plan agrees with the raw oracle and with its own
   repeat execution on random graphs, through update churn.           *)

let churn g idx ~seed ~rounds =
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

(* The planner keeps the maintained D(k) registered through the churn:
   its catalog and plan memo must follow the incremental updates. *)
let prop_plans_agree_through_churn =
  QCheck.Test.make ~count:25 ~name:"every candidate plan = raw oracle, through churn"
    (QCheck.make
       ~print:(fun (seed, nodes) -> Printf.sprintf "seed=%d nodes=%d" seed nodes)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 10 80)))
    (fun (seed, nodes) ->
      let g = random_graph ~seed ~nodes in
      let pl, queries = dk_planner g ~seed in
      List.iter (check_all_plans_agree pl g) queries;
      let dk = Option.get (Planner.index pl) in
      churn g dk ~seed:(seed * 7) ~rounds:12;
      Index_graph.check_invariants dk;
      List.iter (check_all_plans_agree pl g) queries;
      true)

let prop_plan_results_reproducible =
  QCheck.Test.make ~count:25
    ~name:"per-plan (nodes, n_candidates, n_certain) reproducible; scans = Query_eval"
    (QCheck.make
       ~print:(fun (seed, nodes) -> Printf.sprintf "seed=%d nodes=%d" seed nodes)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 10 80)))
    (fun (seed, nodes) ->
      let g = random_graph ~seed ~nodes in
      (* no cache: costs must also be bit-for-bit reproducible *)
      let pl, queries = dk_planner g ~with_cache:false ~seed in
      let dk = Option.get (Planner.index pl) in
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
                | Plan.Scan _ ->
                  let direct = Query_eval.eval_path ~strategy:`Auto dk path in
                  if triple r1 <> triple direct then
                    Alcotest.failf "plan %s differs from direct Query_eval"
                      (Plan.describe p)
                | Plan.Raw -> ())
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
