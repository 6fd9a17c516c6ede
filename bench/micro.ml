(* Bechamel micro-benchmarks: one Test.make per table/figure driver,
   over a small fixed dataset so each run is sub-millisecond-to-
   millisecond scale.  Run with `bench/main.exe --bechamel`. *)

open Bechamel
open Toolkit
open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
module Cost = Dkindex_pathexpr.Cost
module Planner = Dkindex_planner.Planner

let tests () =
  let g = Dkindex_datagen.Xmark.graph ~scale:40 () in
  let queries = Dkindex_workload.Query_gen.generate g in
  let reqs = Dkindex_workload.Miner.mine g queries in
  let dk = Dk_index.build g ~reqs in
  let a2 = A_k_index.build g ~k:2 in
  let query = List.nth queries 0 in
  let u, v =
    match
      Experiments.random_update_edges
        { Experiments.ds_name = "Xmark"; graph = g; ref_pairs = Dkindex_datagen.Xmark.ref_pairs }
        ~count:1 ~seed:3
    with
    | [ (u, v) ] -> (u, v)
    | _ -> assert false
  in
  let iu = Index_graph.cls dk u and iv = Index_graph.cls dk v in
  let deep =
    let b = Builder.create () in
    let node = ref (Builder.root b) in
    for _ = 1 to 2000 do
      node := Builder.add_child b ~parent:!node "a"
    done;
    Builder.build b
  in
  (* The planner end to end over the D(k), against the plain scan of
     each summary, for the same path. *)
  let family =
    [
      ("dk", dk);
      ("ak", a2);
      ("1-index", One_index.build g);
      ("label-split", Label_split.build g);
      ("fb", Fb_index.build g);
    ]
  in
  let pl = Planner.create g in
  Planner.register pl ~name:"dk" dk;
  let doc = Index_serial.to_string dk in
  let query_expr =
    Dkindex_pathexpr.Path_ast.seq_of_labels
      (List.map (Label.Pool.name (Data_graph.pool g)) (Array.to_list query))
  in
  [
    (* Figures 4/5: index construction and query evaluation. *)
    Test.make ~name:"fig4/5:build-A(2)" (Staged.stage (fun () -> A_k_index.build g ~k:2));
    Test.make ~name:"fig4/5:build-A(4)" (Staged.stage (fun () -> A_k_index.build g ~k:4));
    Test.make ~name:"fig4/5:build-D(k)" (Staged.stage (fun () -> Dk_index.build g ~reqs));
    Test.make ~name:"fig4/5:query-D(k)" (Staged.stage (fun () -> Query_eval.eval_path dk query));
    Test.make ~name:"fig4/5:query-A(2)" (Staged.stage (fun () -> Query_eval.eval_path a2 query));
    Test.make ~name:"fig4/5:query-data-naive"
      (Staged.stage (fun () ->
           Dkindex_pathexpr.Matcher.eval_label_path g query ~cost:(Cost.create ())));
    (* Regex evaluation on the data graph: product reachability over
       NFA state bitsets. *)
    (let pool = Dkindex_graph.Data_graph.pool g in
     let expr = Dkindex_pathexpr.Path_parser.parse "open_auction.(bidder|seller).personref?" in
     let nfa = Dkindex_pathexpr.Nfa.compile pool expr in
     Test.make ~name:"substrate:regex-NFA-eval"
       (Staged.stage (fun () -> Dkindex_pathexpr.Matcher.eval_nfa g nfa ~cost:(Cost.create ()))));
    (* Table 1: the read-only core of the D(k) edge update. *)
    Test.make ~name:"table1:update-local-similarity"
      (Staged.stage (fun () -> Dk_update.update_local_similarity dk ~u:iu ~v:iv));
    (* Table 1: full edge-addition updates on a fresh index per batch. *)
    Test.make_with_resource ~name:"table1:D(k)-add-edge" Test.multiple
      ~allocate:(fun () -> Dk_index.build (Data_graph.copy g) ~reqs)
      ~free:ignore
      (Staged.stage (fun idx -> Dk_update.add_edge idx u v));
    Test.make_with_resource ~name:"table1:A(2)-add-edge" Test.multiple
      ~allocate:(fun () -> A_k_index.build (Data_graph.copy g) ~k:2)
      ~free:ignore
      (Staged.stage (fun idx -> Ak_update.add_edge idx ~k:2 u v));
    Test.make_with_resource ~name:"table1:data-add-edge" Test.multiple
      ~allocate:(fun () -> Data_graph.copy g)
      ~free:ignore
      (Staged.stage (fun h -> Data_graph.add_edge h u v));
    (* ExtA/ExtB: tuning. *)
    Test.make ~name:"extB:demote-rebuild" (Staged.stage (fun () -> Dk_index.rebuild dk ~reqs));
    (* Figure 1/0-level substrate: bisimulation refinement. *)
    Test.make ~name:"substrate:label-split" (Staged.stage (fun () -> Label_split.build g));
    Test.make ~name:"substrate:1-index" (Staged.stage (fun () -> One_index.build g));
    Test.make ~name:"substrate:1-index-paige-tarjan"
      (Staged.stage (fun () -> Paige_tarjan.build_one_index g));
    (* Deep chains are the hash-refinement worst case (O(m d) rounds). *)
    Test.make ~name:"substrate:deep-chain-hash-refinement"
      (Staged.stage (fun () -> One_index.build deep));
    Test.make ~name:"substrate:deep-chain-paige-tarjan"
      (Staged.stage (fun () -> Paige_tarjan.build_one_index deep));
    (* Persistence on every durable launch: generating the document,
       encoding the index into one buffer, and the CRC the checkpoint
       file's header line carries for the encoded document. *)
    Test.make ~name:"persist:xmark-graph"
      (Staged.stage (fun () -> Dkindex_datagen.Xmark.graph ~scale:40 ()));
    Test.make ~name:"persist:index-encode" (Staged.stage (fun () -> Index_serial.encode dk));
    Test.make ~name:"persist:crc32"
      (Staged.stage (fun () -> Crc32.string doc 0 (String.length doc)));
    (* The batch driver over the whole workload. *)
    Test.make ~name:"serve:batch-throughput"
      (Staged.stage (fun () -> Query_eval.eval_batch dk queries));
  ]
  @ Test.make ~name:"plan:auto" (Staged.stage (fun () -> Planner.eval_planned pl query_expr))
    :: List.map
         (fun (name, idx) ->
           Test.make ~name:("plan:scan-" ^ name)
             (Staged.stage (fun () -> Query_eval.eval_path ~strategy:`Auto idx query)))
         family

let run () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"dkindex" (tests ()))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== Bechamel micro-benchmarks (monotonic clock) ==\n";
  Printf.printf "  %-44s %16s %8s\n  %s\n" "benchmark" "time/run" "r^2"
    (String.make 72 '-');
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with Some [ e ] -> e | Some _ | None -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      let pretty =
        if estimate >= 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
        else if estimate >= 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
        else if estimate >= 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
        else Printf.sprintf "%.0f ns" estimate
      in
      Printf.printf "  %-44s %16s %8.3f\n" name pretty r2)
    rows
