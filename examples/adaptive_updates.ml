(* The full adaptive lifecycle of a D(k)-index (Section 5): build,
   absorb a stream of edge insertions cheaply, watch soundness (and
   performance) degrade, promote back to the mined requirements, then
   demote when the workload loses interest in deep paths.

   Run with: dune exec examples/adaptive_updates.exe *)

open Dkindex_graph
open Dkindex_core
module Cost = Dkindex_pathexpr.Cost
module Prng = Dkindex_datagen.Prng

let avg idx queries =
  let total =
    List.fold_left
      (fun acc q -> acc + Cost.total (Query_eval.eval_path idx q).Query_eval.cost)
      0 queries
  in
  float_of_int total /. float_of_int (List.length queries)

let report stage idx queries =
  Format.printf "%-34s size=%5d avg cost=%8.1f@." stage (Index_graph.n_nodes idx)
    (avg idx queries)

let () =
  let g = Dkindex_datagen.Nasa.graph ~scale:100 () in
  let queries = Dkindex_workload.Query_gen.generate ~seed:5 g in
  let reqs = Dkindex_workload.Miner.mine g queries in
  let idx = Dk_index.build g ~reqs in
  report "fresh D(k)" idx queries;

  (* A stream of 200 reference-edge insertions (new IDREFs appearing in
     the data).  Each one only lowers local similarities near the
     target index node — no partitioning, no data-graph scan. *)
  let rng = Prng.create ~seed:41 in
  let pool = Data_graph.pool g in
  let pick label =
    let nodes =
      match Label.Pool.find_opt pool label with
      | Some l -> Data_graph.nodes_with_label g l
      | None -> []
    in
    List.nth nodes (Prng.int rng (List.length nodes))
  in
  for _ = 1 to 200 do
    let src_label, dst_label = Prng.choose_list rng Dkindex_datagen.Nasa.ref_pairs in
    Dk_update.add_edge idx (pick src_label) (pick dst_label)
  done;
  report "after 200 edge insertions" idx queries;

  (* Periodic maintenance: promote every index node whose similarity
     fell below its requirement (Algorithm 6). *)
  Dk_tune.promote_to_requirements idx;
  report "after promoting" idx queries;

  (* The workload changes: deep navigation stops, only short lookups
     remain.  Demote (Theorem 2 rebuild) to shed the now-useless
     refinement. *)
  let shallow_reqs = List.map (fun (l, k) -> (l, min k 1)) reqs in
  let demoted = Dk_tune.demote idx ~reqs:shallow_reqs in
  report "after demoting to k <= 1" demoted queries;

  (* And a new document arrives: subgraph addition (Algorithm 3). *)
  let h_graph = Dkindex_datagen.Nasa.graph ~seed:77 ~scale:10 () in
  let g', idx' = Dk_update.add_subgraph demoted h_graph ~reqs:shallow_reqs in
  Format.printf "after inserting a new document:   data nodes %d -> %d, index size %d@."
    (Data_graph.n_nodes g) (Data_graph.n_nodes g') (Index_graph.n_nodes idx')
