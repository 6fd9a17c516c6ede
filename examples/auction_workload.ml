(* Workload-aware indexing of an XMark-like auction site (the paper's
   motivating scenario): generate the data and a realistic query load,
   mine per-label similarity requirements, and compare the resulting
   D(k)-index against the uniform A(k) family.

   Run with: dune exec examples/auction_workload.exe *)

open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
module Cost = Dkindex_pathexpr.Cost

let () =
  let g = Dkindex_datagen.Xmark.graph ~scale:120 () in
  Format.printf "auction site: %a@.@." Data_graph.pp_stats (Data_graph.stats g);

  (* A workload of 100 paths of 2..5 labels: a few long navigations
     plus many branching variations, as in the paper's Section 6.1. *)
  let queries = Dkindex_workload.Query_gen.generate ~seed:7 g in
  Format.printf "sample queries:@.";
  List.iteri
    (fun i q ->
      if i < 5 then
        Format.printf "  %a@." (Dkindex_workload.Query_gen.pp_query g) q)
    queries;

  (* Mine the load: each queried label needs local similarity equal to
     the longest query reaching it, minus one. *)
  let reqs = Dkindex_workload.Miner.mine g queries in
  Format.printf "@.mined requirements (top 10 by k):@.";
  List.iteri
    (fun i (l, k) -> if i < 10 then Format.printf "  %-24s k >= %d@." l k)
    (List.sort (fun (_, a) (_, b) -> compare b a) reqs);

  (* Compare sizes and average query cost. *)
  let avg idx =
    let total =
      List.fold_left
        (fun acc q -> acc + Cost.total (Query_eval.eval_path idx q).Query_eval.cost)
        0 queries
    in
    float_of_int total /. float_of_int (List.length queries)
  in
  Format.printf "@.%-10s %10s %12s@." "index" "size" "avg cost";
  List.iter
    (fun k ->
      let ak = A_k_index.build g ~k in
      Format.printf "%-10s %10d %12.1f@."
        (Printf.sprintf "A(%d)" k)
        (Index_graph.n_nodes ak) (avg ak))
    [ 0; 1; 2; 3; 4 ];
  let dk = Dk_index.build g ~reqs in
  Format.printf "%-10s %10d %12.1f@." "D(k)" (Index_graph.n_nodes dk) (avg dk);
  Format.printf
    "@.D(k) spends index nodes only on labels the load queries deeply,@.so it is smaller than the sound A(4) yet needs no validation.@."
