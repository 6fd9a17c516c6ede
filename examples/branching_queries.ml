(* Branching path queries (tree patterns) and the F&B-index — the
   covering index the paper's future-work section points at.

   Plain path indexes (label-split, A(k), D(k)) can evaluate a tree
   pattern only approximately and must validate candidates against the
   data graph; the F&B-index, stable forwards and backwards, answers
   the same patterns exactly from its extents alone.

   Run with: dune exec examples/branching_queries.exe *)

open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
module Tree_pattern = Dkindex_pathexpr.Tree_pattern
module Cost = Dkindex_pathexpr.Cost

let () =
  let g = Dkindex_datagen.Xmark.graph ~scale:100 () in
  Format.printf "auction site: %a@.@." Data_graph.pp_stats (Data_graph.stats g);

  let patterns =
    [
      (* auctions with a bidder, their item references *)
      "//open_auction[./bidder]/itemref";
      (* people who watch an auction and have an address: their cities *)
      "//person[./watches][./address]/address/city";
      (* items in some category, with mail in the box *)
      "//item[./incategory][.//mail]/name";
      (* branching + descendant axes mixed *)
      "//open_auction[.//personref]//increase";
    ]
  in

  let one = One_index.build g in
  let fb = Fb_index.build g in
  Format.printf "1-index: %d nodes;  F&B-index: %d nodes (the covering price)@.@."
    (Index_graph.n_nodes one) (Index_graph.n_nodes fb);

  Format.printf "%-48s %8s %14s %14s@." "pattern" "answers" "1-idx+validate" "F&B direct";
  List.iter
    (fun src ->
      let pattern = Tree_pattern.parse src in
      let validated = Query_eval.eval_pattern one pattern in
      let direct = Query_eval.eval_pattern ~validate:false fb pattern in
      assert (validated.Query_eval.nodes = direct.Query_eval.nodes);
      Format.printf "%-48s %8d %14d %14d@." src
        (List.length direct.Query_eval.nodes)
        (Cost.total validated.Query_eval.cost)
        (Cost.total direct.Query_eval.cost))
    patterns;
  Format.printf
    "@.Both strategies return identical answers; the F&B column pays no@.validation (data visits = 0) because its extents cover branching queries.@."
