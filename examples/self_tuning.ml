(* A self-tuning index: the Tuner watches the query stream through a
   sliding window, promotes labels the load starts reaching through
   longer paths, and demotes the index when it outgrows its budget —
   automating the periodic promote/demote passes of Section 5.

   The scenario: a NASA metadata store whose users first browse dataset
   titles (short paths), then shift to provenance digging (long paths
   into revision history), then move on.

   Run with: dune exec examples/self_tuning.exe *)

open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
module Tuner = Dkindex_workload.Tuner
module Cost = Dkindex_pathexpr.Cost
module Prng = Dkindex_datagen.Prng

let phase tuner name queries =
  let total = ref 0 and n = ref 0 in
  List.iter
    (fun q ->
      let r = Tuner.observe tuner q in
      total := !total + Cost.total r.Query_eval.cost;
      incr n)
    queries;
  Format.printf "%-28s avg cost %7.1f   index size %5d@." name
    (float_of_int !total /. float_of_int (max 1 !n))
    (Index_graph.n_nodes (Tuner.index tuner));
  let actions = Tuner.run_maintenance tuner in
  List.iter (fun a -> Format.printf "    maintenance: %a@." Tuner.pp_action a) actions

let repeat rng qs count =
  List.init count (fun _ -> Prng.choose rng (Array.of_list qs))

let () =
  let g = Dkindex_datagen.Nasa.graph ~scale:120 () in
  let pool = Data_graph.pool g in
  let q names = Array.of_list (List.map (fun n -> Option.get (Label.Pool.find_opt pool n)) names) in
  (* Start from the cheapest possible index: label-split, k = 0. *)
  let tuner =
    Tuner.create
      ~config:{ Tuner.default_config with window = 120; size_budget = Some 1200 }
      (Label_split.build g)
  in
  let rng = Prng.create ~seed:17 in

  let browsing =
    [ q [ "dataset"; "title" ]; q [ "dataset"; "altname" ]; q [ "keywords"; "keyword" ] ]
  in
  let provenance =
    [
      q [ "dataset"; "history"; "revision"; "date"; "year" ];
      q [ "dataset"; "history"; "ingest"; "creator" ];
      q [ "dataset"; "reference"; "source"; "journal"; "title" ];
    ]
  in
  let fields = [ q [ "tableHead"; "fields"; "field"; "name" ] ] in

  Format.printf "phase 1: browsing (short paths)@.";
  phase tuner "  browsing, cold" (repeat rng browsing 100);
  phase tuner "  browsing, tuned" (repeat rng browsing 100);

  Format.printf "@.phase 2: provenance digging (long paths)@.";
  phase tuner "  provenance, cold" (repeat rng provenance 100);
  phase tuner "  provenance, tuned" (repeat rng provenance 100);

  Format.printf "@.phase 3: field lookups (medium paths)@.";
  phase tuner "  fields, cold" (repeat rng fields 100);
  phase tuner "  fields, tuned" (repeat rng fields 100);
  Format.printf
    "@.Promotion reacts to each shift; the size budget keeps the index from@.accumulating refinement for workloads that have moved on.@."
