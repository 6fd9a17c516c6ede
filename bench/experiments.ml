(* Drivers for the paper's experiments (Section 6).  Each function
   prints the rows of one table or figure; bench/main.ml orchestrates.

   Figures 4-7 use the machine-independent cost model (nodes visited);
   Table 1 and the extension experiments report wall-clock time on the
   current host, where only the ordering and growth shape are expected
   to match the paper. *)

open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
module Cost = Dkindex_pathexpr.Cost
module Prng = Dkindex_datagen.Prng
module Query_gen = Dkindex_workload.Query_gen
module Miner = Dkindex_workload.Miner

type dataset = {
  ds_name : string;
  graph : Data_graph.t;
  ref_pairs : (string * string) list;
}

let make_xmark ~scale =
  { ds_name = "Xmark"; graph = Dkindex_datagen.Xmark.graph ~scale (); ref_pairs = Dkindex_datagen.Xmark.ref_pairs }

let make_nasa ~scale =
  { ds_name = "Nasa"; graph = Dkindex_datagen.Nasa.graph ~scale (); ref_pairs = Dkindex_datagen.Nasa.ref_pairs }

let make_treebank ~scale =
  {
    ds_name = "Treebank";
    graph = Dkindex_datagen.Treebank.graph ~scale ();
    ref_pairs = Dkindex_datagen.Treebank.ref_pairs;
  }

let time_of f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Average query cost (nodes visited) over a workload. *)
let avg_cost idx queries =
  let total =
    List.fold_left
      (fun acc q -> acc + Cost.total (Query_eval.eval_path idx q).Query_eval.cost)
      0 queries
  in
  float_of_int total /. float_of_int (max 1 (List.length queries))

let hline = String.make 66 '-'

(* The deterministic columns of the tables that pin the reproduction
   (index sizes, visit figures, answer counts, "identical" flags; no
   wall-clock), collected as they print: bench/main.exe --golden
   writes them out, and the runtest rule diffs the --quick block
   against test/golden/bench-quick.expected. *)
let golden = Buffer.create 4096
let pin fmt = Printf.bprintf golden fmt

let print_perf_row ~table name idx queries =
  let size = Index_graph.n_nodes idx and cost = avg_cost idx queries in
  Printf.printf "  %-8s %12d %18.1f\n" name size cost;
  pin "%s %s size %d visits %.1f\n" table name size cost

(* The random ID/IDREF edge insertions of Section 6.2: a (source label,
   target label) pair from the DTD, one random node from each group. *)
let random_update_edges ds ~count ~seed =
  let rng = Prng.create ~seed in
  let g = ds.graph in
  let pool = Data_graph.pool g in
  let groups =
    List.filter_map
      (fun (src, dst) ->
        match (Label.Pool.find_opt pool src, Label.Pool.find_opt pool dst) with
        | Some ls, Some ld -> (
          match (Data_graph.nodes_with_label g ls, Data_graph.nodes_with_label g ld) with
          | [], _ | _, [] -> None
          | srcs, dsts -> Some (Array.of_list srcs, Array.of_list dsts))
        | _, _ -> None)
      ds.ref_pairs
  in
  if groups = [] then invalid_arg "random_update_edges: no usable ID/IDREF pair";
  let groups = Array.of_list groups in
  List.init count (fun _ ->
      let srcs, dsts = Prng.choose rng groups in
      let u = Prng.choose rng srcs in
      let v = Prng.choose rng dsts in
      (u, v))

(* Build every compared index over its own copy of the data so updates
   stay independent. *)
type competitors = {
  aks : (int * Index_graph.t) list;  (* k, A(k) over a private copy *)
  dk : Index_graph.t;
  reqs : Dk_index.requirements;
  queries : Label.t array list;
}

let build_competitors ?(kmax = 4) ds ~n_queries ~seed =
  let queries = Query_gen.generate ~seed ~count:n_queries ds.graph in
  let reqs = Miner.mine ds.graph queries in
  let aks =
    List.init (kmax + 1) (fun k -> (k, A_k_index.build (Data_graph.copy ds.graph) ~k))
  in
  let dk = Dk_index.build (Data_graph.copy ds.graph) ~reqs in
  { aks; dk; reqs; queries }

(* Figures 4 and 5. *)
let figure_before_updating ~fig ds comp =
  Printf.printf "\n== Figure %d: evaluation performance before updating (%s) ==\n" fig
    ds.ds_name;
  Printf.printf "  %-8s %12s %18s\n  %s\n" "index" "size(nodes)" "avg cost(visits)" hline;
  let table = Printf.sprintf "fig%d %s" fig ds.ds_name in
  List.iter
    (fun (k, ak) -> print_perf_row ~table (Printf.sprintf "A(%d)" k) ak comp.queries)
    comp.aks;
  print_perf_row ~table "D(k)" comp.dk comp.queries

(* Table 1 (applied to one dataset; main prints both columns). *)
type update_timing = { per_index : (string * float) list }

let update_timings ds comp ~n_updates ~seed =
  let edges = random_update_edges ds ~count:n_updates ~seed in
  let time_updates name apply = (name, snd (time_of (fun () -> List.iter apply edges))) in
  let ak_rows =
    List.filter_map
      (fun (k, ak) ->
        if k = 0 then None  (* A(0) never changes under edge addition *)
        else Some (time_updates (Printf.sprintf "A(%d)" k) (fun (u, v) -> Ak_update.add_edge ak ~k u v)))
      comp.aks
  in
  let dk_row = time_updates "D(k)" (fun (u, v) -> Dk_update.add_edge comp.dk u v) in
  { per_index = ak_rows @ [ dk_row ] }

let print_table1 ~n_updates xm nasa =
  Printf.printf "\n== Table 1: update efficiency, %d edge additions (total ms) ==\n" n_updates;
  Printf.printf "  %-8s %12s %12s\n  %s\n" "index" "Xmark" "Nasa" hline;
  List.iter2
    (fun (name, ms_x) (name', ms_n) ->
      assert (String.equal name name');
      Printf.printf "  %-8s %12.1f %12.1f\n" name ms_x ms_n)
    xm.per_index nasa.per_index

(* Figures 6 and 7: the competitors of Table 1 after their updates. *)
let figure_after_updating ~fig ds comp =
  Printf.printf "\n== Figure %d: evaluation performance after updating (%s) ==\n" fig
    ds.ds_name;
  Printf.printf "  %-8s %12s %18s\n  %s\n" "index" "size(nodes)" "avg cost(visits)" hline;
  let table = Printf.sprintf "fig%d %s" fig ds.ds_name in
  List.iter
    (fun (k, ak) -> print_perf_row ~table (Printf.sprintf "A(%d)" k) ak comp.queries)
    comp.aks;
  print_perf_row ~table "D(k)" comp.dk comp.queries

(* Extension A: the promoting process (deferred to the paper's "full
   version"): promote the updated D(k)-index back to its mined
   requirements and re-measure. *)
let ext_promote ds comp =
  Printf.printf "\n== ExtA: promoting after updates (%s) ==\n" ds.ds_name;
  Printf.printf "  %-22s %12s %18s\n  %s\n" "state" "size(nodes)" "avg cost(visits)" hline;
  let row state =
    let size = Index_graph.n_nodes comp.dk and cost = avg_cost comp.dk comp.queries in
    pin "extA %s %s size %d visits %.1f\n" ds.ds_name state size cost;
    Printf.printf "  %-22s %12d %18.1f" ("D(k) " ^ state) size cost
  in
  row "after updates";
  print_newline ();
  let _, ms = time_of (fun () -> Dk_tune.promote_to_requirements comp.dk) in
  row "after promoting";
  Printf.printf "   (promote took %.1f ms)\n" ms

(* Extension B: the demoting process: halve all requirements. *)
let ext_demote ds comp =
  Printf.printf "\n== ExtB: demoting (%s) ==\n" ds.ds_name;
  let halved = List.map (fun (l, k) -> (l, k / 2)) comp.reqs in
  let demoted, ms = time_of (fun () -> Dk_tune.demote comp.dk ~reqs:halved) in
  Printf.printf "  %-22s %12s %18s\n  %s\n" "state" "size(nodes)" "avg cost(visits)" hline;
  Printf.printf "  %-22s %12d %18.1f\n" "D(k) full reqs" (Index_graph.n_nodes comp.dk)
    (avg_cost comp.dk comp.queries);
  Printf.printf "  %-22s %12d %18.1f   (demote took %.1f ms)\n" "D(k) halved reqs"
    (Index_graph.n_nodes demoted) (avg_cost demoted comp.queries) ms

(* Extension C: subgraph addition (Algorithm 3) vs a scratch rebuild. *)
let ext_subgraph ds ~seed =
  Printf.printf "\n== ExtC: subgraph addition (%s) ==\n" ds.ds_name;
  let queries = Query_gen.generate ~seed ds.graph in
  let reqs = Miner.mine ds.graph queries in
  let idx = Dk_index.build (Data_graph.copy ds.graph) ~reqs in
  let h = Dkindex_datagen.Random_graph.graph ~seed:(seed + 7) ~nodes:500 ~n_labels:8 ~extra_edges:40 () in
  let (g', incremental), ms_inc = time_of (fun () -> Dk_update.add_subgraph idx h ~reqs) in
  let scratch, ms_scratch = time_of (fun () -> Dk_index.build g' ~reqs) in
  let equal =
    Index_graph.partition_signature incremental = Index_graph.partition_signature scratch
  in
  pin "extC %s identical %b\n" ds.ds_name equal;
  Printf.printf "  incremental (Alg 3): %.1f ms;  from scratch: %.1f ms;  identical: %b\n"
    ms_inc ms_scratch equal

(* Extension D: the size landscape across all summary structures. *)
let ext_sizes ds =
  Printf.printf "\n== ExtD: index sizes (%s, %d data nodes) ==\n" ds.ds_name
    (Data_graph.n_nodes ds.graph);
  let g = ds.graph in
  Printf.printf "  %-12s %12s\n  %s\n" "index" "size(nodes)" hline;
  Printf.printf "  %-12s %12d\n" "label-split" (Index_graph.n_nodes (Label_split.build g));
  List.iter
    (fun k ->
      Printf.printf "  %-12s %12d\n"
        (Printf.sprintf "A(%d)" k)
        (Index_graph.n_nodes (A_k_index.build g ~k)))
    [ 1; 2; 3; 4 ];
  Printf.printf "  %-12s %12d\n" "1-index" (Index_graph.n_nodes (One_index.build g));
  (match Dataguide.build ~max_states:200_000 g with
  | dg -> Printf.printf "  %-12s %12d\n" "DataGuide" (Dataguide.n_states dg)
  | exception Dataguide.Too_large n ->
    Printf.printf "  %-12s %12s\n" "DataGuide" (Printf.sprintf ">%d (aborted)" n));
  let queries = Query_gen.generate g in
  let reqs = Miner.mine g queries in
  Printf.printf "  %-12s %12d\n" "D(k)" (Index_graph.n_nodes (Dk_index.build g ~reqs))

(* Ablation: quantile-based mining (DESIGN.md's query-load sensitivity
   study): how much size does covering only part of the workload save,
   and what validation cost does the tail then pay? *)
let ext_mining_ablation ds comp =
  Printf.printf "\n== ExtE: requirement-mining ablation (%s) ==\n" ds.ds_name;
  Printf.printf "  %-22s %12s %18s\n  %s\n" "mining rule" "size(nodes)" "avg cost(visits)" hline;
  List.iter
    (fun q ->
      let reqs = Miner.mine_quantile ds.graph ~quantile:q comp.queries in
      let idx = Dk_index.build ds.graph ~reqs in
      Printf.printf "  %-22s %12d %18.1f\n"
        (Printf.sprintf "quantile %.2f" q)
        (Index_graph.n_nodes idx) (avg_cost idx comp.queries))
    [ 0.5; 0.75; 0.9; 1.0 ]

(* ExtF: branching path queries — the F&B-index (future work of the
   paper) vs validating through the 1-index. *)
let ext_fb ds =
  Printf.printf "\n== ExtF: branching path queries (%s) ==\n" ds.ds_name;
  let g = ds.graph in
  let one, ms_one = time_of (fun () -> One_index.build g) in
  let fb, ms_fb = time_of (fun () -> Fb_index.build g) in
  Printf.printf "  1-index: %d nodes (%.1f ms);  F&B-index: %d nodes (%.1f ms)\n"
    (Index_graph.n_nodes one) ms_one (Index_graph.n_nodes fb) ms_fb;
  let patterns =
    if String.equal ds.ds_name "Xmark" then
      [
        "//open_auction[./bidder]/itemref";
        "//person[./watches][./address]/address/city";
        "//item[./incategory][.//mail]/name";
      ]
    else
      [
        "//dataset[./history]/title";
        "//dataset[.//revision]//creator";
        "//tableHead[./tableLinks]/fields/field/name";
      ]
  in
  Printf.printf "  %-46s %8s %16s %12s\n  %s\n" "pattern" "answers" "1-idx+validate"
    "F&B direct" hline;
  List.iter
    (fun src ->
      let pattern = Dkindex_pathexpr.Tree_pattern.parse src in
      let validated = Query_eval.eval_pattern one pattern in
      let direct = Query_eval.eval_pattern ~validate:false fb pattern in
      assert (validated.Query_eval.nodes = direct.Query_eval.nodes);
      let answers = List.length direct.Query_eval.nodes in
      let v = Cost.total validated.Query_eval.cost and d = Cost.total direct.Query_eval.cost in
      pin "extF %s %s answers %d visits %d %d\n" ds.ds_name src answers v d;
      Printf.printf "  %-46s %8d %16d %12d\n" src answers v d)
    patterns

(* ExtG: construction-cost scaling — the O(km) claim of Section 4.2. *)
let ext_scaling ~make_graph ~name ~scales =
  Printf.printf "\n== ExtG: construction time scaling (%s) ==\n" name;
  Printf.printf "  %-8s %10s %12s %12s %12s %12s\n  %s\n" "scale" "nodes" "A(2) ms"
    "A(4) ms" "D(k) ms" "1-idx ms" hline;
  List.iter
    (fun scale ->
      let g : Data_graph.t = make_graph ~scale in
      let queries = Query_gen.generate ~seed:scale g in
      let reqs = Miner.mine g queries in
      let _, a2 = time_of (fun () -> A_k_index.build g ~k:2) in
      let _, a4 = time_of (fun () -> A_k_index.build g ~k:4) in
      let _, dk = time_of (fun () -> Dk_index.build g ~reqs) in
      let _, one = time_of (fun () -> One_index.build g) in
      Printf.printf "  %-8d %10d %12.1f %12.1f %12.1f %12.1f\n" scale
        (Data_graph.n_nodes g) a2 a4 dk one)
    scales

(* ExtH: bulk-loading — materialize the tree, then convert it, vs
   streaming the parser's events straight into the graph builder. *)
let ext_loading ~scale =
  Printf.printf "\n== ExtH: bulk loading an XMark document (scale %d) ==\n" scale;
  let doc = Dkindex_datagen.Xmark.doc ~scale () in
  let text = Dkindex_xml.Xml_writer.doc_to_string doc in
  let config = Dkindex_datagen.Xmark.config in
  let module Sax = Dkindex_xml.Xml_sax in
  let (tree : Dkindex_xml.Xml_to_graph.result), ms_tree =
    time_of (fun () ->
        let doc = Sax.parse_string text in
        Dkindex_xml.Xml_to_graph.convert ~config (Sax.emit_tree doc.root))
  in
  let sax, ms_sax =
    time_of (fun () -> Dkindex_xml.Xml_to_graph.convert ~config (Sax.iter (Sax.of_string text)))
  in
  assert (
    Dkindex_graph.Serial.to_string tree.Dkindex_xml.Xml_to_graph.graph
    = Dkindex_graph.Serial.to_string sax.Dkindex_xml.Xml_to_graph.graph);
  Printf.printf "  document: %.1f MB;  tree parse+convert: %.1f ms;  SAX stream: %.1f ms\n"
    (float_of_int (String.length text) /. 1e6)
    ms_tree ms_sax


(* ExtI: evaluation strategy — forward (the paper's) vs backward vs
   auto, over the same workload. *)
let ext_strategy ds comp =
  Printf.printf "\n== ExtI: evaluation strategy on the D(k)-index (%s) ==\n" ds.ds_name;
  let avg strategy =
    let total =
      List.fold_left
        (fun acc q ->
          acc + Cost.total (Query_eval.eval_path ~strategy comp.dk q).Query_eval.cost)
        0 comp.queries
    in
    float_of_int total /. float_of_int (max 1 (List.length comp.queries))
  in
  Printf.printf "  %-10s %18s\n  %s\n" "strategy" "avg cost(visits)" hline;
  Printf.printf "  %-10s %18.1f\n" "forward" (avg `Forward);
  Printf.printf "  %-10s %18.1f\n" "backward" (avg `Backward);
  Printf.printf "  %-10s %18.1f\n" "auto" (avg `Auto)

(* ExtJ: query-driven cracking — the paper's closing future-work remark
   ("combine update and evaluation").  A cold label-split index serves
   the workload twice, with and without reinvesting validation work;
   compare against the offline-mined D(k). *)
let ext_cracking ds ~seed =
  Printf.printf "\n== ExtJ: query-driven cracking (%s) ==\n" ds.ds_name;
  let queries = Query_gen.generate ~seed ds.graph in
  let total eval idx qs =
    List.fold_left (fun acc q -> acc + Cost.total (eval idx q).Query_eval.cost) 0 qs
  in
  let static = Label_split.build ds.graph in
  let cracked = Label_split.build ds.graph in
  let pass1_static = total Query_eval.eval_path static queries in
  let pass1_cracked = total Cracking.eval_path cracked queries in
  let pass2_static = total Query_eval.eval_path static queries in
  let pass2_cracked = total Cracking.eval_path cracked queries in
  let reqs = Miner.mine ds.graph queries in
  let offline = Dk_index.build ds.graph ~reqs in
  let pass_offline = total Query_eval.eval_path offline queries in
  Printf.printf "  %-26s %14s %14s %10s\n  %s\n" "configuration" "pass 1 cost" "pass 2 cost"
    "size" hline;
  Printf.printf "  %-26s %14d %14d %10d\n" "label-split, static" pass1_static pass2_static
    (Index_graph.n_nodes static);
  Printf.printf "  %-26s %14d %14d %10d\n" "label-split + cracking" pass1_cracked pass2_cracked
    (Index_graph.n_nodes cracked);
  Printf.printf "  %-26s %14d %14d %10d\n" "offline-mined D(k)" pass_offline pass_offline
    (Index_graph.n_nodes offline)

(* ExtK: access paths — the summaries of Figure 4 as alternatives to
   plan over.  For every workload path, a planner holding only one
   summary executes its scan, and a planner holding none walks the raw
   graph.  Each row totals the actual visits of one access path and
   counts the paths it is cheapest for (ties count for each); the last
   row totals the per-path best.  A scan whose answer differs from the
   raw walk fails the run. *)
let ext_access_paths ds comp =
  let module Planner = Dkindex_planner.Planner in
  let g = ds.graph in
  let paths = List.filter (fun q -> Array.length q > 0) comp.queries in
  Printf.printf "\n== ExtK: access paths over the workload (%s, %d paths) ==\n" ds.ds_name
    (List.length paths);
  let exprs =
    List.map
      (fun q ->
        Dkindex_pathexpr.Path_ast.seq_of_labels
          (List.map (Label.Pool.name (Data_graph.pool g)) (Array.to_list q)))
      paths
  in
  let bare = Planner.create g in
  let raw = List.map (fun e -> snd (Planner.eval_planned bare e)) exprs in
  let scans name idx =
    let pl = Planner.create g in
    Planner.register pl ~name idx;
    List.map2
      (fun e (want : Query_eval.result) ->
        let r = Planner.execute pl (Planner.choose pl e) e in
        if r.Query_eval.nodes <> want.Query_eval.nodes then
          failwith
            (Printf.sprintf "ExtK: %s scan of %s disagrees with the raw graph" name
               (Dkindex_pathexpr.Path_ast.to_string e));
        Cost.total r.Query_eval.cost)
      exprs raw
  in
  let rows =
    List.map
      (fun (name, idx) -> (name, string_of_int (Index_graph.n_nodes idx), scans name idx))
      [
        ("D(k)", Dk_index.build g ~reqs:comp.reqs);
        ("A(2)", A_k_index.build g ~k:2);
        ("1-index", One_index.build g);
        ("label-split", Label_split.build g);
        ("F&B", Fb_index.build g);
      ]
    @ [ ("raw", "-", List.map (fun (r : Query_eval.result) -> Cost.total r.Query_eval.cost) raw) ]
  in
  let best =
    match rows with
    | (_, _, v0) :: rest -> List.fold_left (fun acc (_, _, v) -> List.map2 min acc v) v0 rest
    | [] -> []
  in
  let sum = List.fold_left ( + ) 0 in
  let total_best = sum best in
  Printf.printf "  %-14s %12s %14s %10s %9s\n  %s\n" "access path" "size(nodes)" "total visits"
    "paths won" "vs best" hline;
  List.iter
    (fun (name, size, v) ->
      let won = List.length (List.filter Fun.id (List.map2 ( = ) v best)) in
      Printf.printf "  %-14s %12s %14d %10d %8.2fx\n" name size (sum v) won
        (float_of_int (sum v) /. float_of_int (max 1 total_best)))
    rows;
  Printf.printf "  %-14s %12s %14d\n" "per-path best" "-" total_best
