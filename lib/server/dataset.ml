open Dkindex_graph
open Dkindex_core

type t = {
  graph : Data_graph.t;
  index : Index_graph.t;
  queries : string list list;
  update_edges : (int * int) list;
}

(* Pinned requirements, so the served index has the same shape in
   every run of the server, the load generator and dkbench. *)
let reqs =
  [
    ("personref", 4);
    ("bidder", 3);
    ("interest", 4);
    ("author", 4);
    ("watch", 2);
    ("itemref", 2);
    ("increase", 2);
    ("city", 3);
  ]

(* Random ID/IDREF edge additions (Section 6.2).  nodes_with_label
   returns increasing ids, so the drawn edges depend only on the graph
   content and the seed. *)
let update_edges g ~count ~seed =
  let rng = Dkindex_datagen.Prng.create ~seed in
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
      Dkindex_datagen.Xmark.ref_pairs
  in
  let groups = Array.of_list groups in
  List.init count (fun _ ->
      let srcs, dsts = Dkindex_datagen.Prng.choose rng groups in
      (Dkindex_datagen.Prng.choose rng srcs, Dkindex_datagen.Prng.choose rng dsts))

let build g = Dk_index.build g ~reqs
let index ~seed ~scale = build (Dkindex_datagen.Xmark.graph ~seed ~scale ())

let make ?(seed = 1) ?(n_queries = 100) ?(n_updates = 200) ~scale () =
  let index = index ~seed ~scale in
  let graph = Index_graph.data index in
  let queries =
    Dkindex_workload.Query_gen.to_strings graph
      (Dkindex_workload.Query_gen.generate ~seed ~count:n_queries graph)
  in
  let update_edges = update_edges graph ~count:n_updates ~seed:(seed + 2) in
  { graph; index; queries; update_edges }
