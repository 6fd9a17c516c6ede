open Dkindex_graph

module Path_map = Map.Make (struct
  type t = int list  (* label codes, outermost (farthest) label first *)

  let compare = compare
end)

let label_code t id = Label.to_int (Index_graph.node t id).label

(* Extend every path by one step: prepend the label of each parent of
   each witness node, accumulating witness sets per extended path. *)
let extend t set =
  Path_map.fold
    (fun path witnesses acc ->
      Int_set.fold
        (fun w acc ->
          let acc = ref acc in
          Index_graph.iter_parents t w (fun x ->
              let key = label_code t x :: path in
              acc :=
                Path_map.update key
                  (function
                    | None -> Some (Int_set.singleton x)
                    | Some s -> Some (Int_set.add x s))
                  !acc);
          !acc)
        witnesses acc)
    set Path_map.empty

let update_local_similarity t ~u ~v =
  let nu = Index_graph.node t u and nv = Index_graph.node t v in
  let upbound = min (nu.k + 1) nv.k in
  if upbound <= 0 then 0
  else if Index_graph.has_index_edge t u v then
    (* u is already a parent of v, so every label path entering v
       through u is an old one at every length: the loop below would
       climb all the way to [upbound]. *)
    upbound
  else begin
    (* On a 1-index both k are infinite and, over a cycle, the loop
       may never find a mismatch.  A finite bound is sound: k only
       promises that the extent is that similar, so a lower k only
       sends more queries to validation. *)
    let upbound =
      if upbound >= Index_graph.k_infinite then Index_graph.max_k t + 1 else upbound
    in
    let new_set = Path_map.singleton [ label_code t u ] (Int_set.singleton u) in
    let old_set =
      let acc = ref Path_map.empty in
      Index_graph.iter_parents t v (fun p ->
          acc :=
            Path_map.update
              [ label_code t p ]
              (function
                | None -> Some (Int_set.singleton p)
                | Some s -> Some (Int_set.add p s))
              !acc);
      !acc
    in
    let rec loop k_new new_set old_set =
      if k_new >= upbound then k_new
      else if Path_map.for_all (fun key _ -> Path_map.mem key old_set) new_set then begin
        (* All new label paths of this length match v in the original
           index; keep only the old paths that are also new paths (the
           only ones whose extensions can still be compared) and grow
           both sets one step backwards. *)
        let old_set = Path_map.filter (fun key _ -> Path_map.mem key new_set) old_set in
        loop (k_new + 1) (extend t new_set) (extend t old_set)
      end
      else k_new
    in
    loop 0 new_set old_set
  end

(* Lower an index node's similarity and broadcast the decrease: along
   every edge W -> X we need k(X) <= k(W) + 1; stop where it holds. *)
let lower_and_broadcast t iv k_new =
  Index_graph.set_k t iv (min k_new (Index_graph.node t iv).k);
  let queue = Queue.create () in
  Queue.add iv queue;
  while not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    let kw = (Index_graph.node t w).k in
    Index_graph.iter_children t w (fun x ->
        let nx = Index_graph.node t x in
        if kw + 1 < nx.k then begin
          Index_graph.set_k t x (kw + 1);
          Queue.add x queue
        end)
  done

let add_edge t u v =
  let data = Index_graph.data t in
  let iu = Index_graph.cls t u and iv = Index_graph.cls t v in
  let k_n = update_local_similarity t ~u:iu ~v:iv in
  Log.debug (fun m ->
      m "edge %d->%d: index %d->%d, k(%d) %d -> %d" u v iu iv iv
        (Index_graph.node t iv).k k_n);
  Data_graph.add_edge data u v;
  (* The data edge changes validation answers even when the index edge
     (and every k) is already in place. *)
  Index_graph.touch t;
  Index_graph.add_index_edge t iu iv;
  lower_and_broadcast t iv k_n

let remove_edge t u v =
  let data = Index_graph.data t in
  Data_graph.remove_edge data u v;
  Index_graph.touch t;
  let iu = Index_graph.cls t u and iv = Index_graph.cls t v in
  let in_class w cls = Index_graph.cls t w = cls in
  let retains_parent = Data_graph.exists_parents data v (fun p -> in_class p iu) in
  if not retains_parent then begin
    (* v lost every parent from that extent: its incoming label-path
       set diverged from its siblings' already at length 1. *)
    lower_and_broadcast t iv 0;
    let edge_remains =
      Array.exists
        (fun w -> Data_graph.exists_children data w (fun c -> in_class c iv))
        (Index_graph.node t iu).extent
    in
    if not edge_remains then Index_graph.remove_index_edge t iu iv
  end

let add_subgraph t h ~reqs =
  let g = Index_graph.data t in
  let g', offset = Data_graph.graft g h in
  (* "The index nodes with the same label in the original I_G and I_H
     should have the same local similarity" (Section 5.1): broadcast
     once over the combined graph and hand the closed-form requirements
     to both the subgraph construction and the final rebuild. *)
  let eff = Broadcast.run g' ~reqs in
  let pool' = Data_graph.pool g' in
  let reqs =
    Dkindex_graph.Label.Pool.fold
      (fun code name acc ->
        let k = eff.(Dkindex_graph.Label.to_int code) in
        if k > 0 then (name, k) :: acc else acc)
      pool' []
  in
  let ih = Dk_index.build h ~reqs in
  let h_root_class = Index_graph.cls ih (Data_graph.root h) in
  if (Index_graph.node ih h_root_class).extent_size <> 1 then
    invalid_arg "Dk_update.add_subgraph: subgraph root label must be unique in it";
  (* Combined partition over g': the original classes, then the
     subgraph's classes (minus its root class, which merges with the
     original root's class when the subgraph is grafted). *)
  let n' = Data_graph.n_nodes g' in
  let cls' = Array.make n' 0 in
  let ks = ref [] and count = ref 0 in
  let assign () =
    let id = !count in
    incr count;
    id
  in
  let dense_of_t = Hashtbl.create 256 in
  Index_graph.iter_alive t (fun nd ->
      let id = assign () in
      Hashtbl.add dense_of_t nd.id id;
      ks := (id, nd.k) :: !ks);
  for u = 0 to Data_graph.n_nodes g - 1 do
    cls'.(u) <- Hashtbl.find dense_of_t (Index_graph.cls t u)
  done;
  Index_graph.iter_alive ih (fun nd ->
      if nd.id <> h_root_class then begin
        let id = assign () in
        ks := (id, nd.k) :: !ks;
        Array.iter (fun m -> cls'.(m - 1 + offset) <- id) nd.extent
      end);
  let k_of = Array.make !count 0 in
  List.iter (fun (id, k) -> k_of.(id) <- k) !ks;
  let combined =
    Index_graph.of_partition g' ~cls:cls' ~n_classes:!count
      ~k_of_class:(fun c -> k_of.(c))
      ~req_of_class:(fun c -> k_of.(c))
  in
  let result = Dk_index.rebuild combined ~reqs in
  (* The graft can escalate a label's broadcast requirement beyond what
     the original I_G was refined to (H may introduce new label
     adjacencies).  The rebuild never splits input classes, so promote
     any class whose honest similarity still lags its requirement. *)
  Dk_tune.promote_to_requirements result;
  (g', result)
