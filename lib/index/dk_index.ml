open Dkindex_graph

type requirements = (string * int) list

let effective_reqs g ~reqs = Broadcast.run g ~reqs

(* Rounds of Algorithm 2 on any source graph: in round k, split only
   classes whose (broadcast) requirement is at least k.  Returns the
   final partition and the per-class requirement, which is also the
   local similarity achieved by each class. *)
let build_partition ?mode g ~label_reqs =
  let p0 = Kbisim.label_partition g in
  let labels = Kbisim.class_labels g p0 in
  let req0 = Array.map (fun l -> label_reqs.(Label.to_int l)) labels in
  let kmax = Array.fold_left max 0 req0 in
  let p = ref p0 and class_req = ref req0 and spare = ref None in
  for k = 1 to kmax do
    let cr = !class_req in
    let p', _changed =
      Kbisim.refine ?mode ?into:!spare g !p ~eligible:(fun c -> cr.(c) >= k)
    in
    class_req := Array.map (fun old_class -> cr.(old_class)) p'.Kbisim.parent_class;
    (* Nothing else holds the previous round's classes: the next round
       writes over them. *)
    spare := Some !p.Kbisim.cls;
    p := p'
  done;
  (!p, !class_req)

let of_built ?mode g (p : Kbisim.partition) class_req =
  Index_graph.of_partition ?mode g ~cls:p.cls ~n_classes:p.n_classes
    ~k_of_class:(fun c -> class_req.(c))
    ~req_of_class:(fun c -> class_req.(c))

let build ?mode g ~reqs =
  let label_reqs = Broadcast.run g ~reqs in
  let p, class_req = build_partition ?mode g ~label_reqs in
  let t = of_built ?mode g p class_req in
  Log.info (fun m ->
      m "built D(k)-index: %d classes over %d data nodes (kmax=%d)" p.Kbisim.n_classes
        (Data_graph.n_nodes g)
        (Array.fold_left max 0 class_req));
  t

(* Restore Definition 3 after k values were capped: lower every child
   whose similarity exceeds its parent's plus one, to a fixpoint. *)
let enforce_definition3 t =
  let queue = Queue.create () in
  Index_graph.iter_alive t (fun nd -> Queue.add nd.Index_graph.id queue);
  while not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    let kw = (Index_graph.node t w).Index_graph.k in
    Index_graph.iter_children t w (fun x ->
        let nx = Index_graph.node t x in
        if kw + 1 < nx.Index_graph.k then begin
          Index_graph.set_k t x (kw + 1);
          Queue.add x queue
        end)
  done

let rebuild ?mode idx ~reqs =
  let derived, inode_of_derived = Index_graph.as_data_graph idx in
  let label_reqs = Broadcast.run derived ~reqs in
  let p, class_req = build_partition ?mode derived ~label_reqs in
  (* Theorem 2 only guarantees the requirement-level similarity when the
     input is a true refinement of the target index.  After source-data
     updates the input's recorded similarities may be lower than its
     structure suggests, so cap each output class by the minimum
     similarity of its constituents — the honest guarantee — and then
     restore Definition 3.  For clean refinements the cap is vacuous. *)
  let new_k = Array.make p.n_classes max_int in
  Array.iteri
    (fun d inode ->
      let c = p.cls.(d) in
      new_k.(c) <- min new_k.(c) (Index_graph.node idx inode).Index_graph.k)
    inode_of_derived;
  Array.iteri (fun c r -> new_k.(c) <- min new_k.(c) r) class_req;
  (* Compose: data node -> its index node -> derived node -> new class. *)
  let derived_of_inode = Hashtbl.create (Array.length inode_of_derived) in
  Array.iteri (fun d inode -> Hashtbl.add derived_of_inode inode d) inode_of_derived;
  let data = Index_graph.data idx in
  let cls =
    Array.init (Data_graph.n_nodes data) (fun u ->
        p.cls.(Hashtbl.find derived_of_inode (Index_graph.cls idx u)))
  in
  let result =
    Index_graph.of_partition data ~cls ~n_classes:p.n_classes
      ~k_of_class:(fun c -> new_k.(c))
      ~req_of_class:(fun c -> class_req.(c))
  in
  enforce_definition3 result;
  Log.info (fun m ->
      m "rebuilt (Theorem 2): %d -> %d index nodes" (Index_graph.n_nodes idx)
        (Index_graph.n_nodes result));
  result
