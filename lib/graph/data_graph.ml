(* Adjacency is an [Adjacency.t] over the node ids (sorted CSR runs
   per direction plus an overflow layer, possibly views of a mapped
   Container file); this module adds the labels, the payloads and the
   range checks. *)

type t = {
  pool : Label.Pool.t;
  labels : Int_vec.t;  (* node -> label code *)
  adj : Adjacency.t;
  values : Payloads.t;  (* immutable, so copies share it *)
  mutable by_label : int list array option;
      (* label code -> node ids, built lazily; labels never change *)
}

let pool g = g.pool
let n_nodes g = Int_vec.length g.labels
let n_edges g = Adjacency.n_edges g.adj
let root _ = 0
let label g u = Label.of_int (Int_vec.get g.labels u)
let label_name g u = Label.Pool.name g.pool (Label.of_int (Int_vec.get g.labels u))
let value g u = Payloads.find g.values u

let iter_children g u f = Adjacency.iter_children g.adj u f
let iter_parents g u f = Adjacency.iter_parents g.adj u f
let exists_children g u pred = Adjacency.exists_children g.adj u pred
let exists_parents g u pred = Adjacency.exists_parents g.adj u pred
let children g u = Adjacency.children g.adj u
let parents g u = Adjacency.parents g.adj u
let iter_children_sorted g u f = Adjacency.iter_children_sorted g.adj u f
let out_degree g u = Adjacency.out_degree g.adj u
let in_degree g u = Adjacency.in_degree g.adj u

let iter_nodes g f =
  for u = 0 to n_nodes g - 1 do
    f u
  done

(* One closure for the whole walk, not one per source node: the source
   rides in a ref. *)
let iter_edges g f =
  let src = ref 0 in
  let visit v = f !src v in
  for u = 0 to n_nodes g - 1 do
    src := u;
    iter_children g u visit
  done

let fold_nodes g ~init ~f =
  let acc = ref init in
  iter_nodes g (fun u -> acc := f !acc u);
  !acc

let nodes_with_label g l =
  let table =
    match g.by_label with
    | Some table -> table
    | None ->
      let table = Array.make (Label.Pool.count g.pool) [] in
      (* Walk ids downwards so each bucket ends up increasing. *)
      for u = n_nodes g - 1 downto 0 do
        let code = Int_vec.get g.labels u in
        table.(code) <- u :: table.(code)
      done;
      g.by_label <- Some table;
      table
  in
  let code = Label.to_int l in
  if code < 0 || code >= Array.length table then [] else table.(code)

let has_edge g u v = Adjacency.mem g.adj u v

let check_range n u v =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Data_graph: edge (%d, %d) out of range" u v)

(* ------------------------------------------------------------------ *)
(* Construction and mutation *)

(* Attach labels and payloads to an adjacency.  Payload nodes are
   strictly increasing, so checking the ends checks them all. *)
let assemble ~fname ~values ~pool ~label_codes adj =
  let n = Int_vec.length label_codes and nv = Payloads.length values in
  if nv > 0 && (Payloads.node values 0 < 0 || Payloads.node values (nv - 1) >= n) then
    invalid_arg (fname ^ ": value node out of range");
  { pool; labels = label_codes; adj; values; by_label = None }

(* The CSR constructor range-checks each endpoint in its counting pass,
   under this module's name. *)
let of_segments ~fname ~values ~pool ~label_codes segments =
  let n = Int_vec.length label_codes in
  if n = 0 then invalid_arg (fname ^ ": no nodes");
  assemble ~fname ~values ~pool ~label_codes (Adjacency.of_edges ~what:"Data_graph" n segments)

let of_edges ?(values = Payloads.empty) ~pool ~label_codes segments =
  of_segments ~fname:"Data_graph.of_edges" ~values ~pool ~label_codes segments

let make_of_payloads ~values ~pool ~labels ~edges =
  let m = List.length edges in
  let src = Array.make m 0 and dst = Array.make m 0 in
  List.iteri
    (fun i (u, v) ->
      src.(i) <- u;
      dst.(i) <- v)
    edges;
  of_segments ~fname:"Data_graph.make" ~values ~pool
    ~label_codes:(Int_vec.init (Array.length labels) (fun u -> Label.to_int labels.(u)))
    [ (src, dst, m) ]

let make ?(values = []) ~pool ~labels ~edges () =
  make_of_payloads ~values:(Payloads.of_list values) ~pool ~labels ~edges

(* The vectors are adopted, not copied: for a mapped file this is what
   makes open O(1).  Both directions must already be sorted,
   deduplicated views of the same edge set — Container guarantees that
   for files it wrote. *)
let of_csr ?(values = Payloads.empty) ~pool ~label_codes ~children ~parents () =
  let n = Int_vec.length label_codes in
  if n = 0 then invalid_arg "Data_graph.of_csr: no nodes";
  let adj = Adjacency.of_csr ~children ~parents in
  if Adjacency.n adj <> n then invalid_arg "Data_graph.of_csr: offset length mismatch";
  assemble ~fname:"Data_graph.of_csr" ~values ~pool ~label_codes adj

let of_children ?(values = Payloads.empty) ~pool ~label_codes children =
  let n = Int_vec.length label_codes in
  if n = 0 then invalid_arg "Data_graph.of_children: no nodes";
  assemble ~fname:"Data_graph.of_children" ~values ~pool ~label_codes
    (Adjacency.of_children n children)

let flatten g = Adjacency.flatten g.adj
let keep_sorted g = Adjacency.keep_sorted g.adj
let csr_children g = Adjacency.csr_children g.adj
let csr_parents g = Adjacency.csr_parents g.adj
let label_codes g = g.labels

let payloads g = g.values
let iter_values g f = Payloads.iter g.values f
let n_values g = Payloads.length g.values
let overflow g = Adjacency.overflow g.adj

let add_edge g u v =
  check_range (n_nodes g) u v;
  Adjacency.add g.adj u v

let remove_edge g u v =
  check_range (n_nodes g) u v;
  if not (Adjacency.remove g.adj u v) then
    invalid_arg (Printf.sprintf "Data_graph.remove_edge: no edge (%d, %d)" u v)

let copy g =
  {
    pool = Label.Pool.copy g.pool;
    labels = Int_vec.copy g.labels;
    adj = Adjacency.copy g.adj;
    values = g.values;
    by_label = None;
  }

let graft g h =
  let pool = Label.Pool.copy g.pool in
  let ng = n_nodes g and nh = n_nodes h in
  (* h's root (node 0) is dropped; its other nodes shift by offset - 1. *)
  let offset = ng in
  let remap u = u - 1 + offset in
  let labels = Array.make (ng + nh - 1) (Label.of_int 0) in
  for u = 0 to ng - 1 do
    labels.(u) <- label g u
  done;
  for u = 1 to nh - 1 do
    labels.(remap u) <- Label.Pool.intern pool (label_name h u)
  done;
  let edges = ref [] in
  iter_edges g (fun u v -> edges := (u, v) :: !edges);
  iter_edges h (fun u v ->
      let u' = if u = 0 then root g else remap u
      and v' = if v = 0 then root g else remap v in
      edges := (u', v') :: !edges);
  (* g's payload nodes all precede h's shifted ones: appends in order. *)
  let values = Payloads.acc () in
  iter_values g (Payloads.add values);
  iter_values h (fun u payload -> if u > 0 then Payloads.add values (remap u) payload);
  (make_of_payloads ~values:(Payloads.freeze values) ~pool ~labels ~edges:!edges, offset)

type stats = {
  nodes : int;
  edges : int;
  labels : int;
  max_out_degree : int;
  max_in_degree : int;
  max_depth : int;
  unreachable : int;
}

let stats g =
  let n = n_nodes g in
  let depth = Array.make n (-1) in
  depth.(root g) <- 0;
  let queue = Queue.create () in
  Queue.add (root g) queue;
  let max_depth = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    if depth.(u) > !max_depth then max_depth := depth.(u);
    iter_children g u (fun v ->
        if depth.(v) < 0 then begin
          depth.(v) <- depth.(u) + 1;
          Queue.add v queue
        end)
  done;
  let unreachable = ref 0 in
  Array.iter (fun d -> if d < 0 then incr unreachable) depth;
  let max_out = ref 0 and max_in = ref 0 in
  iter_nodes g (fun u ->
      if out_degree g u > !max_out then max_out := out_degree g u;
      if in_degree g u > !max_in then max_in := in_degree g u);
  {
    nodes = n;
    edges = n_edges g;
    labels = Label.Pool.count g.pool;
    max_out_degree = !max_out;
    max_in_degree = !max_in;
    max_depth = !max_depth;
    unreachable = !unreachable;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "nodes=%d edges=%d labels=%d max_out=%d max_in=%d max_depth=%d unreachable=%d"
    s.nodes s.edges s.labels s.max_out_degree s.max_in_degree s.max_depth
    s.unreachable
