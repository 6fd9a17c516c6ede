(* Nodes and edges accumulate in growable flat [int array]s, so a node
   or an edge costs no boxed allocation, and [build] copies their live
   prefixes into the {!Int_vec}s [Data_graph.of_edge_vecs] takes.  The
   growing storage stays on the OCaml heap on purpose: every doubling
   of a bigarray would count its whole size as off-heap memory and
   pull a major collection forward, where an array is paced like any
   other heap block.  The graph adopts only the fresh copies, so the
   builder can keep growing after a [build]. *)

type t = {
  pool : Label.Pool.t;
  mutable labels : int array;  (* node -> label code, live in [0, count) *)
  mutable count : int;
  mutable src : int array;  (* edge i is src.(i) -> dst.(i), live in [0, n_edges) *)
  mutable dst : int array;
  mutable n_edges : int;
  mutable values : (int * string) list;
      (* newest first; [Data_graph] keeps the oldest entry per node *)
}

let create_with_root root_label =
  let pool = Label.Pool.create () in
  let labels = Array.make 1024 0 in
  labels.(0) <- Label.to_int (Label.Pool.intern pool root_label);
  {
    pool;
    labels;
    count = 1;
    src = Array.make 1024 0;
    dst = Array.make 1024 0;
    n_edges = 0;
    values = [];
  }

let create () = create_with_root Label.root_name
let root _ = 0
let n_nodes b = b.count
let pool b = b.pool

(* [a] with room for slot [len], its first [len] slots kept. *)
let reserve a len =
  if len < Array.length a then a
  else begin
    let bigger = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 bigger 0 len;
    bigger
  end

let add_node b name =
  let l = Label.Pool.intern b.pool name in
  let id = b.count in
  b.labels <- reserve b.labels id;
  b.labels.(id) <- Label.to_int l;
  b.count <- id + 1;
  id

let add_edge b u v =
  let i = b.n_edges in
  b.src <- reserve b.src i;
  b.dst <- reserve b.dst i;
  b.src.(i) <- u;
  b.dst.(i) <- v;
  b.n_edges <- i + 1

let add_child b ~parent name =
  let id = add_node b name in
  add_edge b parent id;
  id

let set_value b node payload = b.values <- (node, payload) :: b.values

let add_value ?text b ~parent =
  let id = add_child b ~parent Label.value_name in
  (match text with Some payload -> set_value b id payload | None -> ());
  id

let build b =
  let prefix a len = Int_vec.init len (Array.unsafe_get a) in
  Data_graph.of_edge_vecs ~values:b.values
    ~pool:(Label.Pool.copy b.pool)
    ~label_codes:(prefix b.labels b.count)
    ~src:(prefix b.src b.n_edges) ~dst:(prefix b.dst b.n_edges) ()
