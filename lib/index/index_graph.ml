open Dkindex_graph

type inode = {
  id : int;
  label : Label.t;
  mutable extent : int array;  (* sorted increasing *)
  mutable extent_size : int;
  mutable k : int;
  mutable req : int;
}

type t = {
  data : Data_graph.t;
  cls : int array;
  mutable nodes : inode option array;
  mutable next_id : int;
  mutable n_alive : int;
  adj : Adjacency.t;
      (* index edges over ids [0, next_id); ids allocated since the last
         fold live in its overflow layer *)
  by_label : int list array;
      (* label code -> index node ids, possibly stale; appended to on
         allocation and compacted on read only when [dead_in_bucket]
         says something in the bucket actually died *)
  dead_in_bucket : int array;  (* label code -> dead ids still in bucket *)
  live_count : int array;  (* label code -> live index nodes *)
  forwards : (int, int list) Hashtbl.t;  (* dead id -> ids that replaced it *)
  mutable generation : int;
      (* bumped on every mutation; validation caches snapshot it *)
  mutable stamp_arr : int array;  (* scratch for [attach_edges] dedup *)
  mutable stamp : int;
  mutable scratch : int array;
}

let k_infinite = max_int / 4

let data t = t.data

let node t id =
  if id < 0 || id >= t.next_id then
    invalid_arg (Printf.sprintf "Index_graph.node: id %d out of range" id)
  else
    match t.nodes.(id) with
    | Some nd -> nd
    | None -> invalid_arg (Printf.sprintf "Index_graph.node: id %d is dead" id)

let is_alive t id = id >= 0 && id < t.next_id && Option.is_some t.nodes.(id)
let cls t u = t.cls.(u)
let root_node t = t.cls.(Data_graph.root t.data)
let n_nodes t = t.n_alive
let max_id t = t.next_id
let n_edges t = Adjacency.n_edges t.adj
let generation t = t.generation
let touch t = t.generation <- t.generation + 1

let extent_mem nd u =
  Int_arr.mem_range nd.extent ~lo:0 ~hi:(Array.length nd.extent) u

let extent_min nd = nd.extent.(0)

let iter_alive t f =
  for id = 0 to t.next_id - 1 do
    match t.nodes.(id) with Some nd -> f nd | None -> ()
  done

let fold_alive t ~init ~f =
  let acc = ref init in
  iter_alive t (fun nd -> acc := f !acc nd);
  !acc

(* ------------------------------------------------------------------ *)
(* Adjacency *)

let iter_children t id f = Adjacency.iter_children t.adj id f
let iter_parents t id f = Adjacency.iter_parents t.adj id f
let exists_children t id pred = Adjacency.exists_children t.adj id pred
let exists_parents t id pred = Adjacency.exists_parents t.adj id pred
let children_list t id = Adjacency.children t.adj id
let parents_list t id = Adjacency.parents t.adj id
let out_degree t id = Adjacency.out_degree t.adj id
let in_degree t id = Adjacency.in_degree t.adj id
let has_index_edge t a b = Adjacency.mem t.adj a b

(* ------------------------------------------------------------------ *)
(* Node allocation *)

let grow_capacity t =
  let nodes = Array.make (max 16 (2 * Array.length t.nodes)) None in
  Array.blit t.nodes 0 nodes 0 t.next_id;
  t.nodes <- nodes

let alloc t ~label ~extent ~k ~req =
  if t.next_id >= Array.length t.nodes then grow_capacity t;
  let id = t.next_id in
  let nd = { id; label; extent; extent_size = Array.length extent; k; req } in
  t.nodes.(id) <- Some nd;
  t.next_id <- id + 1;
  Adjacency.extend t.adj t.next_id;
  t.n_alive <- t.n_alive + 1;
  let code = Label.to_int label in
  t.by_label.(code) <- id :: t.by_label.(code);
  t.live_count.(code) <- t.live_count.(code) + 1;
  nd

let kill t id =
  match t.nodes.(id) with
  | Some nd ->
    t.nodes.(id) <- None;
    t.n_alive <- t.n_alive - 1;
    let code = Label.to_int nd.label in
    t.dead_in_bucket.(code) <- t.dead_in_bucket.(code) + 1;
    t.live_count.(code) <- t.live_count.(code) - 1
  | None -> ()

let nodes_with_label t l =
  let code = Label.to_int l in
  if code < 0 || code >= Array.length t.by_label then []
  else if t.dead_in_bucket.(code) = 0 then t.by_label.(code)
  else begin
    let live = List.filter (is_alive t) t.by_label.(code) in
    t.by_label.(code) <- live;
    t.dead_in_bucket.(code) <- 0;
    live
  end

let count_with_label t l =
  let code = Label.to_int l in
  if code < 0 || code >= Array.length t.live_count then 0 else t.live_count.(code)

let max_k t =
  fold_alive t ~init:0 ~f:(fun acc nd ->
      if nd.k < k_infinite && nd.k > acc then nd.k else acc)

let ensure_scratch t =
  if Array.length t.stamp_arr < t.next_id then begin
    let cap = max 64 (2 * t.next_id) in
    t.stamp_arr <- Array.make cap 0;
    t.scratch <- Array.make cap 0;
    t.stamp <- 0
  end

(* Recompute [nd]'s adjacency from the data graph and patch neighbors'
   runs to point back.  [t.cls] must already map nd's extent to nd.id.
   The distinct neighbor classes are collected first with a stamp-array
   dedup so [Adjacency.add] (tombstone probe, binary search, overflow
   scan) runs once per distinct index edge, not once per data edge. *)
let attach_edges t nd =
  ensure_scratch t;
  let stamp_arr = t.stamp_arr and scratch = t.scratch in
  t.stamp <- t.stamp + 1;
  let s = t.stamp in
  let n = ref 0 in
  Array.iter
    (fun u ->
      Data_graph.iter_parents t.data u (fun p ->
          let ip = t.cls.(p) in
          if stamp_arr.(ip) <> s then begin
            stamp_arr.(ip) <- s;
            scratch.(!n) <- ip;
            incr n
          end))
    nd.extent;
  for i = 0 to !n - 1 do
    Adjacency.add t.adj scratch.(i) nd.id
  done;
  t.stamp <- t.stamp + 1;
  let s = t.stamp in
  n := 0;
  Array.iter
    (fun u ->
      Data_graph.iter_children t.data u (fun c ->
          let ic = t.cls.(c) in
          if stamp_arr.(ic) <> s then begin
            stamp_arr.(ic) <- s;
            scratch.(!n) <- ic;
            incr n
          end))
    nd.extent;
  for i = 0 to !n - 1 do
    Adjacency.add t.adj nd.id scratch.(i)
  done

(* An index over a partition: nodes, extents and the [cls] map, with
   the index edges from [edges], which runs once the partition is
   validated.  Shared by [of_partition] (which projects the data
   edges) and [of_partition_with_edges] (which adopts a precomputed
   CSR, e.g. from an index container). *)
let partition_nodes ~fname g ~cls ~n_classes ~k_of_class ~req_of_class ~edges =
  let n = Data_graph.n_nodes g in
  if Array.length cls <> n then invalid_arg (fname ^ ": cls size mismatch");
  let sizes = Array.make n_classes 0 in
  let labels = Array.make n_classes None in
  for u = 0 to n - 1 do
    let c = cls.(u) in
    if c < 0 || c >= n_classes then invalid_arg (fname ^ ": class out of range");
    sizes.(c) <- sizes.(c) + 1;
    let l = Data_graph.label g u in
    match labels.(c) with
    | None -> labels.(c) <- Some l
    | Some l' ->
      if not (Label.equal l l') then invalid_arg (fname ^ ": class mixes labels")
  done;
  if Array.exists Option.is_none labels then invalid_arg (fname ^ ": empty class");
  (* Fill extents by a second ascending scan: each comes out sorted. *)
  let extents = Array.map (fun s -> Array.make s 0) sizes in
  let fill = Array.make n_classes 0 in
  for u = 0 to n - 1 do
    let c = cls.(u) in
    extents.(c).(fill.(c)) <- u;
    fill.(c) <- fill.(c) + 1
  done;
  let n_labels = Label.Pool.count (Data_graph.pool g) in
  let t =
    {
      data = g;
      cls = Array.copy cls;
      nodes = Array.make (max 16 n_classes) None;
      next_id = 0;
      n_alive = 0;
      adj = edges ();
      by_label = Array.make n_labels [];
      dead_in_bucket = Array.make n_labels 0;
      live_count = Array.make n_labels 0;
      forwards = Hashtbl.create 64;
      generation = 0;
      stamp_arr = [||];
      stamp = 0;
      scratch = [||];
    }
  in
  Array.iteri
    (fun c label ->
      ignore
        (alloc t ~label:(Option.get label) ~extent:extents.(c) ~k:(k_of_class c)
           ~req:(req_of_class c)))
    labels;
  t

(* Out-of-core edge projection: stream every projected (class, class)
   pair through the external sorter, then consume the globally sorted
   merge, skipping duplicates.  The merge order (src ascending, dst
   ascending within a run) IS the CSR layout, so the neighbor vector
   fills left to right with no counting sort and no per-run sort —
   bit-identical to the in-RAM path's output.  Besides the final CSR,
   only the sorter buffer and a staging vector are live, both off-heap,
   and the sorter spills past its budget. *)
let project_edges_external g ~cls ~n_classes =
  let sorter = Ext_sort.Pairs.create () in
  Data_graph.iter_edges g (fun u v -> Ext_sort.Pairs.add sorter cls.(u) cls.(v));
  (* Distinct-pair count is unknown until the merge, so stage the
     neighbor column in a buffer sized by the (known) total and copy
     the deduplicated prefix into an exact-size vector. *)
  let buf = Int_vec.create (max 1 (Ext_sort.Pairs.total sorter)) in
  let off = Int_vec.zeros (n_classes + 1) in
  let m = ref 0 in
  let prev_a = ref (-1) and prev_b = ref (-1) in
  Ext_sort.Pairs.iter_merged sorter (fun a b ->
      if a <> !prev_a || b <> !prev_b then begin
        prev_a := a;
        prev_b := b;
        Int_vec.unsafe_set buf !m b;
        incr m;
        Int_vec.set off (a + 1) (Int_vec.get off (a + 1) + 1)
      end);
  for i = 1 to n_classes do
    Int_vec.set off i (Int_vec.get off i + Int_vec.get off (i - 1))
  done;
  Adjacency.of_children n_classes (off, Int_vec.copy (Int_vec.sub buf ~pos:0 ~len:!m))

(* In-RAM edge projection: project every data edge to its
   (class, class) pair and keep the distinct pairs, which
   [Adjacency.of_edges] counting-sorts into the CSR layout.  A flat
   byte matrix keeps the per-edge check to two loads when the class
   count is small; huge partitions fall back to a hash table. *)
let project_edges_in_ram g ~cls ~n_classes =
  let srcs = ref (Array.make 1024 0) and dsts = ref (Array.make 1024 0) in
  let m = ref 0 in
  let push a b =
    if !m >= Array.length !srcs then begin
      let cap = 2 * Array.length !srcs in
      let s = Array.make cap 0 and d = Array.make cap 0 in
      Array.blit !srcs 0 s 0 !m;
      Array.blit !dsts 0 d 0 !m;
      srcs := s;
      dsts := d
    end;
    !srcs.(!m) <- a;
    !dsts.(!m) <- b;
    incr m
  in
  if n_classes * n_classes <= 1 lsl 22 then begin
    let seen = Bytes.make (n_classes * n_classes) '\000' in
    Data_graph.iter_edges g (fun u v ->
        let a = cls.(u) and b = cls.(v) in
        let i = (a * n_classes) + b in
        if Bytes.unsafe_get seen i = '\000' then begin
          Bytes.unsafe_set seen i '\001';
          push a b
        end)
  end
  else begin
    let seen = Hashtbl.create 256 in
    Data_graph.iter_edges g (fun u v ->
        let a = cls.(u) and b = cls.(v) in
        let key = (a * n_classes) + b in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          push a b
        end)
  end;
  Adjacency.of_edges n_classes [ (!srcs, !dsts, !m) ]

let of_partition ?(mode = `Auto) g ~cls ~n_classes ~k_of_class ~req_of_class =
  let project =
    match Kbisim.resolve_mode mode g with
    | `External -> project_edges_external
    | `In_ram -> project_edges_in_ram
  in
  partition_nodes ~fname:"Index_graph.of_partition" g ~cls ~n_classes ~k_of_class
    ~req_of_class ~edges:(fun () -> project g ~cls ~n_classes)

let of_partition_with_edges g ~cls ~n_classes ~k_of_class ~req_of_class
    ~children:(coff, carr) =
  let fname = "Index_graph.of_partition_with_edges" in
  (* Shape-validate the provided CSR (O(index edges), not O(data
     edges) — skipping the data-edge projection is this entry point's
     whole purpose; content integrity is the container CRC's job). *)
  let edges () =
    if Int_vec.length coff <> n_classes + 1 || Int_vec.get coff 0 <> 0 then
      invalid_arg (fname ^ ": bad offsets shape");
    for c = 0 to n_classes - 1 do
      if Int_vec.get coff c > Int_vec.get coff (c + 1) then
        invalid_arg (fname ^ ": offsets not monotone")
    done;
    if Int_vec.get coff n_classes <> Int_vec.length carr then
      invalid_arg (fname ^ ": offsets/neighbors length mismatch");
    for c = 0 to n_classes - 1 do
      for i = Int_vec.get coff c to Int_vec.get coff (c + 1) - 1 do
        let b = Int_vec.get carr i in
        if b < 0 || b >= n_classes then invalid_arg (fname ^ ": neighbor out of range");
        if i > Int_vec.get coff c && Int_vec.get carr (i - 1) >= b then
          invalid_arg (fname ^ ": neighbor run not sorted strictly increasing")
      done
    done;
    Adjacency.of_children n_classes (coff, carr)
  in
  partition_nodes ~fname g ~cls ~n_classes ~k_of_class ~req_of_class ~edges

let split t id groups =
  let old = node t id in
  (match groups with
  | [] -> invalid_arg "Index_graph.split: no groups"
  | _ -> ());
  let total = List.fold_left (fun acc g -> acc + Array.length g) 0 groups in
  if total <> old.extent_size then
    invalid_arg "Index_graph.split: groups do not cover the extent";
  match groups with
  | [ _ ] -> [ id ]
  | groups ->
    List.iter
      (fun g -> if Array.length g = 0 then invalid_arg "Index_graph.split: empty group")
      groups;
    touch t;
    Adjacency.detach_all t.adj id;
    kill t id;
    let fresh =
      List.map
        (fun extent -> alloc t ~label:old.label ~extent ~k:old.k ~req:old.req)
        groups
    in
    List.iter (fun nd -> Array.iter (fun u -> t.cls.(u) <- nd.id) nd.extent) fresh;
    List.iter (fun nd -> attach_edges t nd) fresh;
    let ids = List.map (fun nd -> nd.id) fresh in
    Hashtbl.replace t.forwards id ids;
    ids

let resolve t id =
  let rec go id =
    if is_alive t id then [ id ]
    else
      match Hashtbl.find_opt t.forwards id with
      | Some ids -> List.concat_map go ids
      | None -> invalid_arg (Printf.sprintf "Index_graph.resolve: unknown id %d" id)
  in
  go id

let add_index_edge t a b =
  ignore (node t a);
  ignore (node t b);
  touch t;
  Adjacency.add t.adj a b

let remove_index_edge t a b =
  ignore (node t a);
  ignore (node t b);
  touch t;
  ignore (Adjacency.remove t.adj a b)

let set_k t id k =
  let nd = node t id in
  if nd.k <> k then begin
    touch t;
    nd.k <- k
  end

let set_req t id req =
  let nd = node t id in
  if nd.req <> req then begin
    touch t;
    nd.req <- req
  end

let keep_sorted t =
  Adjacency.keep_sorted t.adj;
  Data_graph.keep_sorted t.data

let prepare_serving t =
  Adjacency.flatten t.adj;
  Array.iteri
    (fun code dead ->
      if dead > 0 then begin
        t.by_label.(code) <- List.filter (is_alive t) t.by_label.(code);
        t.dead_in_bucket.(code) <- 0
      end)
    t.dead_in_bucket;
  Data_graph.flatten t.data

let as_data_graph t =
  let map = Array.make t.n_alive 0 in
  let rev = Hashtbl.create t.n_alive in
  (* Derived node 0 must hold the data root. *)
  let root_id = root_node t in
  map.(0) <- root_id;
  Hashtbl.add rev root_id 0;
  let count = ref 1 in
  iter_alive t (fun nd ->
      if nd.id <> root_id then begin
        map.(!count) <- nd.id;
        Hashtbl.add rev nd.id !count;
        incr count
      end);
  let pool = Label.Pool.copy (Data_graph.pool t.data) in
  let labels = Array.map (fun id -> (node t id).label) map in
  let edges = ref [] in
  iter_alive t (fun nd ->
      let du = Hashtbl.find rev nd.id in
      iter_children t nd.id (fun c -> edges := (du, Hashtbl.find rev c) :: !edges));
  (Data_graph.make ~pool ~labels ~edges:!edges (), map)

let compact t =
  let dense = Hashtbl.create t.n_alive in
  let count = ref 0 in
  let ks = ref [] and reqs = ref [] in
  iter_alive t (fun nd ->
      Hashtbl.add dense nd.id !count;
      ks := (!count, nd.k) :: !ks;
      reqs := (!count, nd.req) :: !reqs;
      incr count);
  let k_of = Array.make !count 0 and req_of = Array.make !count 0 in
  List.iter (fun (c, k) -> k_of.(c) <- k) !ks;
  List.iter (fun (c, r) -> req_of.(c) <- r) !reqs;
  let cls = Array.map (fun id -> Hashtbl.find dense id) t.cls in
  of_partition t.data ~cls ~n_classes:!count
    ~k_of_class:(fun c -> k_of.(c))
    ~req_of_class:(fun c -> req_of.(c))

(* Dense first-touch numbering of the live index: scanning data nodes
   in id order, each live index node takes the next dense id the first
   time a member of its extent is seen.  Every live node has a
   non-empty extent, so exactly [n_alive] ids are handed out. *)
let dense_classes t =
  let n = Data_graph.n_nodes t.data in
  let of_id = Array.make t.next_id (-1) in
  let order = Array.make t.n_alive 0 in
  let cls = Array.make n 0 in
  let count = ref 0 in
  for u = 0 to n - 1 do
    let id = t.cls.(u) in
    if of_id.(id) < 0 then begin
      of_id.(id) <- !count;
      order.(!count) <- id;
      incr count
    end;
    cls.(u) <- of_id.(id)
  done;
  (cls, order, of_id)

(* Runs re-sorted: the dense remap does not preserve id order.  Read
   only, like [copy]. *)
let dense_children t ~order ~of_id =
  let nc = Array.length order in
  let off = Int_vec.zeros (nc + 1) in
  for c = 0 to nc - 1 do
    Int_vec.set off (c + 1) (Int_vec.get off c + out_degree t order.(c))
  done;
  let arr = Int_vec.create (Int_vec.get off nc) in
  for c = 0 to nc - 1 do
    let lo = Int_vec.get off c in
    let i = ref lo in
    iter_children t order.(c) (fun id ->
        Int_vec.set arr !i of_id.(id);
        incr i);
    Int_vec.sort_range arr ~lo ~hi:!i
  done;
  (off, arr)

(* Read-only on [t] (no CSR flattening), so it is safe on an index
   that other domains are reading. *)
let copy t =
  let cls, order, of_id = dense_classes t in
  (* What the text format's -1 encoding reads back as. *)
  let norm k = if k < 0 || k >= k_infinite then k_infinite else k in
  of_partition_with_edges (Data_graph.copy t.data) ~cls ~n_classes:(Array.length order)
    ~k_of_class:(fun c -> norm (node t order.(c)).k)
    ~req_of_class:(fun c -> norm (node t order.(c)).req)
    ~children:(dense_children t ~order ~of_id)

let partition_signature t =
  let n = Data_graph.n_nodes t.data in
  let repr = Hashtbl.create t.n_alive in
  iter_alive t (fun nd -> Hashtbl.add repr nd.id (extent_min nd, nd.k));
  Array.init n (fun u -> Hashtbl.find repr t.cls.(u))

let fail fmt = Printf.ksprintf failwith fmt

let check_invariants t =
  let n = Data_graph.n_nodes t.data in
  (* cls maps into live nodes and extents are consistent with cls. *)
  let counted = Array.make t.next_id 0 in
  for u = 0 to n - 1 do
    let c = t.cls.(u) in
    if not (is_alive t c) then fail "cls(%d) = %d is dead" u c;
    counted.(c) <- counted.(c) + 1
  done;
  iter_alive t (fun nd ->
      if nd.extent_size <> Array.length nd.extent then fail "extent_size mismatch at %d" nd.id;
      if counted.(nd.id) <> nd.extent_size then
        fail "extent of %d has %d members but cls maps %d nodes to it" nd.id nd.extent_size
          counted.(nd.id);
      for i = 1 to Array.length nd.extent - 1 do
        if nd.extent.(i - 1) >= nd.extent.(i) then fail "extent of %d not sorted" nd.id
      done;
      Array.iter
        (fun u ->
          if t.cls.(u) <> nd.id then fail "node %d in extent of %d but cls says %d" u nd.id t.cls.(u);
          if not (Label.equal (Data_graph.label t.data u) nd.label) then
            fail "label mismatch in extent of %d" nd.id)
        nd.extent);
  (* Edge store is internally consistent: runs sorted and deduped,
     both directions agree, dead nodes carry no edges, and the edge
     counter is exact. *)
  let seen_edges = ref 0 in
  for id = 0 to t.next_id - 1 do
    let cl = children_list t id in
    let pl = parents_list t id in
    if not (is_alive t id) && (cl <> [] || pl <> []) then
      fail "dead node %d still has edges" id;
    let rec check_sorted = function
      | a :: (b :: _ as rest) ->
        if a >= b then fail "adjacency run of %d not sorted/deduped" id;
        check_sorted rest
      | _ -> ()
    in
    check_sorted cl;
    check_sorted pl;
    List.iter
      (fun c ->
        incr seen_edges;
        if not (List.mem id (parents_list t c)) then
          fail "edge %d -> %d missing reverse link" id c)
      cl;
    List.iter
      (fun p ->
        if not (List.mem id (children_list t p)) then
          fail "edge %d -> %d missing forward link" p id)
      pl
  done;
  if !seen_edges <> n_edges t then
    fail "n_edges counter says %d but the store holds %d" (n_edges t) !seen_edges;
  (* Edges match the data graph exactly. *)
  let expected = Hashtbl.create 256 in
  Data_graph.iter_edges t.data (fun u v -> Hashtbl.replace expected (t.cls.(u), t.cls.(v)) ());
  iter_alive t (fun nd ->
      iter_children t nd.id (fun c ->
          if not (is_alive t c) then fail "edge %d -> dead %d" nd.id c;
          if not (Hashtbl.mem expected (nd.id, c)) then
            fail "index edge %d -> %d has no data counterpart" nd.id c);
      iter_parents t nd.id (fun p ->
          if not (is_alive t p) then fail "edge dead %d -> %d" p nd.id));
  Hashtbl.iter
    (fun (a, b) () ->
      if not (has_index_edge t a b) then
        fail "data edge between extents of %d and %d missing in index" a b)
    expected;
  (* Definition 3: k(parent) >= k(child) - 1 along every index edge. *)
  iter_alive t (fun nd ->
      iter_children t nd.id (fun c ->
          let kc = (node t c).k in
          if nd.k < kc - 1 then fail "D(k) violation: k(%d)=%d < k(%d)=%d - 1" nd.id nd.k c kc))

let stats_line t =
  let extent_total = fold_alive t ~init:0 ~f:(fun acc nd -> acc + nd.extent_size) in
  Printf.sprintf "index nodes=%d edges=%d data nodes=%d" t.n_alive (n_edges t) extent_total
