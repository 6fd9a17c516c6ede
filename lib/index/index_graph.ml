open Dkindex_graph

type inode = {
  id : int;
  label : Label.t;
  mutable extent : int array;  (* sorted increasing *)
  mutable extent_size : int;
  mutable k : int;
  mutable req : int;
}

(* Index adjacency mirrors Data_graph's layout: one flat offsets array
   plus one flat neighbor array per direction (each run sorted
   increasing), with an overflow layer — per-node extra-edge lists for
   additions, a tombstone table for deletions — folded back into fresh
   CSR arrays once it grows past a fraction of the edge count.  Index
   node ids allocated after the last rebuild ([id >= csr_n]) live
   purely in the overflow until the next fold. *)
type adj = {
  mutable off : int array;  (* csr_n + 1 offsets into arr *)
  mutable arr : int array;  (* neighbor runs, each sorted increasing *)
  mutable csr_n : int;  (* node-id space covered by the offsets *)
}

type t = {
  data : Data_graph.t;
  cls : int array;
  mutable nodes : inode option array;
  mutable next_id : int;
  mutable n_alive : int;
  mutable n_iedges : int;  (* live index edges, maintained exactly *)
  children : adj;
  parents : adj;
  mutable extra_children : int list array;  (* capacity tracks [nodes] *)
  mutable extra_parents : int list array;
  deleted : (int, unit) Hashtbl.t;  (* tombstoned CSR edges, keyed by [edge_key] *)
  mutable del_out : int array;  (* id -> tombstoned out-edges; capacity tracks [nodes] *)
  mutable del_in : int array;  (* id -> tombstoned in-edges *)
  mutable n_extra : int;
  mutable n_deleted : int;
  mutable rebuild_at : int;  (* overflow size that triggers a rebuild *)
  by_label : int list array;
      (* label code -> index node ids, possibly stale; appended to on
         allocation and compacted on read only when [dead_in_bucket]
         says something in the bucket actually died *)
  dead_in_bucket : int array;  (* label code -> dead ids still in bucket *)
  live_count : int array;  (* label code -> live index nodes *)
  forwards : (int, int list) Hashtbl.t;  (* dead id -> ids that replaced it *)
  mutable generation : int;
      (* bumped on every mutation; validation caches snapshot it *)
  mutable tracer : (int -> unit) option;
      (* structural-change observer: called with every index node id
         whose summary-relevant state changes (see [set_tracer]) *)
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
let n_edges t = t.n_iedges
let generation t = t.generation
let touch t = t.generation <- t.generation + 1
let set_tracer t f = t.tracer <- f
let trace t id = match t.tracer with Some f -> f id | None -> ()

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
(* Adjacency: CSR run (skipping tombstones when any exist) + overflow *)

(* Tombstones are keyed by one immediate int, not an (int * int) tuple:
   membership tests sit on the iteration hot path, and hashing a tuple
   both allocates and follows pointers.  Index-node ids are array
   indexes, far below 2^31, so the packing cannot collide.  [del_out] /
   [del_in] count tombstones per endpoint so iteration over the vast
   majority of nodes — whose runs contain no tombstoned edge — skips
   the table entirely even mid-churn. *)
let edge_key a b = (a lsl 31) lor b

let iter_children t id f =
  if id < t.children.csr_n then begin
    let off = t.children.off and arr = t.children.arr in
    if t.del_out.(id) = 0 then
      for i = off.(id) to off.(id + 1) - 1 do
        f arr.(i)
      done
    else
      for i = off.(id) to off.(id + 1) - 1 do
        if not (Hashtbl.mem t.deleted (edge_key id arr.(i))) then f arr.(i)
      done
  end;
  if t.n_extra > 0 then List.iter f t.extra_children.(id)

let iter_parents t id f =
  if id < t.parents.csr_n then begin
    let off = t.parents.off and arr = t.parents.arr in
    if t.del_in.(id) = 0 then
      for i = off.(id) to off.(id + 1) - 1 do
        f arr.(i)
      done
    else
      for i = off.(id) to off.(id + 1) - 1 do
        if not (Hashtbl.mem t.deleted (edge_key arr.(i) id)) then f arr.(i)
      done
  end;
  if t.n_extra > 0 then List.iter f t.extra_parents.(id)

let exists_children t id pred =
  let found = ref false in
  if id < t.children.csr_n then begin
    let off = t.children.off and arr = t.children.arr in
    let i = ref off.(id) and hi = off.(id + 1) in
    if t.del_out.(id) = 0 then
      while (not !found) && !i < hi do
        if pred arr.(!i) then found := true;
        incr i
      done
    else
      while (not !found) && !i < hi do
        if (not (Hashtbl.mem t.deleted (edge_key id arr.(!i)))) && pred arr.(!i) then found := true;
        incr i
      done
  end;
  !found || (t.n_extra > 0 && List.exists pred t.extra_children.(id))

let exists_parents t id pred =
  let found = ref false in
  if id < t.parents.csr_n then begin
    let off = t.parents.off and arr = t.parents.arr in
    let i = ref off.(id) and hi = off.(id + 1) in
    if t.del_in.(id) = 0 then
      while (not !found) && !i < hi do
        if pred arr.(!i) then found := true;
        incr i
      done
    else
      while (not !found) && !i < hi do
        if (not (Hashtbl.mem t.deleted (edge_key arr.(!i) id))) && pred arr.(!i) then found := true;
        incr i
      done
  end;
  !found || (t.n_extra > 0 && List.exists pred t.extra_parents.(id))

let collect_sorted t a ~extra ~ndel ~del id =
  let base = ref [] in
  if id < a.csr_n then begin
    let off = a.off and arr = a.arr in
    for i = off.(id + 1) - 1 downto off.(id) do
      if ndel = 0 || not (Hashtbl.mem t.deleted (del id arr.(i))) then
        base := arr.(i) :: !base
    done
  end;
  match (if t.n_extra = 0 then [] else extra.(id)) with
  | [] -> !base
  | extras -> List.merge Int.compare !base (List.sort Int.compare extras)

let children_list t id =
  collect_sorted t t.children ~extra:t.extra_children ~ndel:t.del_out.(id) ~del:edge_key id

let parents_list t id =
  collect_sorted t t.parents ~extra:t.extra_parents ~ndel:t.del_in.(id)
    ~del:(fun a b -> edge_key b a) id

let out_degree t id =
  let d = ref 0 in
  iter_children t id (fun _ -> incr d);
  !d

let in_degree t id =
  let d = ref 0 in
  iter_parents t id (fun _ -> incr d);
  !d

let in_csr t a b =
  a < t.children.csr_n
  && Int_arr.mem_range t.children.arr ~lo:t.children.off.(a) ~hi:t.children.off.(a + 1) b

let has_index_edge t a b =
  (not (t.del_out.(a) > 0 && Hashtbl.mem t.deleted (edge_key a b)))
  && (in_csr t a b || (t.n_extra > 0 && List.memq b t.extra_children.(a)))

(* Balances split bursts against read speed: rebuilding at m/4 made an
   update cascade rebuild the CSR several times over, while letting the
   overflow grow to m leaves enough edges outside the flat arrays to
   slow query traversal measurably.  (Serving paths sidestep the
   tradeoff entirely via [prepare_serving].)  The threshold also charges
   for the id space: [rebuild_csr] scans every id ever allocated, and
   split cascades grow [next_id] well past the live edge count, so a
   threshold in edges alone made cascades rebuild ever more expensively
   at the same frequency. *)
let rebuild_threshold ~next_id m = max 64 ((m + next_id) / 2)

(* Fold the overflow layer back into flat arrays covering every id
   allocated so far.  Amortized: runs after O(n_iedges) overflow
   operations and costs O(next_id + edges). *)
let rebuild_csr t =
  let n = t.next_id in
  let deg = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    iter_children t id (fun _ -> deg.(id + 1) <- deg.(id + 1) + 1)
  done;
  for i = 1 to n do
    deg.(i) <- deg.(i) + deg.(i - 1)
  done;
  let fill = Array.copy deg in
  let arr = Array.make deg.(n) 0 in
  for id = 0 to n - 1 do
    iter_children t id (fun c ->
        arr.(fill.(id)) <- c;
        fill.(id) <- fill.(id) + 1)
  done;
  for id = 0 to n - 1 do
    Int_arr.sort_range arr ~lo:deg.(id) ~hi:deg.(id + 1)
  done;
  (* Reverse direction: scanning sources ascending appends each parent
     in increasing order, so runs come out sorted without a sort. *)
  let pdeg = Array.make (n + 1) 0 in
  Array.iter (fun v -> pdeg.(v + 1) <- pdeg.(v + 1) + 1) arr;
  for i = 1 to n do
    pdeg.(i) <- pdeg.(i) + pdeg.(i - 1)
  done;
  let pfill = Array.copy pdeg in
  let parr = Array.make (Array.length arr) 0 in
  for id = 0 to n - 1 do
    for i = deg.(id) to deg.(id + 1) - 1 do
      let v = arr.(i) in
      parr.(pfill.(v)) <- id;
      pfill.(v) <- pfill.(v) + 1
    done
  done;
  t.children.off <- deg;
  t.children.arr <- arr;
  t.children.csr_n <- n;
  t.parents.off <- pdeg;
  t.parents.arr <- parr;
  t.parents.csr_n <- n;
  let cap = Array.length t.nodes in
  t.extra_children <- Array.make cap [];
  t.extra_parents <- Array.make cap [];
  Hashtbl.reset t.deleted;
  t.del_out <- Array.make cap 0;
  t.del_in <- Array.make cap 0;
  t.n_extra <- 0;
  t.n_deleted <- 0;
  t.rebuild_at <- rebuild_threshold ~next_id:t.next_id t.n_iedges

let maybe_rebuild t = if t.n_extra + t.n_deleted > t.rebuild_at then rebuild_csr t

let flatten t =
  if t.n_extra + t.n_deleted > 0 || t.children.csr_n < t.next_id then rebuild_csr t

let csr_children t =
  flatten t;
  (t.children.off, t.children.arr)

let csr_parents t =
  flatten t;
  (t.parents.off, t.parents.arr)

(* Raw edge insert/delete: exact dedup, exact [n_iedges], amortized
   rebuild.  Do not bump [generation] here — the public entry points
   do, once per logical operation. *)
let add_edge_raw t a b =
  if t.del_out.(a) > 0 && Hashtbl.mem t.deleted (edge_key a b) then begin
    (* The slot still exists in the CSR: just lift the tombstone. *)
    Hashtbl.remove t.deleted (edge_key a b);
    t.del_out.(a) <- t.del_out.(a) - 1;
    t.del_in.(b) <- t.del_in.(b) - 1;
    t.n_deleted <- t.n_deleted - 1;
    t.n_iedges <- t.n_iedges + 1
  end
  else if
    not (in_csr t a b || (t.n_extra > 0 && List.memq b t.extra_children.(a)))
  then begin
    t.extra_children.(a) <- b :: t.extra_children.(a);
    t.extra_parents.(b) <- a :: t.extra_parents.(b);
    t.n_extra <- t.n_extra + 1;
    t.n_iedges <- t.n_iedges + 1;
    maybe_rebuild t
  end

let remove_once x l =
  let rec go acc = function
    | [] -> None
    | y :: rest -> if y = x then Some (List.rev_append acc rest) else go (y :: acc) rest
  in
  go [] l

(* No-op if the edge is absent. *)
let remove_edge_raw t a b =
  if t.del_out.(a) > 0 && Hashtbl.mem t.deleted (edge_key a b) then ()
  else if in_csr t a b then begin
    Hashtbl.replace t.deleted (edge_key a b) ();
    t.del_out.(a) <- t.del_out.(a) + 1;
    t.del_in.(b) <- t.del_in.(b) + 1;
    t.n_deleted <- t.n_deleted + 1;
    t.n_iedges <- t.n_iedges - 1;
    maybe_rebuild t
  end
  else
    match remove_once b t.extra_children.(a) with
    | None -> ()
    | Some rest ->
      t.extra_children.(a) <- rest;
      (match remove_once a t.extra_parents.(b) with
      | Some rest -> t.extra_parents.(b) <- rest
      | None -> assert false);
      t.n_extra <- t.n_extra - 1;
      t.n_iedges <- t.n_iedges - 1

(* ------------------------------------------------------------------ *)
(* Node allocation *)

let grow_capacity t =
  let cap = max 16 (2 * Array.length t.nodes) in
  let nodes = Array.make cap None in
  Array.blit t.nodes 0 nodes 0 t.next_id;
  t.nodes <- nodes;
  let ec = Array.make cap [] and ep = Array.make cap [] in
  Array.blit t.extra_children 0 ec 0 t.next_id;
  Array.blit t.extra_parents 0 ep 0 t.next_id;
  t.extra_children <- ec;
  t.extra_parents <- ep;
  let dout = Array.make cap 0 and din = Array.make cap 0 in
  Array.blit t.del_out 0 dout 0 t.next_id;
  Array.blit t.del_in 0 din 0 t.next_id;
  t.del_out <- dout;
  t.del_in <- din

let alloc t ~label ~extent ~k ~req =
  if t.next_id >= Array.length t.nodes then grow_capacity t;
  let id = t.next_id in
  let nd = { id; label; extent; extent_size = Array.length extent; k; req } in
  t.nodes.(id) <- Some nd;
  t.next_id <- id + 1;
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

(* Drop every edge incident to [id] (both directions).  Only called on
   a node about to be retired by [split], so this is a bulk path: the
   generic [remove_edge_raw] pays a [remove_once] list scan per edge,
   which goes quadratic when the node's adjacency sits entirely in the
   overflow layer (the common case for a freshly-split node that splits
   again during an update cascade).  Here the CSR runs are tombstoned
   wholesale — skipping the tombstone table entirely when the node has
   no tombstones yet — and the node's own overflow lists are cleared in
   one sweep, leaving only the unavoidable neighbor-side removals. *)
let detach_all t id =
  (* CSR-resident out-edges. *)
  if id < t.children.csr_n then begin
    let off = t.children.off and arr = t.children.arr in
    let lo = off.(id) and hi = off.(id + 1) in
    if t.del_out.(id) = 0 then begin
      (* No tombstone can name this node as source: every slot is live. *)
      for i = lo to hi - 1 do
        let c = arr.(i) in
        Hashtbl.replace t.deleted (edge_key id c) ();
        t.del_in.(c) <- t.del_in.(c) + 1;
        t.n_deleted <- t.n_deleted + 1;
        t.n_iedges <- t.n_iedges - 1
      done;
      t.del_out.(id) <- t.del_out.(id) + (hi - lo)
    end
    else
      for i = lo to hi - 1 do
        let c = arr.(i) in
        if not (Hashtbl.mem t.deleted (edge_key id c)) then begin
          Hashtbl.replace t.deleted (edge_key id c) ();
          t.del_out.(id) <- t.del_out.(id) + 1;
          t.del_in.(c) <- t.del_in.(c) + 1;
          t.n_deleted <- t.n_deleted + 1;
          t.n_iedges <- t.n_iedges - 1
        end
      done
  end;
  (* CSR-resident in-edges.  A self-loop tombstoned above left
     [del_in id > 0], routing this loop through the probing branch. *)
  if id < t.parents.csr_n then begin
    let off = t.parents.off and arr = t.parents.arr in
    let lo = off.(id) and hi = off.(id + 1) in
    if t.del_in.(id) = 0 then begin
      for i = lo to hi - 1 do
        let p = arr.(i) in
        Hashtbl.replace t.deleted (edge_key p id) ();
        t.del_out.(p) <- t.del_out.(p) + 1;
        t.n_deleted <- t.n_deleted + 1;
        t.n_iedges <- t.n_iedges - 1
      done;
      t.del_in.(id) <- t.del_in.(id) + (hi - lo)
    end
    else
      for i = lo to hi - 1 do
        let p = arr.(i) in
        if not (Hashtbl.mem t.deleted (edge_key p id)) then begin
          Hashtbl.replace t.deleted (edge_key p id) ();
          t.del_out.(p) <- t.del_out.(p) + 1;
          t.del_in.(id) <- t.del_in.(id) + 1;
          t.n_deleted <- t.n_deleted + 1;
          t.n_iedges <- t.n_iedges - 1
        end
      done
  end;
  (* Overflow edges: clear this node's lists wholesale; only the
     neighbor-side lists need a scan.  A self-loop appears in both of
     the node's own lists but is one edge — count it once. *)
  let removed = ref 0 in
  (match t.extra_children.(id) with
  | [] -> ()
  | mine ->
    List.iter
      (fun c ->
        incr removed;
        if c <> id then
          match remove_once id t.extra_parents.(c) with
          | Some rest -> t.extra_parents.(c) <- rest
          | None -> assert false)
      mine;
    t.extra_children.(id) <- []);
  (match t.extra_parents.(id) with
  | [] -> ()
  | mine ->
    List.iter
      (fun p ->
        if p <> id then begin
          incr removed;
          match remove_once id t.extra_children.(p) with
          | Some rest -> t.extra_children.(p) <- rest
          | None -> assert false
        end)
      mine;
    t.extra_parents.(id) <- []);
  if !removed > 0 then begin
    t.n_extra <- t.n_extra - !removed;
    t.n_iedges <- t.n_iedges - !removed
  end;
  maybe_rebuild t

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
   dedup so [add_edge_raw] (tombstone probe, binary search, overflow
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
    add_edge_raw t scratch.(i) nd.id
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
    add_edge_raw t nd.id scratch.(i)
  done

(* Nodes, extents and the [cls] map of a partition — everything but
   the index edges, shared by [of_partition] (which projects the data
   edges) and [of_partition_with_edges] (which installs a precomputed
   CSR, e.g. from an index container). *)
let partition_nodes ~fname g ~cls ~n_classes ~k_of_class ~req_of_class =
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
  (* Fill extents by a second ascending scan: each comes out sorted. *)
  let extents = Array.map (fun s -> Array.make s 0) sizes in
  let fill = Array.make n_classes 0 in
  for u = 0 to n - 1 do
    let c = cls.(u) in
    extents.(c).(fill.(c)) <- u;
    fill.(c) <- fill.(c) + 1
  done;
  let t =
    {
      data = g;
      cls = Array.copy cls;
      nodes = Array.make (max 16 n_classes) None;
      next_id = 0;
      n_alive = 0;
      n_iedges = 0;
      children = { off = [| 0 |]; arr = [||]; csr_n = 0 };
      parents = { off = [| 0 |]; arr = [||]; csr_n = 0 };
      extra_children = Array.make (max 16 n_classes) [];
      extra_parents = Array.make (max 16 n_classes) [];
      deleted = Hashtbl.create 8;
      del_out = Array.make (max 16 n_classes) 0;
      del_in = Array.make (max 16 n_classes) 0;
      n_extra = 0;
      n_deleted = 0;
      rebuild_at = 32;
      by_label = Array.make (Label.Pool.count (Data_graph.pool g)) [];
      dead_in_bucket = Array.make (Label.Pool.count (Data_graph.pool g)) 0;
      live_count = Array.make (Label.Pool.count (Data_graph.pool g)) 0;
      forwards = Hashtbl.create 64;
      generation = 0;
      tracer = None;
      stamp_arr = [||];
      stamp = 0;
      scratch = [||];
    }
  in
  for c = 0 to n_classes - 1 do
    match labels.(c) with
    | None -> invalid_arg (fname ^ ": empty class")
    | Some label ->
      ignore (alloc t ~label ~extent:extents.(c) ~k:(k_of_class c) ~req:(req_of_class c))
  done;
  t

(* Install a child CSR and derive the parent CSR from it by counting
   sort (deterministic: parent runs come out sorted because [a]
   ascends). *)
let install_from_children t n_classes ~coff ~carr =
  let m = Array.length carr in
  let pdeg = Array.make (n_classes + 1) 0 in
  Array.iter (fun v -> pdeg.(v + 1) <- pdeg.(v + 1) + 1) carr;
  for i = 1 to n_classes do
    pdeg.(i) <- pdeg.(i) + pdeg.(i - 1)
  done;
  let pfill = Array.copy pdeg in
  let parr = Array.make m 0 in
  for a = 0 to n_classes - 1 do
    for i = coff.(a) to coff.(a + 1) - 1 do
      let b = carr.(i) in
      parr.(pfill.(b)) <- a;
      pfill.(b) <- pfill.(b) + 1
    done
  done;
  t.children.off <- coff;
  t.children.arr <- carr;
  t.children.csr_n <- n_classes;
  t.parents.off <- pdeg;
  t.parents.arr <- parr;
  t.parents.csr_n <- n_classes;
  t.n_iedges <- m;
  t.rebuild_at <- rebuild_threshold ~next_id:t.next_id m

(* Same cutover point as [Kbisim.auto_threshold]: past ~16M data
   edges the in-RAM dedup structures dominate the heap, and the
   external sorter's sequential passes win anyway. *)
let external_edge_threshold = 1 lsl 24

(* Out-of-core edge projection: stream every projected (class, class)
   pair through the external sorter, then consume the globally sorted
   merge, skipping duplicates.  The merge order (src ascending, dst
   ascending within a run) IS the CSR layout, so the neighbor array
   fills left to right with no counting sort and no per-run sort —
   bit-identical to the in-RAM path's output.  Heap usage is the final
   CSR plus the [n_classes + 1] degree array; the sorter buffer is
   off-heap and spills past its budget. *)
let project_edges_external t g ~n_classes ~deg =
  let sorter = Ext_sort.Pairs.create () in
  Data_graph.iter_edges g (fun u v ->
      Ext_sort.Pairs.add sorter t.cls.(u) t.cls.(v));
  (* Distinct-pair count is unknown until the merge, so stage the
     neighbor column in an off-heap buffer sized by the (known) total
     and copy the deduplicated prefix into an exact-size array. *)
  let buf = Int_vec.create (max 1 (Ext_sort.Pairs.total sorter)) in
  let m = ref 0 in
  let prev_a = ref (-1) and prev_b = ref (-1) in
  Ext_sort.Pairs.iter_merged sorter (fun a b ->
      if a <> !prev_a || b <> !prev_b then begin
        prev_a := a;
        prev_b := b;
        Int_vec.unsafe_set buf !m b;
        incr m;
        deg.(a + 1) <- deg.(a + 1) + 1
      end);
  let carr = Array.init !m (fun i -> Int_vec.unsafe_get buf i) in
  for i = 1 to n_classes do
    deg.(i) <- deg.(i) + deg.(i - 1)
  done;
  install_from_children t n_classes ~coff:deg ~carr

(* In-RAM edge projection: project every data edge to its
   (class, class) pair, dedup, then counting-sort the distinct pairs
   straight into the CSR layout.  A flat byte matrix keeps the
   per-edge check to two loads when the class count is small; huge
   partitions fall back to a hash table. *)
let project_edges_in_ram t g ~n_classes ~deg =
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
    incr m;
    deg.(a + 1) <- deg.(a + 1) + 1
  in
  if n_classes * n_classes <= 1 lsl 22 then begin
    let seen = Bytes.make (n_classes * n_classes) '\000' in
    Data_graph.iter_edges g (fun u v ->
        let a = t.cls.(u) and b = t.cls.(v) in
        let i = (a * n_classes) + b in
        if Bytes.unsafe_get seen i = '\000' then begin
          Bytes.unsafe_set seen i '\001';
          push a b
        end)
  end
  else begin
    let seen = Hashtbl.create 256 in
    Data_graph.iter_edges g (fun u v ->
        let a = t.cls.(u) and b = t.cls.(v) in
        let key = (a * n_classes) + b in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          push a b
        end)
  end;
  for i = 1 to n_classes do
    deg.(i) <- deg.(i) + deg.(i - 1)
  done;
  let cfill = Array.copy deg in
  let carr = Array.make !m 0 in
  for i = 0 to !m - 1 do
    let a = !srcs.(i) in
    carr.(cfill.(a)) <- !dsts.(i);
    cfill.(a) <- cfill.(a) + 1
  done;
  for c = 0 to n_classes - 1 do
    Int_arr.sort_range carr ~lo:deg.(c) ~hi:deg.(c + 1)
  done;
  install_from_children t n_classes ~coff:deg ~carr

let of_partition ?(mode = `Auto) g ~cls ~n_classes ~k_of_class ~req_of_class =
  let t =
    partition_nodes ~fname:"Index_graph.of_partition" g ~cls ~n_classes ~k_of_class
      ~req_of_class
  in
  let project =
    match mode with
    | `External -> project_edges_external
    | `In_ram -> project_edges_in_ram
    | `Auto ->
      if Data_graph.n_edges g >= external_edge_threshold then project_edges_external
      else project_edges_in_ram
  in
  project t g ~n_classes ~deg:(Array.make (n_classes + 1) 0);
  t

let of_partition_with_edges g ~cls ~n_classes ~k_of_class ~req_of_class
    ~children:(coff, carr) =
  let fname = "Index_graph.of_partition_with_edges" in
  let t = partition_nodes ~fname g ~cls ~n_classes ~k_of_class ~req_of_class in
  (* Shape-validate the provided CSR (O(index edges), not O(data
     edges) — skipping the data-edge projection is this entry point's
     whole purpose; content integrity is the container CRC's job). *)
  if Array.length coff <> n_classes + 1 || coff.(0) <> 0 then
    invalid_arg (fname ^ ": bad offsets shape");
  for c = 0 to n_classes - 1 do
    if coff.(c) > coff.(c + 1) then invalid_arg (fname ^ ": offsets not monotone")
  done;
  if coff.(n_classes) <> Array.length carr then
    invalid_arg (fname ^ ": offsets/neighbors length mismatch");
  for c = 0 to n_classes - 1 do
    for i = coff.(c) to coff.(c + 1) - 1 do
      let b = carr.(i) in
      if b < 0 || b >= n_classes then invalid_arg (fname ^ ": neighbor out of range");
      if i > coff.(c) && carr.(i - 1) >= b then
        invalid_arg (fname ^ ": neighbor run not sorted strictly increasing")
    done
  done;
  install_from_children t n_classes ~coff ~carr;
  t

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
    trace t id;
    detach_all t id;
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
  trace t a;
  trace t b;
  add_edge_raw t a b

let remove_index_edge t a b =
  ignore (node t a);
  ignore (node t b);
  touch t;
  trace t a;
  trace t b;
  remove_edge_raw t a b

let set_k t id k =
  let nd = node t id in
  if nd.k <> k then begin
    touch t;
    trace t id;
    nd.k <- k
  end

let set_req t id req =
  let nd = node t id in
  if nd.req <> req then begin
    touch t;
    trace t id;
    nd.req <- req
  end

let prepare_serving t =
  flatten t;
  Array.iteri
    (fun code dead ->
      if dead > 0 then begin
        t.by_label.(code) <- List.filter (is_alive t) t.by_label.(code);
        t.dead_in_bucket.(code) <- 0
      end)
    t.dead_in_bucket;
  Data_graph.flatten t.data;
  (* Force the data graph's lazy label table so concurrent readers
     never race to build it. *)
  ignore (Data_graph.nodes_with_label t.data (Data_graph.label t.data (Data_graph.root t.data)))

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

(* Read-only on [t] (no CSR flattening), so it is safe on an index
   that other domains are reading. *)
let copy t =
  let cls, order, of_id = dense_classes t in
  let nc = Array.length order in
  let coff = Array.make (nc + 1) 0 in
  for c = 0 to nc - 1 do
    coff.(c + 1) <- coff.(c) + out_degree t order.(c)
  done;
  (* Child runs in dense space, re-sorted: the remap does not preserve
     id order. *)
  let carr = Array.make coff.(nc) 0 in
  for c = 0 to nc - 1 do
    let i = ref coff.(c) in
    iter_children t order.(c) (fun id ->
        carr.(!i) <- of_id.(id);
        incr i);
    Int_arr.sort_range carr ~lo:coff.(c) ~hi:coff.(c + 1)
  done;
  (* What the text format's -1 encoding reads back as. *)
  let norm k = if k < 0 || k >= k_infinite then k_infinite else k in
  of_partition_with_edges (Data_graph.copy t.data) ~cls ~n_classes:nc
    ~k_of_class:(fun c -> norm (node t order.(c)).k)
    ~req_of_class:(fun c -> norm (node t order.(c)).req)
    ~children:(coff, carr)

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
  if !seen_edges <> t.n_iedges then
    fail "n_edges counter says %d but the store holds %d" t.n_iedges !seen_edges;
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
