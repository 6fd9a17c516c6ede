(* Adjacency lives in a CSR (compressed sparse row) layout: one flat
   offsets vector and one flat neighbor vector per direction, with each
   node's neighbor run sorted increasing.  Mutation goes through a
   small overflow layer — per-node extra-edge lists for additions and a
   tombstone set for deletions — that is folded back into fresh CSR
   vectors once it grows past a fraction of the edge count, so updates
   stay amortized O(1) and the hot iteration paths stay allocation-free
   flat loads almost all the time.

   The flat storage is Int_vec (a native-int bigarray), so the same
   code path serves heap-resident graphs and graphs whose CSR sections
   are memory-mapped straight out of a Container file.  A mapped graph
   behaves identically; its first overflow fold simply rebuilds into
   fresh heap-side vectors (the mapping itself is never written). *)

type adj = {
  mutable off : Int_vec.t;  (* n + 1 offsets into arr *)
  mutable arr : Int_vec.t;  (* neighbor runs, each sorted increasing *)
}

type t = {
  pool : Label.Pool.t;
  labels : Int_vec.t;  (* node -> label code *)
  children : adj;
  parents : adj;
  values : (int, string) Hashtbl.t;  (* node -> atomic payload *)
  mutable n_edges : int;
  (* Overflow layer: recent additions as per-node lists (unsorted,
     newest first), recent deletions as (u, v) tombstones against the
     CSR. *)
  extra_children : int list array;
  extra_parents : int list array;
  deleted : (int * int, unit) Hashtbl.t;
  mutable n_extra : int;
  mutable n_deleted : int;
  mutable rebuild_at : int;  (* overflow size that triggers a rebuild *)
  mutable by_label : int list array option;
      (* label code -> node ids, built lazily; labels never change *)
}

let pool g = g.pool
let n_nodes g = Int_vec.length g.labels
let n_edges g = g.n_edges
let root _ = 0
let label g u = Label.of_int (Int_vec.get g.labels u)
let label_name g u = Label.Pool.name g.pool (Label.of_int (Int_vec.get g.labels u))
let value g u = Hashtbl.find_opt g.values u

(* ------------------------------------------------------------------ *)
(* CSR construction *)

(* Turn per-node counts, stored at [deg.(u + 1)], into run starts:
   afterwards [deg.(u)] is where node [u]'s run begins and [deg.(n)]
   is the total. *)
let prefix_sum deg n =
  for i = 1 to n do
    Int_vec.set deg i (Int_vec.get deg i + Int_vec.get deg (i - 1))
  done

(* Once a fill pass has advanced every run start [deg.(u)] past its
   run, [deg.(u)] holds the start of run [u + 1]: shift it back.
   Using the offsets vector as the fill cursor saves allocating a
   copy of it. *)
let unshift deg n =
  for u = n - 1 downto 1 do
    Int_vec.set deg u (Int_vec.get deg (u - 1))
  done;
  Int_vec.set deg 0 0

(* Build a children CSR for [n] nodes from an edge producer ([iter]
   must yield the same multiset on every call): counting-sort by
   source, sort each run, then compact duplicates in place, offsets
   included.  Returns the deduplicated layout and edge count. *)
let csr_of_edges n iter =
  let off = Int_vec.zeros (n + 1) in
  iter (fun u _ -> Int_vec.set off (u + 1) (Int_vec.get off (u + 1) + 1));
  prefix_sum off n;
  let arr = Int_vec.create (Int_vec.get off n) in
  iter (fun u v ->
      let i = Int_vec.get off u in
      Int_vec.set arr i v;
      Int_vec.set off u (i + 1));
  unshift off n;
  (* Sort and dedup each run, compacting the whole vector.  [off.(u)]
     is overwritten with the compacted start only after both of run
     [u]'s bounds have been read. *)
  let w = ref 0 in
  for u = 0 to n - 1 do
    let lo = Int_vec.get off u and hi = Int_vec.get off (u + 1) in
    Int_vec.set off u !w;
    Int_vec.sort_range arr ~lo ~hi;
    let len = Int_vec.dedup_range arr ~lo ~hi in
    (* Left-to-right compaction: the write cursor never passes the
       read cursor, so copying in place is safe. *)
    for i = 0 to len - 1 do
      Int_vec.set arr (!w + i) (Int_vec.get arr (lo + i))
    done;
    w := !w + len
  done;
  Int_vec.set off n !w;
  let arr =
    if !w = Int_vec.length arr then arr else Int_vec.sub arr ~pos:0 ~len:!w
  in
  ({ off; arr }, !w)

(* The reverse CSR of a deduplicated children CSR.  Scanning sources in
   increasing order appends each parent in increasing order, so runs
   come out sorted without a sorting pass. *)
let reverse_csr n children =
  let off = Int_vec.zeros (n + 1) in
  for i = 0 to Int_vec.get children.off n - 1 do
    let v = Int_vec.get children.arr i in
    Int_vec.set off (v + 1) (Int_vec.get off (v + 1) + 1)
  done;
  prefix_sum off n;
  let arr = Int_vec.create (Int_vec.get off n) in
  for u = 0 to n - 1 do
    for i = Int_vec.get children.off u to Int_vec.get children.off (u + 1) - 1 do
      let v = Int_vec.get children.arr i in
      let j = Int_vec.get off v in
      Int_vec.set arr j u;
      Int_vec.set off v (j + 1)
    done
  done;
  unshift off n;
  { off; arr }

(* ------------------------------------------------------------------ *)
(* Iteration: CSR run (skipping tombstones when any exist) + overflow *)

let iter_children g u f =
  let off = g.children.off and arr = g.children.arr in
  if g.n_deleted = 0 then
    for i = Int_vec.get off u to Int_vec.get off (u + 1) - 1 do
      f (Int_vec.unsafe_get arr i)
    done
  else
    for i = Int_vec.get off u to Int_vec.get off (u + 1) - 1 do
      let v = Int_vec.unsafe_get arr i in
      if not (Hashtbl.mem g.deleted (u, v)) then f v
    done;
  if g.n_extra > 0 then List.iter f g.extra_children.(u)

let iter_parents g u f =
  let off = g.parents.off and arr = g.parents.arr in
  if g.n_deleted = 0 then
    for i = Int_vec.get off u to Int_vec.get off (u + 1) - 1 do
      f (Int_vec.unsafe_get arr i)
    done
  else
    for i = Int_vec.get off u to Int_vec.get off (u + 1) - 1 do
      let v = Int_vec.unsafe_get arr i in
      if not (Hashtbl.mem g.deleted (v, u)) then f v
    done;
  if g.n_extra > 0 then List.iter f g.extra_parents.(u)

let exists_children g u pred =
  let off = g.children.off and arr = g.children.arr in
  let i = ref (Int_vec.get off u) and hi = Int_vec.get off (u + 1) in
  let found = ref false in
  if g.n_deleted = 0 then
    while (not !found) && !i < hi do
      if pred (Int_vec.unsafe_get arr !i) then found := true;
      incr i
    done
  else
    while (not !found) && !i < hi do
      let v = Int_vec.unsafe_get arr !i in
      if (not (Hashtbl.mem g.deleted (u, v))) && pred v then found := true;
      incr i
    done;
  !found || (g.n_extra > 0 && List.exists pred g.extra_children.(u))

let exists_parents g u pred =
  let off = g.parents.off and arr = g.parents.arr in
  let i = ref (Int_vec.get off u) and hi = Int_vec.get off (u + 1) in
  let found = ref false in
  if g.n_deleted = 0 then
    while (not !found) && !i < hi do
      if pred (Int_vec.unsafe_get arr !i) then found := true;
      incr i
    done
  else
    while (not !found) && !i < hi do
      let v = Int_vec.unsafe_get arr !i in
      if (not (Hashtbl.mem g.deleted (v, u))) && pred v then found := true;
      incr i
    done;
  !found || (g.n_extra > 0 && List.exists pred g.extra_parents.(u))

let collect_sorted g adj ~extra ~del u =
  (* Materialize one node's neighbor list, sorted increasing. *)
  let off = adj.off and arr = adj.arr in
  let lo = Int_vec.get off u and hi = Int_vec.get off (u + 1) in
  let base = ref [] in
  for i = hi - 1 downto lo do
    let v = Int_vec.get arr i in
    if g.n_deleted = 0 || not (Hashtbl.mem g.deleted (del u v)) then
      base := v :: !base
  done;
  match (if g.n_extra = 0 then [] else extra.(u)) with
  | [] -> !base
  | extras -> List.merge Int.compare !base (List.sort Int.compare extras)

let children g u = collect_sorted g g.children ~extra:g.extra_children ~del:(fun u v -> (u, v)) u
let parents g u = collect_sorted g g.parents ~extra:g.extra_parents ~del:(fun u v -> (v, u)) u

(* [f] over [u]'s CSR children in slots [i, hi), tombstones skipped. *)
let iter_run g u f i hi =
  let arr = g.children.arr in
  if g.n_deleted = 0 then
    for j = i to hi - 1 do
      f (Int_vec.unsafe_get arr j)
    done
  else
    for j = i to hi - 1 do
      let v = Int_vec.unsafe_get arr j in
      if not (Hashtbl.mem g.deleted (u, v)) then f v
    done

(* [iter_run] with the sorted overflow additions [xs] merged in. *)
let rec merge_run g u f i hi xs =
  match xs with
  | [] -> iter_run g u f i hi
  | x :: rest ->
    if i < hi && Int_vec.unsafe_get g.children.arr i <= x then begin
      iter_run g u f i (i + 1);
      merge_run g u f (i + 1) hi xs
    end
    else begin
      f x;
      merge_run g u f i hi rest
    end

(* [children] as an iteration, without materializing the list. *)
let iter_children_sorted g u f =
  let lo = Int_vec.get g.children.off u and hi = Int_vec.get g.children.off (u + 1) in
  match if g.n_extra = 0 then [] else g.extra_children.(u) with
  | [] -> iter_run g u f lo hi
  | extras -> merge_run g u f lo hi (List.sort Int.compare extras)

let degree_of g adj ~extra ~del u =
  let lo = Int_vec.get adj.off u and hi = Int_vec.get adj.off (u + 1) in
  let d = ref 0 in
  if g.n_deleted = 0 then d := hi - lo
  else
    for i = lo to hi - 1 do
      if not (Hashtbl.mem g.deleted (del u (Int_vec.get adj.arr i))) then incr d
    done;
  if g.n_extra > 0 then d := !d + List.length extra.(u);
  !d

let out_degree g u = degree_of g g.children ~extra:g.extra_children ~del:(fun u v -> (u, v)) u
let in_degree g u = degree_of g g.parents ~extra:g.extra_parents ~del:(fun u v -> (v, u)) u

let iter_nodes g f =
  for u = 0 to n_nodes g - 1 do
    f u
  done

let iter_edges g f = iter_nodes g (fun u -> iter_children g u (fun v -> f u v))

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

let has_edge g u v =
  (not (g.n_deleted > 0 && Hashtbl.mem g.deleted (u, v)))
  && (Int_vec.mem_range g.children.arr
        ~lo:(Int_vec.get g.children.off u)
        ~hi:(Int_vec.get g.children.off (u + 1))
        v
     || (g.n_extra > 0 && List.memq v g.extra_children.(u)))

(* A tombstoned CSR edge still occupies its slot, so membership of the
   base layout alone (ignoring tombstones) also matters for updates. *)
let in_csr g u v =
  Int_vec.mem_range g.children.arr
    ~lo:(Int_vec.get g.children.off u)
    ~hi:(Int_vec.get g.children.off (u + 1))
    v

let check_range n u v =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Data_graph: edge (%d, %d) out of range" u v)

(* Recomputed only at (re)build time so the mutation fast path does no
   division; using the edge count as of the last rebuild leaves the
   amortization argument intact. *)
let rebuild_threshold m = max 32 (m / 8)

(* ------------------------------------------------------------------ *)
(* Construction and mutation *)

(* The shared tail of [make] and [of_edge_vecs]: reverse the
   deduplicated children CSR and attach the payloads (a later list
   entry for the same node wins). *)
let assemble ~values ~pool ~label_codes (children, m) =
  let n = Int_vec.length label_codes in
  let parents = reverse_csr n children in
  let value_table = Hashtbl.create (max 16 (List.length values)) in
  List.iter
    (fun (u, payload) ->
      if u < 0 || u >= n then invalid_arg "Data_graph.make: value node out of range";
      Hashtbl.replace value_table u payload)
    values;
  {
    pool;
    labels = label_codes;
    children;
    parents;
    values = value_table;
    n_edges = m;
    extra_children = Array.make n [];
    extra_parents = Array.make n [];
    deleted = Hashtbl.create 8;
    n_extra = 0;
    n_deleted = 0;
    rebuild_at = rebuild_threshold m;
    by_label = None;
  }

let make ?(values = []) ~pool ~labels ~edges () =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Data_graph.make: no nodes";
  List.iter (fun (u, v) -> check_range n u v) edges;
  assemble ~values ~pool
    ~label_codes:(Int_vec.init n (fun u -> Label.to_int labels.(u)))
    (csr_of_edges n (fun f -> List.iter (fun (u, v) -> f u v) edges))

let of_edge_vecs ?(values = []) ~pool ~label_codes ~src ~dst () =
  let n = Int_vec.length label_codes in
  if n = 0 then invalid_arg "Data_graph.make: no nodes";
  let m = Int_vec.length src in
  if Int_vec.length dst <> m then invalid_arg "Data_graph.of_edge_vecs: length mismatch";
  for i = 0 to m - 1 do
    check_range n (Int_vec.get src i) (Int_vec.get dst i)
  done;
  assemble ~values ~pool ~label_codes
    (csr_of_edges n (fun f ->
         for i = 0 to m - 1 do
           f (Int_vec.unsafe_get src i) (Int_vec.unsafe_get dst i)
         done))

(* Assemble a graph directly from prebuilt CSR sections (a Container
   mapping or a streamed build).  The vectors are adopted, not copied:
   for a mapped file this is what makes open O(1).  Both directions
   must already be sorted, deduplicated views of the same edge set —
   Container guarantees that for files it wrote. *)
let of_csr ?(values = []) ~pool ~label_codes ~children:(coff, carr)
    ~parents:(poff, parr) () =
  let n = Int_vec.length label_codes in
  if n = 0 then invalid_arg "Data_graph.of_csr: no nodes";
  if Int_vec.length coff <> n + 1 || Int_vec.length poff <> n + 1 then
    invalid_arg "Data_graph.of_csr: offset length mismatch";
  let m = Int_vec.get coff n in
  if Int_vec.length carr <> m || Int_vec.length parr <> m || Int_vec.get poff n <> m
  then invalid_arg "Data_graph.of_csr: edge count mismatch";
  let value_table = Hashtbl.create (max 16 (List.length values)) in
  List.iter (fun (u, payload) -> Hashtbl.replace value_table u payload) values;
  {
    pool;
    labels = label_codes;
    children = { off = coff; arr = carr };
    parents = { off = poff; arr = parr };
    values = value_table;
    n_edges = m;
    extra_children = Array.make n [];
    extra_parents = Array.make n [];
    deleted = Hashtbl.create 8;
    n_extra = 0;
    n_deleted = 0;
    rebuild_at = rebuild_threshold m;
    by_label = None;
  }

(* Fold the overflow layer back into flat vectors.  Amortized: runs
   after O(n_edges) overflow operations and costs O(n + m).  On a
   mapped graph this is also the migration point: the fresh vectors
   live on the heap side and the file mapping is no longer read. *)
let rebuild_csr g =
  let n = n_nodes g in
  let children, m = csr_of_edges n (fun f -> iter_edges g (fun u v -> f u v)) in
  g.children.off <- children.off;
  g.children.arr <- children.arr;
  let parents = reverse_csr n { off = children.off; arr = children.arr } in
  g.parents.off <- parents.off;
  g.parents.arr <- parents.arr;
  Array.fill g.extra_children 0 n [];
  Array.fill g.extra_parents 0 n [];
  Hashtbl.reset g.deleted;
  g.n_extra <- 0;
  g.n_deleted <- 0;
  g.n_edges <- m;
  g.rebuild_at <- rebuild_threshold m

let maybe_rebuild g =
  if g.n_extra + g.n_deleted > g.rebuild_at then rebuild_csr g

let flatten g = if g.n_extra + g.n_deleted > 0 then rebuild_csr g

let csr_children g =
  flatten g;
  (g.children.off, g.children.arr)

let csr_parents g =
  flatten g;
  (g.parents.off, g.parents.arr)

let label_codes g = g.labels

let iter_values g f =
  let pairs = Hashtbl.fold (fun u payload acc -> (u, payload) :: acc) g.values [] in
  List.iter (fun (u, payload) -> f u payload)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs)

let n_values g = Hashtbl.length g.values
let overflow g = (g.n_extra, g.n_deleted)

let add_edge g u v =
  check_range (n_nodes g) u v;
  (* [u] and [v] are validated above, so reads are unchecked on this
     hot path (loaders add edges in bulk). *)
  if g.n_deleted > 0 && Hashtbl.mem g.deleted (u, v) then begin
    (* The slot still exists in the CSR: just lift the tombstone. *)
    Hashtbl.remove g.deleted (u, v);
    g.n_deleted <- g.n_deleted - 1;
    g.n_edges <- g.n_edges + 1
  end
  else begin
    let lo = Int_vec.unsafe_get g.children.off u in
    let hi = Int_vec.unsafe_get g.children.off (u + 1) in
    let in_csr =
      (* Hand-inlined short scan: ocamlopt does not inline functions
         containing loops across modules, and this is the hottest loop
         in bulk loading. *)
      if hi - lo <= 16 then begin
        let arr = g.children.arr in
        let i = ref lo in
        while !i < hi && Int_vec.unsafe_get arr !i < v do
          incr i
        done;
        !i < hi && Int_vec.unsafe_get arr !i = v
      end
      else Int_vec.mem_range g.children.arr ~lo ~hi v
    in
    if
      not
        (in_csr || (g.n_extra > 0 && List.memq v (Array.unsafe_get g.extra_children u)))
    then begin
      Array.unsafe_set g.extra_children u (v :: Array.unsafe_get g.extra_children u);
      Array.unsafe_set g.extra_parents v (u :: Array.unsafe_get g.extra_parents v);
      g.n_extra <- g.n_extra + 1;
      g.n_edges <- g.n_edges + 1;
      if g.n_extra + g.n_deleted > g.rebuild_at then rebuild_csr g
    end
  end

let remove_once x l =
  let rec go acc = function
    | [] -> None
    | y :: rest -> if y = x then Some (List.rev_append acc rest) else go (y :: acc) rest
  in
  go [] l

let remove_edge g u v =
  check_range (n_nodes g) u v;
  if not (has_edge g u v) then
    invalid_arg (Printf.sprintf "Data_graph.remove_edge: no edge (%d, %d)" u v);
  if in_csr g u v then begin
    Hashtbl.replace g.deleted (u, v) ();
    g.n_deleted <- g.n_deleted + 1
  end
  else begin
    (match remove_once v g.extra_children.(u) with
    | Some rest -> g.extra_children.(u) <- rest
    | None -> assert false);
    (match remove_once u g.extra_parents.(v) with
    | Some rest -> g.extra_parents.(v) <- rest
    | None -> assert false);
    g.n_extra <- g.n_extra - 1
  end;
  g.n_edges <- g.n_edges - 1;
  maybe_rebuild g

let copy g =
  {
    pool = Label.Pool.copy g.pool;
    labels = Int_vec.copy g.labels;
    children = { off = Int_vec.copy g.children.off; arr = Int_vec.copy g.children.arr };
    parents = { off = Int_vec.copy g.parents.off; arr = Int_vec.copy g.parents.arr };
    values = Hashtbl.copy g.values;
    n_edges = g.n_edges;
    extra_children = Array.copy g.extra_children;
    extra_parents = Array.copy g.extra_parents;
    deleted = Hashtbl.copy g.deleted;
    n_extra = g.n_extra;
    n_deleted = g.n_deleted;
    rebuild_at = g.rebuild_at;
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
  let values = ref [] in
  Hashtbl.iter (fun u payload -> values := (u, payload) :: !values) g.values;
  Hashtbl.iter
    (fun u payload -> if u > 0 then values := (remap u, payload) :: !values)
    h.values;
  (make ~values:!values ~pool ~labels ~edges:!edges (), offset)

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
