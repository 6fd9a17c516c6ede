open Dkindex_graph
open Dkindex_core

let k_cap = 32

(* Per-label row.  [covd.(j)] is a suffix count: the data population
   of index nodes whose capped similarity is at least [j], for j in
   [0 .. k_cap].  Consultation indexes straight into the array — no
   hashing, no allocation. *)
type row = {
  mutable inodes : int;
  mutable extent : int;
  mutable max_extent : int;
  mutable out_edges : int;  (* index out-edges of this label's nodes *)
  mutable first : int;  (* rank of the label's first node in the sweep *)
  covd : int array;
}

type t = {
  idx : Index_graph.t;
  mutable gen : int;
  mutable refreshes : int;
  mutable rows : row array;  (* indexed by label code; may grow *)
  mutable n_inodes : int;
  mutable n_iedges : int;
  mutable n_data_nodes : int;
  mutable n_data_edges : int;
  mutable largest_extent : int;
  mutable singletons : int;
  mutable k_low : int array;  (* k <= k_cap -> live node count *)
  mutable k_high : (int, int) Hashtbl.t;  (* finite k > k_cap -> count *)
  mutable k_inf : int;  (* live nodes with k >= k_infinite *)
}

let cap_k k = if k >= k_cap then k_cap else k

let sweep t =
  let pool = Data_graph.pool (Index_graph.data t.idx) in
  let n_labels = Label.Pool.count pool in
  let rows =
    Array.init n_labels (fun _ ->
        {
          inodes = 0;
          extent = 0;
          max_extent = 0;
          out_edges = 0;
          first = 0;
          covd = Array.make (k_cap + 1) 0;
        })
  in
  let k_low = Array.make (k_cap + 1) 0 and k_high = Hashtbl.create 1 in
  let k_inf = ref 0 in
  let data_nodes = ref 0 and largest = ref 0 and singletons = ref 0 and labels_seen = ref 0 in
  Index_graph.iter_alive t.idx (fun nd ->
      let r = rows.(Label.to_int nd.Index_graph.label) in
      let size = nd.Index_graph.extent_size in
      let k = nd.Index_graph.k in
      if r.inodes = 0 then begin
        r.first <- !labels_seen;
        incr labels_seen
      end;
      r.inodes <- r.inodes + 1;
      r.extent <- r.extent + size;
      r.out_edges <- r.out_edges + Index_graph.out_degree t.idx nd.Index_graph.id;
      if size > r.max_extent then r.max_extent <- size;
      (* bucket counts first; suffix-summed below *)
      let kc = cap_k k in
      r.covd.(kc) <- r.covd.(kc) + size;
      if k >= Index_graph.k_infinite then incr k_inf
      else if k <= k_cap then k_low.(k) <- k_low.(k) + 1
      else Hashtbl.replace k_high k (1 + Option.value (Hashtbl.find_opt k_high k) ~default:0);
      data_nodes := !data_nodes + size;
      if size > !largest then largest := size;
      if size = 1 then incr singletons);
  Array.iter
    (fun r ->
      for j = k_cap - 1 downto 0 do
        r.covd.(j) <- r.covd.(j) + r.covd.(j + 1)
      done)
    rows;
  t.rows <- rows;
  t.k_low <- k_low;
  t.k_high <- k_high;
  t.k_inf <- !k_inf;
  t.n_inodes <- Index_graph.n_nodes t.idx;
  t.n_iedges <- Index_graph.n_edges t.idx;
  t.n_data_nodes <- !data_nodes;
  t.n_data_edges <- Data_graph.n_edges (Index_graph.data t.idx);
  t.largest_extent <- !largest;
  t.singletons <- !singletons;
  t.gen <- Index_graph.generation t.idx;
  t.refreshes <- t.refreshes + 1

let create idx =
  let t =
    {
      idx;
      gen = -1;
      refreshes = 0;
      rows = [||];
      n_inodes = 0;
      n_iedges = 0;
      n_data_nodes = 0;
      n_data_edges = 0;
      largest_extent = 0;
      singletons = 0;
      k_low = [||];
      k_high = Hashtbl.create 1;
      k_inf = 0;
    }
  in
  sweep t;
  t

let refresh t = if Index_graph.generation t.idx <> t.gen then sweep t
let refreshes t = t.refreshes
let generation t = t.gen
let n_inodes t = t.n_inodes
let n_iedges t = t.n_iedges
let n_data_nodes t = t.n_data_nodes
let n_data_edges t = t.n_data_edges
let largest_extent t = t.largest_extent
let singleton_extents t = t.singletons

let compression t =
  if t.n_inodes = 0 then 0.0 else float_of_int t.n_data_nodes /. float_of_int t.n_inodes

let index_fanout t =
  if t.n_inodes = 0 then 0.0 else float_of_int t.n_iedges /. float_of_int t.n_inodes

let data_fanout t =
  if t.n_data_nodes = 0 then 0.0
  else float_of_int t.n_data_edges /. float_of_int t.n_data_nodes

let k_histogram t =
  let acc = ref (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.k_high [])) in
  for k = k_cap downto 0 do
    if t.k_low.(k) > 0 then acc := (k, t.k_low.(k)) :: !acc
  done;
  if t.k_inf > 0 then (-1, t.k_inf) :: !acc else !acc

(* The pool can grow (a mutation grafting a subgraph interns fresh
   labels) without bumping our recorded generation snapshot's row
   array; codes beyond the last sweep simply have no statistics yet. *)
let row t l =
  let code = Label.to_int l in
  if code < Array.length t.rows then Some t.rows.(code) else None

let label_inodes t l = match row t l with Some r -> r.inodes | None -> 0

(* Mean index out-degree of this label's nodes; the global fanout when
   the label has no statistics (fresh label, empty row).  Hub labels
   (document roots, container elements) have out-degrees far above the
   index-wide mean, and they are exactly the nodes every path query
   walks through first. *)
let label_fanout t l =
  match row t l with
  | Some r when r.inodes > 0 -> float_of_int r.out_edges /. float_of_int r.inodes
  | _ -> index_fanout t
let label_extent t l = match row t l with Some r -> r.extent | None -> 0
let label_max_extent t l = match row t l with Some r -> r.max_extent | None -> 0

let covered_extent t l m =
  match row t l with Some r -> r.covd.(cap_k (max 0 m)) | None -> 0

let uncovered_extent t l m = label_extent t l - covered_extent t l m

(* Descending by index nodes.  Equal counts keep the order the report
   has always printed: that of a string-keyed [Hashtbl] filled in
   first-appearance order, so one is filled that way here. *)
let label_rows t =
  let pool = Data_graph.pool (Index_graph.data t.idx) in
  let seen = ref [] in
  Array.iteri (fun code r -> if r.inodes > 0 then seen := (r.first, code) :: !seen) t.rows;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (_, code) ->
      let r = t.rows.(code) in
      Hashtbl.replace by_name (Label.Pool.name pool (Label.of_int code)) (r.inodes, r.extent))
    (List.sort compare !seen);
  Hashtbl.fold (fun name (n, d) acc -> (name, n, d) :: acc) by_name []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

let pp ppf t =
  Format.fprintf ppf "index nodes   %d@." t.n_inodes;
  Format.fprintf ppf "index edges   %d@." t.n_iedges;
  Format.fprintf ppf "data nodes    %d (%.1fx compression)@." t.n_data_nodes (compression t);
  Format.fprintf ppf "extents       largest %d, singletons %d@." t.largest_extent t.singletons;
  Format.fprintf ppf "similarity histogram:@.";
  List.iter
    (fun (k, n) ->
      if k < 0 then Format.fprintf ppf "  k=inf  %d nodes@." n
      else Format.fprintf ppf "  k=%-4d %d nodes@." k n)
    (k_histogram t);
  Format.fprintf ppf "busiest labels (index nodes / data nodes):@.";
  List.iteri
    (fun i (name, n, d) -> if i < 12 then Format.fprintf ppf "  %-28s %6d / %d@." name n d)
    (label_rows t)
