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
  mutable k_hist : int array;  (* capped k -> live node count *)
  mutable cache_hits : int;
  mutable cache_misses : int;
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
          covd = Array.make (k_cap + 1) 0;
        })
  in
  let k_hist = Array.make (k_cap + 1) 0 in
  let data_nodes = ref 0 in
  Index_graph.iter_alive t.idx (fun nd ->
      let r = rows.(Label.to_int nd.Index_graph.label) in
      let size = nd.Index_graph.extent_size in
      let kc = cap_k nd.Index_graph.k in
      r.inodes <- r.inodes + 1;
      r.extent <- r.extent + size;
      r.out_edges <- r.out_edges + Index_graph.out_degree t.idx nd.Index_graph.id;
      if size > r.max_extent then r.max_extent <- size;
      (* bucket counts first; suffix-summed below *)
      r.covd.(kc) <- r.covd.(kc) + size;
      k_hist.(kc) <- k_hist.(kc) + 1;
      data_nodes := !data_nodes + size);
  Array.iter
    (fun r ->
      for j = k_cap - 1 downto 0 do
        r.covd.(j) <- r.covd.(j) + r.covd.(j + 1)
      done)
    rows;
  t.rows <- rows;
  t.k_hist <- k_hist;
  t.n_inodes <- Index_graph.n_nodes t.idx;
  t.n_iedges <- Index_graph.n_edges t.idx;
  t.n_data_nodes <- !data_nodes;
  t.n_data_edges <- Data_graph.n_edges (Index_graph.data t.idx);
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
      k_hist = [||];
      cache_hits = 0;
      cache_misses = 0;
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

let index_fanout t =
  if t.n_inodes = 0 then 0.0 else float_of_int t.n_iedges /. float_of_int t.n_inodes

let data_fanout t =
  if t.n_data_nodes = 0 then 0.0
  else float_of_int t.n_data_edges /. float_of_int t.n_data_nodes

let k_histogram t =
  let acc = ref [] in
  for j = k_cap downto 0 do
    if t.k_hist.(j) > 0 then acc := (j, t.k_hist.(j)) :: !acc
  done;
  !acc

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

let observe_cache t ~hits ~misses =
  t.cache_hits <- hits;
  t.cache_misses <- misses

let cache_hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0.0 else float_of_int t.cache_hits /. float_of_int total
