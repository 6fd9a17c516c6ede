open Dkindex_graph
open Dkindex_core

let range_shift = 12
let range_size = 1 lsl range_shift
let n_ranges n = max 1 ((n + range_size - 1) lsr range_shift)
let mask48 = (1 lsl 48) - 1

(* FNV-1a folded over machine words, sign cleared so digests stay
   non-negative under wrapping multiplication.  Not cryptographic —
   the adversary is bit rot, not an attacker. *)
let fnv_prime = 0x100000001B3
let seed = 0x27D4EB2F165667C5 land max_int
let mix h x = ((h lxor x) * fnv_prime) land max_int

let hash_string s =
  let h = ref seed in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

(* Per-edge hash used in the order-independent folds.  Both endpoints
   are offset by one so node 0 is not absorbed by the xor. *)
let edge_hash u v = mix (mix seed (u + 1)) (v + 1)

type digests = { n_nodes : int; root : int }

(* ------------------------------------------------------------------ *)
(* Layer computations (pure reads of a stable snapshot)               *)

(* label-name hashes by code, so digests do not depend on pool code
   layout *)
let label_hashes pool =
  let a = Array.make (Label.Pool.count pool) 0 in
  Label.Pool.fold
    (fun code name () -> a.(Label.to_int code) <- hash_string name)
    pool ();
  a

let data_range_digest g lhash r =
  let n = Data_graph.n_nodes g in
  let lo = r lsl range_shift and hi = min n ((r + 1) lsl range_shift) in
  let h = ref seed in
  for u = lo to hi - 1 do
    let cx = ref 0 in
    Data_graph.iter_children g u (fun v -> cx := !cx lxor edge_hash u v);
    h := mix (mix (mix !h (u + 1)) lhash.(Label.to_int (Data_graph.label g u))) !cx
  done;
  !h land mask48

let index_range_digest idx r =
  let n = Data_graph.n_nodes (Index_graph.data idx) in
  let lo = r lsl range_shift and hi = min n ((r + 1) lsl range_shift) in
  let h = ref seed in
  for u = lo to hi - 1 do
    let nd = Index_graph.node idx (Index_graph.cls idx u) in
    h := mix (mix (mix !h (u + 1)) (Index_graph.extent_min nd + 1)) nd.Index_graph.k
  done;
  !h land mask48

(* Every live index edge [A -> B] hashes both endpoints' (label hash,
   canonical representative, k) into the bucket of [A]'s label; the
   buckets fold order-independently, so pool code layout does not
   matter. *)
let label_edges idx lhash =
  let buckets = Array.make (Array.length lhash) 0 in
  Index_graph.iter_alive idx (fun nd ->
      let ca = Label.to_int nd.Index_graph.label in
      let ha =
        mix (mix (mix seed lhash.(ca)) (Index_graph.extent_min nd + 1)) nd.Index_graph.k
      in
      Index_graph.iter_children idx nd.Index_graph.id (fun b ->
          let nb = Index_graph.node idx b in
          let hb =
            mix
              (mix
                 (mix ha lhash.(Label.to_int nb.Index_graph.label))
                 (Index_graph.extent_min nb + 1))
              nb.Index_graph.k
          in
          buckets.(ca) <- buckets.(ca) lxor hb));
  let le = ref 0 in
  Array.iteri (fun c b -> if b <> 0 then le := !le lxor mix (mix seed lhash.(c)) b) buckets;
  !le land mask48

let compute_full idx =
  let g = Index_graph.data idx in
  let n = Data_graph.n_nodes g in
  let lhash = label_hashes (Data_graph.pool g) in
  let nr = n_ranges n in
  let h = ref (mix seed n) in
  for r = 0 to nr - 1 do
    h := mix !h (data_range_digest g lhash r)
  done;
  for r = 0 to nr - 1 do
    h := mix !h (index_range_digest idx r)
  done;
  { n_nodes = n; root = mix !h (label_edges idx lhash) land mask48 }
