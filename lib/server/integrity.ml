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

type digests = {
  n_nodes : int;
  data_ranges : int array;
  index_ranges : int array;
  label_edges : int;
  root : int;
}

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

(* Refill [buckets.(code)] for every label satisfying [want] in one
   pass over the live index: XOR of per-edge hashes over both
   endpoints' (label hash, canonical representative, k). *)
let fill_buckets idx lhash buckets ~want =
  Array.iteri (fun c _ -> if want c then buckets.(c) <- 0) buckets;
  Index_graph.iter_alive idx (fun nd ->
      let ca = Label.to_int nd.Index_graph.label in
      if want ca then begin
        let ha =
          mix (mix (mix seed lhash.(ca)) (Index_graph.extent_min nd + 1))
            nd.Index_graph.k
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
            buckets.(ca) <- buckets.(ca) lxor hb)
      end)

let fold_digests ~n ~dranges ~iranges ~buckets ~lhash =
  let le = ref 0 in
  Array.iteri
    (fun c b -> if b <> 0 then le := !le lxor (mix (mix seed lhash.(c)) b))
    buckets;
  let le = !le land mask48 in
  let h = ref (mix seed n) in
  Array.iter (fun d -> h := mix !h d) dranges;
  Array.iter (fun d -> h := mix !h d) iranges;
  h := mix !h le;
  { n_nodes = n; data_ranges = dranges; index_ranges = iranges;
    label_edges = le; root = !h land mask48 }

let compute_full idx =
  let g = Index_graph.data idx in
  let n = Data_graph.n_nodes g in
  let lhash = label_hashes (Data_graph.pool g) in
  let nr = n_ranges n in
  let dranges = Array.init nr (data_range_digest g lhash) in
  let iranges = Array.init nr (index_range_digest idx) in
  let buckets = Array.make (Array.length lhash) 0 in
  fill_buckets idx lhash buckets ~want:(fun _ -> true);
  fold_digests ~n ~dranges ~iranges ~buckets ~lhash

(* ------------------------------------------------------------------ *)
(* Incremental tracker                                                *)

type t = {
  (* dirty marks + caches *)
  mutable cached : bool;
  mutable all_dirty : bool;
  mutable dirty_ranges : bool array;
  mutable dirty_ids : int list;  (* traced index ids, resolved at refresh *)
  mutable n : int;
  mutable dranges : int array;
  mutable iranges : int array;
  mutable buckets : int array;
  mutable lhash : int array;
}

let create () =
  {
    cached = false;
    all_dirty = true;
    dirty_ranges = [||];
    dirty_ids = [];
    n = 0;
    dranges = [||];
    iranges = [||];
    buckets = [||];
    lhash = [||];
  }

let attach t idx = Index_graph.set_tracer idx (Some (fun id -> t.dirty_ids <- id :: t.dirty_ids))

let mark_node t u =
  let r = u lsr range_shift in
  if r < Array.length t.dirty_ranges then t.dirty_ranges.(r) <- true else t.all_dirty <- true

let note_mutation t = function
  | Wal.Add_edge { u; v } | Wal.Remove_edge { u; v } ->
    mark_node t u;
    mark_node t v
  | Wal.Add_subgraph _ | Wal.Promote _ | Wal.Demote _ -> t.all_dirty <- true

let invalidate t = t.all_dirty <- true

let refresh t idx =
  let g = Index_graph.data idx in
  let n = Data_graph.n_nodes g in
  let pool = Data_graph.pool g in
  let old_labels = Array.length t.lhash in
  if Label.Pool.count pool <> old_labels then begin
    t.lhash <- label_hashes pool;
    let buckets = Array.make (Array.length t.lhash) 0 in
    Array.blit t.buckets 0 buckets 0 (min old_labels (Array.length buckets));
    t.buckets <- buckets
  end;
  let lhash = t.lhash in
  if (not t.cached) || t.all_dirty || n <> t.n then begin
    let nr = n_ranges n in
    t.n <- n;
    t.dranges <- Array.init nr (data_range_digest g lhash);
    t.iranges <- Array.init nr (index_range_digest idx);
    fill_buckets idx lhash t.buckets ~want:(fun _ -> true);
    t.dirty_ranges <- Array.make nr false;
    t.dirty_ids <- [];
    t.all_dirty <- false;
    t.cached <- true
  end
  else begin
    (* Resolve traced index ids against this copy: their live
       descendants' extents are the data nodes whose class identity may
       have changed, and their labels (plus their parents' labels, for
       inbound edges) are the buckets that may have changed. *)
    let dirty_label = Array.make (Array.length lhash) false in
    let any_label = ref false in
    let bad = ref false in
    List.iter
      (fun id ->
        match Index_graph.resolve idx id with
        | exception Invalid_argument _ -> bad := true
        | ids ->
          List.iter
            (fun i ->
              let nd = Index_graph.node idx i in
              dirty_label.(Label.to_int nd.Index_graph.label) <- true;
              any_label := true;
              Index_graph.iter_parents idx i (fun p ->
                  let np = Index_graph.node idx p in
                  dirty_label.(Label.to_int np.Index_graph.label) <- true);
              for j = 0 to nd.Index_graph.extent_size - 1 do
                t.dirty_ranges.(nd.Index_graph.extent.(j) lsr range_shift) <- true
              done)
            ids)
      t.dirty_ids;
    t.dirty_ids <- [];
    if !bad then begin
      (* An id this index has never seen (e.g. a mark left from the
         index a wholesale install replaced): recompute everything
         rather than guess. *)
      let nr = n_ranges n in
      t.dranges <- Array.init nr (data_range_digest g lhash);
      t.iranges <- Array.init nr (index_range_digest idx);
      fill_buckets idx lhash t.buckets ~want:(fun _ -> true);
      t.dirty_ranges <- Array.make nr false
    end
    else begin
      Array.iteri
        (fun r dirty ->
          if dirty then begin
            t.dranges.(r) <- data_range_digest g lhash r;
            t.iranges.(r) <- index_range_digest idx r;
            t.dirty_ranges.(r) <- false
          end)
        t.dirty_ranges;
      if !any_label then fill_buckets idx lhash t.buckets ~want:(fun c -> dirty_label.(c))
    end
  end;
  fold_digests ~n ~dranges:(Array.copy t.dranges) ~iranges:(Array.copy t.iranges)
    ~buckets:t.buckets ~lhash
