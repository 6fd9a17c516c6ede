(* One direction of the store: the CSR vectors plus that direction's
   half of the overflow layer.  [extra] is [||] until the first
   addition, [dels] until the first tombstone; from then on each one's
   capacity is at least the id space. *)
type dir = {
  mutable off : Int_vec.t;  (* csr_n + 1 offsets into arr *)
  mutable arr : Int_vec.t;  (* neighbor runs, each sorted increasing *)
  mutable extra : int list array;  (* overflow additions, newest first *)
  mutable dels : int array;  (* tombstoned CSR edges per node *)
}

type t = {
  mutable n : int;  (* id space *)
  mutable csr_n : int;  (* ids covered by the CSR offsets *)
  out : dir;
  inn : dir;
  mutable m : int;  (* live edges *)
  deleted : (int, unit) Hashtbl.t;  (* tombstoned CSR edges by [key] *)
  mutable n_extra : int;
  mutable n_deleted : int;
  mutable fold_at : int;  (* overflow size that triggers a fold *)
  mutable sorted : bool;  (* see [keep_sorted] *)
}

(* Tombstones are keyed by one immediate int, not an (int * int) tuple:
   the membership test sits on the iteration path, and hashing a tuple
   both allocates and follows pointers.  Ids stay below 2^31, so the
   packing cannot collide.  [fwd] says whether [v] is [u]'s child. *)
let key ~fwd u v = if fwd then (u lsl 31) lor v else (v lsl 31) lor u

(* A fold costs O(n + m), so it is due once the overflow layer holds
   that many entries, halved: rebuilding at m/4 made index update
   cascades rebuild several times over, while letting the overflow
   grow to m slowed traversal measurably.  The id-space term matters
   to split cascades, which grow [n] well past the live edge count.
   Fixed at each fold, so the mutation path does no division. *)
let fold_threshold ~n m = max 64 ((m + n) / 2)

let n t = t.n
let n_edges t = t.m
let overflow t = (t.n_extra, t.n_deleted)

(* ------------------------------------------------------------------ *)
(* CSR construction *)

(* Turn per-node counts, stored at [off.(u + 1)], into run starts. *)
let prefix_sum off n =
  for i = 1 to n do
    Int_vec.set off i (Int_vec.get off i + Int_vec.get off (i - 1))
  done

(* Once a fill pass has advanced every run start [off.(u)] past its
   run, [off.(u)] holds the start of run [u + 1]: shift it back.
   Using the offsets as the fill cursor saves a copy of them. *)
let unshift off n =
  for u = n - 1 downto 1 do
    Int_vec.set off u (Int_vec.get off (u - 1))
  done;
  Int_vec.set off 0 0

(* Sort each run of a filled CSR, then compact duplicates in place,
   offsets included. *)
let sort_dedup_runs n off arr =
  (* [off.(u)] is overwritten with the compacted start only after both
     of run [u]'s bounds have been read; the write cursor never passes
     the read cursor, so copying in place is safe. *)
  let w = ref 0 in
  for u = 0 to n - 1 do
    let lo = Int_vec.get off u and hi = Int_vec.get off (u + 1) in
    Int_vec.set off u !w;
    (* Runs that arrive strictly increasing (tree edges appended in
       document order) skip the sort and dedup calls. *)
    let i = ref (lo + 1) in
    while !i < hi && Int_vec.unsafe_get arr (!i - 1) < Int_vec.unsafe_get arr !i do
      incr i
    done;
    let len =
      if !i >= hi then hi - lo
      else begin
        Int_vec.sort_range arr ~lo ~hi;
        Int_vec.dedup_range arr ~lo ~hi
      end
    in
    if !w < lo then
      for i = 0 to len - 1 do
        Int_vec.set arr (!w + i) (Int_vec.get arr (lo + i))
      done;
    w := !w + len
  done;
  Int_vec.set off n !w;
  (off, if !w = Int_vec.length arr then arr else Int_vec.sub arr ~pos:0 ~len:!w)

(* A children CSR for [n] ids from edge segments: counting-sort by
   source, then sort and deduplicate each run.  The loops read the
   arrays directly, so an edge costs no call in either pass; the range
   check rides on the counting pass. *)
let csr_of_edges ~what n segments =
  let off = Int_vec.zeros (n + 1) in
  List.iter
    (fun (src, dst, len) ->
      if len < 0 || len > Array.length src || len > Array.length dst then
        invalid_arg (what ^ ": segment shorter than its length");
      for i = 0 to len - 1 do
        let u = Array.unsafe_get src i and v = Array.unsafe_get dst i in
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg (Printf.sprintf "%s: edge (%d, %d) out of range" what u v);
        Int_vec.unsafe_set off (u + 1) (Int_vec.unsafe_get off (u + 1) + 1)
      done)
    segments;
  prefix_sum off n;
  let arr = Int_vec.create (Int_vec.get off n) in
  List.iter
    (fun (src, dst, len) ->
      for i = 0 to len - 1 do
        let u = Array.unsafe_get src i in
        let j = Int_vec.unsafe_get off u in
        Int_vec.unsafe_set arr j (Array.unsafe_get dst i);
        Int_vec.unsafe_set off u (j + 1)
      done)
    segments;
  unshift off n;
  sort_dedup_runs n off arr

(* The reverse of a sorted, deduplicated CSR.  Scanning sources in
   increasing order appends each parent in increasing order, so runs
   come out sorted without a sorting pass. *)
let reverse_csr n coff carr =
  let off = Int_vec.zeros (n + 1) in
  for i = 0 to Int_vec.get coff n - 1 do
    let v = Int_vec.get carr i in
    Int_vec.set off (v + 1) (Int_vec.get off (v + 1) + 1)
  done;
  prefix_sum off n;
  let arr = Int_vec.create (Int_vec.get off n) in
  for u = 0 to n - 1 do
    for i = Int_vec.get coff u to Int_vec.get coff (u + 1) - 1 do
      let v = Int_vec.get carr i in
      let j = Int_vec.get off v in
      Int_vec.set arr j u;
      Int_vec.set off v (j + 1)
    done
  done;
  unshift off n;
  (off, arr)

let dir_of (off, arr) = { off; arr; extra = [||]; dels = [||] }

let make n children parents =
  let m = Int_vec.get (fst children) n in
  {
    n;
    csr_n = n;
    out = dir_of children;
    inn = dir_of parents;
    m;
    deleted = Hashtbl.create 8;
    n_extra = 0;
    n_deleted = 0;
    fold_at = fold_threshold ~n m;
    sorted = false;
  }

let of_children n (off, arr) =
  if Int_vec.length off <> n + 1 then invalid_arg "Adjacency.of_children: offset length";
  make n (off, arr) (reverse_csr n off arr)

let of_edges ?(what = "Adjacency.of_edges") n segments =
  of_children n (csr_of_edges ~what n segments)

let of_csr ~children:(coff, carr) ~parents:(poff, parr) =
  let n = Int_vec.length coff - 1 in
  if n < 0 || Int_vec.length poff <> n + 1 then invalid_arg "Adjacency.of_csr: offset length";
  let m = Int_vec.get coff n in
  if Int_vec.length carr <> m || Int_vec.length parr <> m || Int_vec.get poff n <> m then
    invalid_arg "Adjacency.of_csr: edge count mismatch";
  make n (coff, carr) (poff, parr)

let copy t =
  let copy_dir d =
    { off = Int_vec.copy d.off; arr = Int_vec.copy d.arr; extra = Array.copy d.extra;
      dels = Array.copy d.dels }
  in
  { t with out = copy_dir t.out; inn = copy_dir t.inn; deleted = Hashtbl.copy t.deleted }

(* ------------------------------------------------------------------ *)
(* Reads: the CSR run (skipping tombstones when the node has any), then
   the overflow list *)

(* [f] over [u]'s CSR children in slots [i, hi). *)
let iter_run t u f i hi =
  let arr = t.out.arr in
  if t.n_deleted = 0 || t.out.dels.(u) = 0 then
    for j = i to hi - 1 do
      f (Int_vec.unsafe_get arr j)
    done
  else
    for j = i to hi - 1 do
      let v = Int_vec.unsafe_get arr j in
      if not (Hashtbl.mem t.deleted (key ~fwd:true u v)) then f v
    done

(* Bounds of [u]'s CSR run in [d]; empty past the CSR. *)
let run_lo t d u = if u < t.csr_n then Int_vec.get d.off u else 0
let run_hi t d u = if u < t.csr_n then Int_vec.get d.off (u + 1) else 0

(* In sorted mode a node with overflow additions is read in increasing
   order, its sorted CSR run merged with its sorted additions: the
   order a fold would leave, so what a traversal visits (and counts)
   does not depend on when the layer was last folded or in which order
   the edges arrived. *)
let iter_merged t d ~fwd u xs f =
  let arr = d.arr and check = t.n_deleted > 0 && d.dels.(u) > 0 in
  let xs = ref xs in
  for j = run_lo t d u to run_hi t d u - 1 do
    let v = Int_vec.unsafe_get arr j in
    while match !xs with x :: _ -> x < v | [] -> false do
      match !xs with
      | x :: rest ->
        f x;
        xs := rest
      | [] -> ()
    done;
    if not (check && Hashtbl.mem t.deleted (key ~fwd u v)) then f v
  done;
  List.iter f !xs

let exists_merged t d ~fwd u pred =
  let found = ref false in
  iter_merged t d ~fwd u d.extra.(u) (fun v -> if (not !found) && pred v then found := true);
  !found

let merged t d u = t.sorted && t.n_extra > 0 && d.extra.(u) <> []

(* The four hottest reads of both graphs spell their loops out rather
   than call [iter_run]-like helpers: the extra call layer made
   visiting every node's children and parents ~15% slower (XMark
   scale 40, 2-vCPU host). *)
let iter_children t u f =
  if merged t t.out u then iter_merged t t.out ~fwd:true u t.out.extra.(u) f
  else begin
    if u < t.csr_n then begin
      let d = t.out in
      let arr = d.arr in
      let lo = Int_vec.get d.off u and hi = Int_vec.get d.off (u + 1) in
      if t.n_deleted = 0 || d.dels.(u) = 0 then
        for j = lo to hi - 1 do
          f (Int_vec.unsafe_get arr j)
        done
      else
        for j = lo to hi - 1 do
          let v = Int_vec.unsafe_get arr j in
          if not (Hashtbl.mem t.deleted (key ~fwd:true u v)) then f v
        done
    end;
    if t.n_extra > 0 then List.iter f t.out.extra.(u)
  end

let iter_parents t u f =
  if merged t t.inn u then iter_merged t t.inn ~fwd:false u t.inn.extra.(u) f
  else begin
    if u < t.csr_n then begin
      let d = t.inn in
      let arr = d.arr in
      let lo = Int_vec.get d.off u and hi = Int_vec.get d.off (u + 1) in
      if t.n_deleted = 0 || d.dels.(u) = 0 then
        for j = lo to hi - 1 do
          f (Int_vec.unsafe_get arr j)
        done
      else
        for j = lo to hi - 1 do
          let v = Int_vec.unsafe_get arr j in
          if not (Hashtbl.mem t.deleted (key ~fwd:false u v)) then f v
        done
    end;
    if t.n_extra > 0 then List.iter f t.inn.extra.(u)
  end

let exists_children t u pred =
  if merged t t.out u then exists_merged t t.out ~fwd:true u pred
  else begin
    let found = ref false in
    if u < t.csr_n then begin
      let d = t.out in
      let arr = d.arr in
      let i = ref (Int_vec.get d.off u) and hi = Int_vec.get d.off (u + 1) in
      if t.n_deleted = 0 || d.dels.(u) = 0 then
        while (not !found) && !i < hi do
          if pred (Int_vec.unsafe_get arr !i) then found := true;
          incr i
        done
      else
        while (not !found) && !i < hi do
          let v = Int_vec.unsafe_get arr !i in
          if (not (Hashtbl.mem t.deleted (key ~fwd:true u v))) && pred v then found := true;
          incr i
        done
    end;
    !found || (t.n_extra > 0 && List.exists pred t.out.extra.(u))
  end

let exists_parents t u pred =
  if merged t t.inn u then exists_merged t t.inn ~fwd:false u pred
  else begin
    let found = ref false in
    if u < t.csr_n then begin
      let d = t.inn in
      let arr = d.arr in
      let i = ref (Int_vec.get d.off u) and hi = Int_vec.get d.off (u + 1) in
      if t.n_deleted = 0 || d.dels.(u) = 0 then
        while (not !found) && !i < hi do
          if pred (Int_vec.unsafe_get arr !i) then found := true;
          incr i
        done
      else
        while (not !found) && !i < hi do
          let v = Int_vec.unsafe_get arr !i in
          if (not (Hashtbl.mem t.deleted (key ~fwd:false u v))) && pred v then found := true;
          incr i
        done
    end;
    !found || (t.n_extra > 0 && List.exists pred t.inn.extra.(u))
  end

let iter_children_sorted t u f =
  match if t.n_extra = 0 then [] else t.out.extra.(u) with
  | [] -> iter_run t u f (run_lo t t.out u) (run_hi t t.out u)
  | xs -> iter_merged t t.out ~fwd:true u (if t.sorted then xs else List.sort Int.compare xs) f

let sorted_list t d ~fwd u =
  let live = t.n_deleted = 0 || d.dels.(u) = 0 in
  let base = ref [] in
  for i = run_hi t d u - 1 downto run_lo t d u do
    let v = Int_vec.get d.arr i in
    if live || not (Hashtbl.mem t.deleted (key ~fwd u v)) then base := v :: !base
  done;
  match if t.n_extra = 0 then [] else d.extra.(u) with
  | [] -> !base
  | extras -> List.merge Int.compare !base (List.sort Int.compare extras)

let children t u = sorted_list t t.out ~fwd:true u
let parents t u = sorted_list t t.inn ~fwd:false u

let degree t d u =
  run_hi t d u - run_lo t d u
  - (if t.n_deleted = 0 then 0 else d.dels.(u))
  + if t.n_extra = 0 then 0 else List.length d.extra.(u)

let out_degree t u = degree t t.out u
let in_degree t u = degree t t.inn u

(* Short runs are scanned here rather than through [Int_vec.mem_range]:
   ocamlopt does not inline a function containing a loop across
   modules, and this sits on every [add] and [mem]. *)
let in_csr t u v =
  u < t.csr_n
  &&
  let arr = t.out.arr in
  let lo = Int_vec.get t.out.off u and hi = Int_vec.get t.out.off (u + 1) in
  if hi - lo <= 16 then begin
    let i = ref lo in
    while !i < hi && Int_vec.unsafe_get arr !i < v do
      incr i
    done;
    !i < hi && Int_vec.unsafe_get arr !i = v
  end
  else Int_vec.mem_range arr ~lo ~hi v

let tombstoned t u v =
  t.n_deleted > 0 && t.out.dels.(u) > 0 && Hashtbl.mem t.deleted (key ~fwd:true u v)

let in_extra t u v = t.n_extra > 0 && List.memq v t.out.extra.(u)
let mem t u v = (not (tombstoned t u v)) && (in_csr t u v || in_extra t u v)

(* ------------------------------------------------------------------ *)
(* Folding the overflow layer *)

(* Fold the overflow layer, and every id grown past the CSR, into fresh
   vectors.  The per-node arrays are cleared, not freed: a store that
   was mutated once is likely to be mutated again.  On a mapped
   adjacency this is also the migration point: the fresh vectors live
   on the heap side and the mapping is no longer read. *)
let fold t =
  let n = t.n in
  (* Live edges are distinct, so each node's run is its children
     written in place and sorted: the overflow additions may be out of
     order, nothing needs deduplicating. *)
  let coff = Int_vec.create (n + 1) in
  Int_vec.set coff 0 0;
  for u = 0 to n - 1 do
    Int_vec.set coff (u + 1) (Int_vec.get coff u + degree t t.out u)
  done;
  let carr = Int_vec.create (Int_vec.get coff n) in
  let w = ref 0 in
  let put v =
    Int_vec.set carr !w v;
    incr w
  in
  for u = 0 to n - 1 do
    iter_children t u put;
    Int_vec.sort_range carr ~lo:(Int_vec.get coff u) ~hi:!w
  done;
  let poff, parr = reverse_csr n coff carr in
  t.out.off <- coff;
  t.out.arr <- carr;
  t.inn.off <- poff;
  t.inn.arr <- parr;
  List.iter
    (fun d ->
      if t.n_extra > 0 then Array.fill d.extra 0 (Array.length d.extra) [];
      if t.n_deleted > 0 then Array.fill d.dels 0 (Array.length d.dels) 0)
    [ t.out; t.inn ];
  Hashtbl.reset t.deleted;
  t.csr_n <- n;
  t.n_extra <- 0;
  t.n_deleted <- 0;
  t.fold_at <- fold_threshold ~n t.m

let maybe_fold t = if t.n_extra + t.n_deleted > t.fold_at then fold t
let flatten t = if t.n_extra + t.n_deleted > 0 || t.csr_n < t.n then fold t

let csr_children t =
  flatten t;
  (t.out.off, t.out.arr)

let csr_parents t =
  flatten t;
  (t.inn.off, t.inn.arr)

(* ------------------------------------------------------------------ *)
(* Mutation *)

(* Allocate (or grow, doubling) one kind of per-node array, both
   directions, to cover the id space. *)
let grow_to t get set fill =
  let len = Array.length (get t.out) in
  if len < t.n then begin
    let cap = if len = 0 then t.n else max t.n (2 * len) in
    List.iter
      (fun d ->
        let b = Array.make cap fill in
        Array.blit (get d) 0 b 0 len;
        set d b)
      [ t.out; t.inn ]
  end

let ensure_extra t = grow_to t (fun d -> d.extra) (fun d a -> d.extra <- a) []
let ensure_dels t = grow_to t (fun d -> d.dels) (fun d a -> d.dels <- a) 0

let extend t n =
  if n > t.n then begin
    t.n <- n;
    if Array.length t.out.extra > 0 then ensure_extra t;
    if Array.length t.out.dels > 0 then ensure_dels t
  end

let rec insert_sorted x = function
  | y :: rest when y < x -> y :: insert_sorted x rest
  | l -> x :: l

let keep_sorted t =
  if not t.sorted then begin
    t.sorted <- true;
    if t.n_extra > 0 then
      List.iter
        (fun d -> Array.iteri (fun u l -> d.extra.(u) <- List.sort Int.compare l) d.extra)
        [ t.out; t.inn ]
  end

let add t u v =
  if tombstoned t u v then begin
    (* The slot still exists in the CSR: just lift the tombstone. *)
    Hashtbl.remove t.deleted (key ~fwd:true u v);
    t.out.dels.(u) <- t.out.dels.(u) - 1;
    t.inn.dels.(v) <- t.inn.dels.(v) - 1;
    t.n_deleted <- t.n_deleted - 1;
    t.m <- t.m + 1
  end
  else if not (in_csr t u v || in_extra t u v) then begin
    ensure_extra t;
    let push x l = if t.sorted then insert_sorted x l else x :: l in
    t.out.extra.(u) <- push v t.out.extra.(u);
    t.inn.extra.(v) <- push u t.inn.extra.(v);
    t.n_extra <- t.n_extra + 1;
    t.m <- t.m + 1;
    maybe_fold t
  end

let remove_once x l =
  let rec go acc = function
    | [] -> None
    | y :: rest -> if y = x then Some (List.rev_append acc rest) else go (y :: acc) rest
  in
  go [] l

(* Drop [x] from [d]'s overflow list at [u], which must hold it. *)
let unlink d u x =
  match remove_once x d.extra.(u) with
  | Some rest -> d.extra.(u) <- rest
  | None -> assert false

(* Tombstone the live CSR edge [u -> v]. *)
let tombstone t u v =
  Hashtbl.replace t.deleted (key ~fwd:true u v) ();
  t.out.dels.(u) <- t.out.dels.(u) + 1;
  t.inn.dels.(v) <- t.inn.dels.(v) + 1;
  t.n_deleted <- t.n_deleted + 1;
  t.m <- t.m - 1

let remove t u v =
  if tombstoned t u v then false
  else if in_csr t u v then begin
    ensure_dels t;
    tombstone t u v;
    maybe_fold t;
    true
  end
  else if in_extra t u v then begin
    unlink t.out u v;
    unlink t.inn v u;
    t.n_extra <- t.n_extra - 1;
    t.m <- t.m - 1;
    true
  end
  else false

(* The generic [remove] pays a list scan per overflow edge, which goes
   quadratic when a node's adjacency sits entirely in the overflow
   layer (a freshly split index class that splits again).  Here the
   node's CSR runs are tombstoned in one pass each and its own
   overflow lists are cleared wholesale, leaving only the
   neighbor-side removals. *)
let detach_all t u =
  if u < t.csr_n then begin
    ensure_dels t;
    (* A self-loop tombstoned by the first pass is skipped by the
       second: [tombstoned] sees it. *)
    iter_run t u (fun c -> tombstone t u c) (run_lo t t.out u) (run_hi t t.out u);
    for i = Int_vec.get t.inn.off u to Int_vec.get t.inn.off (u + 1) - 1 do
      let p = Int_vec.get t.inn.arr i in
      if not (tombstoned t p u) then tombstone t p u
    done
  end;
  if t.n_extra > 0 then begin
    (* A self-loop sits in both of [u]'s own lists but is one edge. *)
    let removed = ref 0 in
    List.iter
      (fun c ->
        incr removed;
        if c <> u then unlink t.inn c u)
      t.out.extra.(u);
    List.iter
      (fun p ->
        if p <> u then begin
          incr removed;
          unlink t.out p u
        end)
      t.inn.extra.(u);
    t.out.extra.(u) <- [];
    t.inn.extra.(u) <- [];
    t.n_extra <- t.n_extra - !removed;
    t.m <- t.m - !removed
  end;
  maybe_fold t
