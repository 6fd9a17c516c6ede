open Dkindex_graph

type partition = { cls : int array; n_classes : int; parent_class : int array }

let label_partition g =
  let n = Data_graph.n_nodes g in
  let cls = Array.make n 0 in
  (* Label codes are dense pool indices, so a flat array replaces the
     hash table (and the option its lookup would allocate per node). *)
  let by_label = Array.make (Label.Pool.count (Data_graph.pool g)) (-1) in
  let count = ref 0 in
  for u = 0 to n - 1 do
    let code = Label.to_int (Data_graph.label g u) in
    let c =
      let c = by_label.(code) in
      if c >= 0 then c
      else begin
        let c = !count in
        incr count;
        by_label.(code) <- c;
        c
      end
    in
    cls.(u) <- c
  done;
  { cls; n_classes = !count; parent_class = Array.init !count Fun.id }

let class_labels g p =
  let labels = Array.make p.n_classes (Label.of_int 0) in
  Data_graph.iter_nodes g (fun u -> labels.(p.cls.(u)) <- Data_graph.label g u);
  labels

(* A node's key for the next round is (own class, set of adjacent
   classes).  Rather than materializing and sorting that set per node,
   we hash it into a 64-bit signature with an order-insensitive combine
   (sum + xor of mixed class ids, so duplicates are dropped by a stamp
   array and ordering never matters), intern signatures in an
   int-keyed table, and verify every signature hit against a stored
   representative node to rule out collisions.  Per-node work is
   O(degree) with no lists built. *)

let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x27D4EB2F165667C5 in
  x lxor (x lsr 32)

(* The refinement passes read adjacency through the graph's flat CSR
   arrays (offsets [off], neighbors [arr]) rather than the
   closure-taking iterators: a closure per node would itself be a
   per-node allocation, and these loops must stay allocation-free. *)

(* Signature of node [u]: ineligible classes pass through unsplit, so
   their nodes hash as if they had no adjacent classes — the same key
   shape an eligible node with no neighbors gets (matching the
   list-key semantics, where both were [(c, [])]).  [seen] is a
   per-class stamp array, stamped with the node id, so deduplication
   needs no clearing between nodes. *)
let signature p ~eligible ~seen ~off ~arr u =
  let c = p.cls.(u) in
  if eligible c then begin
    let sum = ref 0 and xr = ref 0 and cnt = ref 0 in
    for i = Int_vec.get off u to Int_vec.get off (u + 1) - 1 do
      let pc = p.cls.(Int_vec.unsafe_get arr i) in
      if seen.(pc) <> u then begin
        seen.(pc) <- u;
        let h = mix pc in
        sum := !sum + h;
        xr := !xr lxor h;
        incr cnt
      end
    done;
    mix (c + (!sum lxor (!xr * 31) lxor (!cnt * 0x27D4EB2F165667C5)))
  end
  else mix c

(* Exact key equality of node [u] against representative [rep] (both
   known to be in old class [c]): ineligible classes compare equal
   outright; otherwise their adjacent-class sets must coincide.  The
   ticket-stamped [vstamp] array marks the representative's distinct
   classes with ticket [t] and the candidate's matches with [t + 1],
   so set equality is two O(degree) scans with no clearing. *)
let same_key p ~eligible ~vstamp ~ticket ~off ~arr u ~rep c =
  if not (eligible c) then true
  else begin
    ticket := !ticket + 2;
    let t = !ticket in
    let distinct = ref 0 in
    for i = Int_vec.get off rep to Int_vec.get off (rep + 1) - 1 do
      let pc = p.cls.(Int_vec.unsafe_get arr i) in
      if vstamp.(pc) <> t then begin
        vstamp.(pc) <- t;
        incr distinct
      end
    done;
    let ok = ref true and matched = ref 0 in
    for i = Int_vec.get off u to Int_vec.get off (u + 1) - 1 do
      let pc = p.cls.(Int_vec.unsafe_get arr i) in
      if vstamp.(pc) = t then begin
        vstamp.(pc) <- t + 1;
        incr matched
      end
      else if vstamp.(pc) <> t + 1 then ok := false
    done;
    !ok && !matched = !distinct
  end

(* Interning state: per-class side arrays (growable, doubled) plus an
   int-keyed table from signature to the head of a chain of classes
   sharing that signature (collisions are resolved by [same_key]). *)
type intern = {
  mutable n : int;
  mutable rep : int array;  (* class -> representative node *)
  mutable old : int array;  (* class -> source class in the argument partition *)
  mutable nxt : int array;  (* class -> next class with the same signature *)
  table : (int, int) Hashtbl.t;  (* signature -> chain head *)
}

let intern_create hint =
  let cap = max 256 hint in
  {
    n = 0;
    rep = Array.make cap 0;
    old = Array.make cap 0;
    nxt = Array.make cap (-1);
    table = Hashtbl.create (2 * cap);
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

let intern_push it ~rep ~old ~nxt =
  if it.n = Array.length it.rep then begin
    it.rep <- grow it.rep;
    it.old <- grow it.old;
    it.nxt <- grow it.nxt
  end;
  let cid = it.n in
  it.n <- cid + 1;
  it.rep.(cid) <- rep;
  it.old.(cid) <- old;
  it.nxt.(cid) <- nxt;
  cid

(* Find or allocate the class of node [u] with signature [sg] and old
   class [c].  A plain while-loop over the chain: no closure, no
   allocation on the hit path (the common one). *)
let intern_assign it p ~eligible ~vstamp ~ticket ~off ~arr u sg c =
  let head = try Hashtbl.find it.table sg with Not_found -> -1 in
  let cid = ref head and found = ref (-1) in
  while !found < 0 && !cid >= 0 do
    if
      it.old.(!cid) = c
      && same_key p ~eligible ~vstamp ~ticket ~off ~arr u ~rep:it.rep.(!cid) c
    then found := !cid
    else cid := it.nxt.(!cid)
  done;
  if !found >= 0 then !found
  else begin
    let cid = intern_push it ~rep:u ~old:c ~nxt:head in
    Hashtbl.replace it.table sg cid;
    cid
  end

(* One fused pass computing each node's signature and assigning its
   class. *)
let refine_in_ram ?into g p ~eligible ~off ~arr =
  let n = Data_graph.n_nodes g in
  let nc = p.n_classes in
  (* Every slot is written below, so a reused buffer needs no clearing. *)
  let cls =
    match into with Some a when Array.length a = n && a != p.cls -> a | _ -> Array.make n 0
  in
  let seen = Array.make nc (-1) in
  let vstamp = Array.make nc 0 in
  let ticket = ref 0 in
  let it = intern_create nc in
  (* An ineligible class passes through unsplit, so all its nodes land
     in one new class: resolve it once and skip the hash lookup for
     the rest of the class. *)
  let direct = Array.make nc (-1) in
  for u = 0 to n - 1 do
    let c = p.cls.(u) in
    if not (eligible c) then begin
      let d = direct.(c) in
      if d >= 0 then cls.(u) <- d
      else begin
        let cid = intern_assign it p ~eligible ~vstamp ~ticket ~off ~arr u (mix c) c in
        direct.(c) <- cid;
        cls.(u) <- cid
      end
    end
    else begin
      let sg = signature p ~eligible ~seen ~off ~arr u in
      cls.(u) <- intern_assign it p ~eligible ~vstamp ~ticket ~off ~arr u sg c
    end
  done;
  ({ cls; n_classes = it.n; parent_class = Array.sub it.old 0 it.n }, it.n <> nc)

(* External-memory refinement (after Hellings et al., "I/O efficient
   bisimulation partitioning"): instead of interning keys in a hash
   table, write each node's exact key as a sorted record
   [old class; #distinct parent classes; those classes ascending; node id]
   to an external sorter, then group equal keys in one merged scan.
   RAM use is O(n) words (class arrays) regardless of m — the O(m)
   key data lives in the sorter's spill runs, and adjacency is read
   once in CSR order (sequential page faults on a mapped graph).

   Numbering: within a group records sort by the trailing node id, so
   the group's first record carries its minimum node; ranking groups
   by that minimum reproduces the first-occurrence class numbering of
   the in-RAM pass exactly — the two paths agree bit-for-bit.  An
   ineligible class emits [c; 0; u] for every node, which is also the
   key an eligible class of parentless nodes gets; the shapes can
   never meet, because eligibility is a property of the class. *)
let refine_external ?tmp_dir ?mem_budget g p ~eligible ~off ~arr =
  let n = Data_graph.n_nodes g in
  let nc = p.n_classes in
  let sorter = Ext_sort.Records.create ?mem_budget ?tmp_dir () in
  Fun.protect ~finally:(fun () -> Ext_sort.Records.close sorter) @@ fun () ->
  let scratch = ref (Array.make 64 0) in
  let seen = Array.make nc (-1) in
  for u = 0 to n - 1 do
    let c = p.cls.(u) in
    if eligible c then begin
      let lo = Int_vec.get off u and hi = Int_vec.get off (u + 1) in
      if Array.length !scratch < hi - lo + 3 then
        scratch := Array.make (2 * (hi - lo + 3)) 0;
      let s = !scratch in
      let d = ref 0 in
      for i = lo to hi - 1 do
        let pc = p.cls.(Int_vec.unsafe_get arr i) in
        if seen.(pc) <> u then begin
          seen.(pc) <- u;
          s.(2 + !d) <- pc;
          incr d
        end
      done;
      Int_arr.sort_range s ~lo:2 ~hi:(2 + !d);
      s.(0) <- c;
      s.(1) <- !d;
      s.(2 + !d) <- u;
      Ext_sort.Records.add sorter s ~len:(3 + !d)
    end
    else begin
      let s = !scratch in
      s.(0) <- c;
      s.(1) <- 0;
      s.(2) <- u;
      Ext_sort.Records.add sorter s ~len:3
    end
  done;
  (* Merged scan: records with equal key prefixes form one new class. *)
  let cls_prov = Int_vec.create n in
  let cap0 = max 256 nc in
  let min_u = ref (Array.make cap0 0) in
  let old_c = ref (Array.make cap0 0) in
  let key = ref (Array.make 64 0) in
  let key_len = ref (-1) in
  let gid = ref (-1) in
  Ext_sort.Records.iter_merged sorter (fun buf len ->
      let klen = len - 1 in
      let same =
        !key_len = klen
        &&
        let i = ref 0 in
        while !i < klen && (!key).(!i) = buf.(!i) do
          incr i
        done;
        !i = klen
      in
      let u = buf.(klen) in
      if not same then begin
        incr gid;
        if Array.length !key < klen then key := Array.make (2 * klen) 0;
        Array.blit buf 0 !key 0 klen;
        key_len := klen;
        if !gid = Array.length !min_u then begin
          min_u := Array.append !min_u (Array.make !gid 0);
          old_c := Array.append !old_c (Array.make !gid 0)
        end;
        (!min_u).(!gid) <- u;
        (!old_c).(!gid) <- buf.(0)
      end;
      Int_vec.set cls_prov u !gid);
  let ng = !gid + 1 in
  (* Rank groups by their minimum node = global first occurrence. *)
  let order = Array.init ng Fun.id in
  let min_u = !min_u and old_c = !old_c in
  Array.sort (fun a b -> Int.compare min_u.(a) min_u.(b)) order;
  let final = Array.make ng 0 in
  Array.iteri (fun rank grp -> final.(grp) <- rank) order;
  let cls = Array.init n (fun u -> final.(Int_vec.get cls_prov u)) in
  let parent_class = Array.init ng (fun rank -> old_c.(order.(rank))) in
  ({ cls; n_classes = ng; parent_class }, ng <> nc)

type mode = [ `Auto | `In_ram | `External ]

(* Auto cutover: below this many edges the in-RAM hash-interning path
   wins easily; above it, key records no longer fit comfortably in RAM
   and the sort/scan pass takes over. *)
let auto_threshold = 1 lsl 24

let resolve_mode mode g : [ `In_ram | `External ] =
  match mode with
  | (`In_ram | `External) as m -> m
  | `Auto -> if Data_graph.n_edges g >= auto_threshold then `External else `In_ram

let refine_dispatch ?into ~mode g p ~eligible ~off ~arr =
  match resolve_mode mode g with
  | `In_ram -> refine_in_ram ?into g p ~eligible ~off ~arr
  | `External -> refine_external g p ~eligible ~off ~arr

let refine ?(mode = `Auto) ?into g p ~eligible =
  let off, arr = Data_graph.csr_parents g in
  refine_dispatch ?into ~mode g p ~eligible ~off ~arr

let refine_by_children ?(mode = `Auto) g p =
  let off, arr = Data_graph.csr_children g in
  refine_dispatch ~mode g p ~eligible:(fun _ -> true) ~off ~arr

(* Round-to-round eligibility.  When a round is over, a class of the
   new partition can only split in the next round if some node in it
   has a parent whose class just split: classes formed by earlier
   rounds hold nodes with equal parent-class sets, and an unsplit
   parent class changes those sets only by the uniform old->new
   renaming, which preserves their equality.  Driving [refine] with
   that eligible set turns late rounds (where almost nothing moves)
   into O(n) pass-throughs instead of full re-hashing passes, and an
   empty set proves stability without a confirming round.  Because
   pass-through and no-split classes land on the same first-occurrence
   ids either way, partitions and numbering stay bit-for-bit identical
   to always-eligible refinement. *)
let next_eligible ~off ~arr n p p' =
  let kids = Array.make p.n_classes 0 in
  Array.iter (fun oc -> kids.(oc) <- kids.(oc) + 1) p'.parent_class;
  (* new class -> did its source class split this round *)
  let moved = Array.map (fun oc -> kids.(oc) >= 2) p'.parent_class in
  let e = Array.make p'.n_classes false in
  for u = 0 to n - 1 do
    let hot = ref false in
    for i = Int_vec.get off u to Int_vec.get off (u + 1) - 1 do
      if moved.(p'.cls.(Int_vec.unsafe_get arr i)) then hot := true
    done;
    if !hot then e.(p'.cls.(u)) <- true
  done;
  e

let all_false e = not (Array.exists Fun.id e)

let k_partition ?(mode = `Auto) g ~k =
  let off, arr = Data_graph.csr_parents g in
  let n = Data_graph.n_nodes g in
  let p = ref (label_partition g) in
  let elig = ref None in
  (try
     for _ = 1 to k do
       let eligible =
         match !elig with
         | None -> fun _ -> true
         | Some e -> if all_false e then raise Exit else fun c -> e.(c)
       in
       let p', changed = refine_dispatch ~mode g !p ~eligible ~off ~arr in
       if not changed then begin
         p := p';
         raise Exit
       end;
       elig := Some (next_eligible ~off ~arr n !p p');
       p := p'
     done
   with Exit -> ());
  !p

let stable_partition ?(mode = `Auto) g =
  let off, arr = Data_graph.csr_parents g in
  let n = Data_graph.n_nodes g in
  let rec go p rounds elig =
    match elig with
    | Some e when all_false e -> (p, rounds)
    | _ ->
      let eligible =
        match elig with None -> fun _ -> true | Some e -> fun c -> e.(c)
      in
      let p', changed = refine_dispatch ~mode g p ~eligible ~off ~arr in
      if not changed then (p, rounds)
      else go p' (rounds + 1) (Some (next_eligible ~off ~arr n p p'))
  in
  go (label_partition g) 0 None
