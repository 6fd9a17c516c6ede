open Dkindex_graph
open Dkindex_pathexpr

(* One clock slot per interned table (path memo or NFA node memo).
   Tables themselves are never evicted — compiled automata are cheap to
   keep and expensive to rebuild — only their memoized answers are
   dropped, which is exactly what grows without bound under churn. *)
type slot = {
  mutable s_ref : bool;  (* second-chance bit, set on every lookup *)
  s_size : unit -> int;  (* live memoized answers in this table *)
  s_drop : unit -> unit;  (* reset the table's answers *)
}

type nfa_entry = {
  nfa : Nfa.t;
  table : Nfa.table;
  node_memo : (int, bool) Hashtbl.t;
      (* data node -> does some matching path end here?  Both polarities
         are cacheable: [Matcher.node_matches_nfa] is a fixpoint over
         the node's ancestor closure, deterministic on a fixed graph. *)
  nfa_slot : slot;
}

type t = {
  idx : Index_graph.t;
  mutable gen : int;
  path_memos : (int list, (int * int, bool) Hashtbl.t * slot) Hashtbl.t;
      (* label-code word -> (node, position) -> prefix-match answer *)
  nfa_entries : (Path_ast.t, nfa_entry) Hashtbl.t;
  max_entries : int;
  mutable slots : slot array;  (* clock ring; grows, never shrinks *)
  mutable n_slots : int;
  mutable hand : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_max_entries = 1 lsl 20

let create ?(max_entries = default_max_entries) idx =
  if max_entries < 1 then invalid_arg "Validation_cache.create: max_entries < 1";
  {
    idx;
    gen = Index_graph.generation idx;
    path_memos = Hashtbl.create 16;
    nfa_entries = Hashtbl.create 8;
    max_entries;
    slots = Array.make 8 { s_ref = false; s_size = (fun () -> 0); s_drop = ignore };
    n_slots = 0;
    hand = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }


let add_slot t s =
  if t.n_slots = Array.length t.slots then begin
    let bigger = Array.make (2 * t.n_slots) s in
    Array.blit t.slots 0 bigger 0 t.n_slots;
    t.slots <- bigger
  end;
  t.slots.(t.n_slots) <- s;
  t.n_slots <- t.n_slots + 1

let entry_count t =
  let total = ref 0 in
  for i = 0 to t.n_slots - 1 do
    total := !total + t.slots.(i).s_size ()
  done;
  !total

(* Clock (second-chance) sweep: slots touched since the last sweep get
   their bit cleared and survive; the rest have their answers dropped,
   until the total is back under the cap.  Two full revolutions always
   suffice (after one revolution every bit is clear). *)
let enforce_cap t =
  let total = ref (entry_count t) in
  if !total > t.max_entries && t.n_slots > 0 then begin
    let steps = ref (2 * t.n_slots) in
    while !total > t.max_entries && !steps > 0 do
      let s = t.slots.(t.hand) in
      t.hand <- (t.hand + 1) mod t.n_slots;
      decr steps;
      if s.s_ref then s.s_ref <- false
      else begin
        let sz = s.s_size () in
        if sz > 0 then begin
          s.s_drop ();
          t.evictions <- t.evictions + sz;
          total := !total - sz
        end
      end
    done
  end

let invalidate t =
  Hashtbl.iter (fun _ (memo, _) -> Hashtbl.reset memo) t.path_memos;
  (* Compiled automata depend only on the expression and the label
     pool, which never change under an index mutation — only the
     per-node answers go. *)
  Hashtbl.iter (fun _ e -> Hashtbl.reset e.node_memo) t.nfa_entries;
  t.gen <- Index_graph.generation t.idx

(* Every lookup passes through here: a generation moved by any index or
   data mutation (split, promotion, demotion, edge updates — all bump
   it, see {!Index_graph.generation}) drops the memoized answers before
   they can be served stale. *)
let sync t = if Index_graph.generation t.idx <> t.gen then invalidate t

let path_validator t path ~cost =
  sync t;
  enforce_cap t;
  let key = Array.fold_right (fun l acc -> Label.to_int l :: acc) path [] in
  let memo =
    match Hashtbl.find_opt t.path_memos key with
    | Some (memo, slot) ->
      t.hits <- t.hits + 1;
      slot.s_ref <- true;
      memo
    | None ->
      t.misses <- t.misses + 1;
      let memo = Hashtbl.create 256 in
      let slot =
        {
          s_ref = true;
          s_size = (fun () -> Hashtbl.length memo);
          s_drop = (fun () -> Hashtbl.reset memo);
        }
      in
      Hashtbl.add t.path_memos key (memo, slot);
      add_slot t slot;
      memo
  in
  Matcher.make_path_validator ~memo (Index_graph.data t.idx) path ~cost

let nfa_entry t expr =
  sync t;
  enforce_cap t;
  match Hashtbl.find_opt t.nfa_entries expr with
  | Some e ->
    t.hits <- t.hits + 1;
    e.nfa_slot.s_ref <- true;
    e
  | None ->
    t.misses <- t.misses + 1;
    let data = Index_graph.data t.idx in
    let nfa = Nfa.compile (Data_graph.pool data) expr in
    let table = Nfa.transition_table nfa ~n_labels:(Label.Pool.count (Data_graph.pool data)) in
    let node_memo = Hashtbl.create 256 in
    let slot =
      {
        s_ref = true;
        s_size = (fun () -> Hashtbl.length node_memo);
        s_drop = (fun () -> Hashtbl.reset node_memo);
      }
    in
    let e = { nfa; table; node_memo; nfa_slot = slot } in
    Hashtbl.add t.nfa_entries expr e;
    add_slot t slot;
    e

let nfa t expr =
  let e = nfa_entry t expr in
  (e.nfa, e.table)

let nfa_validator t expr ~cost =
  let e = nfa_entry t expr in
  let data = Index_graph.data t.idx in
  fun u ->
    match Hashtbl.find_opt e.node_memo u with
    | Some r -> r
    | None ->
      let r = Matcher.node_matches_nfa data e.nfa ~node:u ~cost in
      Hashtbl.add e.node_memo u r;
      r

let stats t = (t.hits, t.misses)
let evictions t = t.evictions
