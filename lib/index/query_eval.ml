open Dkindex_graph
open Dkindex_pathexpr

type result = {
  nodes : int list;
  cost : Cost.t;
  n_candidates : int;
  n_certain : int;
}

let empty_result cost = { nodes = []; cost; n_candidates = 0; n_certain = 0 }

(* Extents are sorted arrays and (being a partition) pairwise disjoint,
   so the result list is a linear-time merge — no comparison sort. *)
let finish t cost finals ~certain ~validate =
  let n_candidates = ref 0 and n_certain = ref 0 in
  let validate = lazy (validate ()) in
  let pieces =
    List.map
      (fun id ->
        let nd = Index_graph.node t id in
        if certain nd then begin
          incr n_certain;
          nd.Index_graph.extent
        end
        else begin
          n_candidates := !n_candidates + nd.Index_graph.extent_size;
          let v = Lazy.force validate in
          let kept = Array.make nd.Index_graph.extent_size 0 in
          let w = ref 0 in
          Array.iter
            (fun u ->
              if v u then begin
                kept.(!w) <- u;
                incr w
              end)
            nd.Index_graph.extent;
          Array.sub kept 0 !w
        end)
      finals
  in
  {
    nodes = Int_arr.to_list (Int_arr.merge_many pieces);
    cost;
    n_candidates = !n_candidates;
    n_certain = !n_certain;
  }

(* Backward evaluation: does some index path matching path.(0..pos)
   end at [id]?  [pos] strictly decreases, so memoization is sound even
   on cyclic index graphs.  The memo is a flat byte plane (0 unknown,
   1 yes, 2 no) over (id, pos) — no hashing on the hot path. *)
let eval_path_backward t path ~cost =
  let m = Array.length path in
  let memo = Bytes.make (Index_graph.max_id t * m) '\000' in
  let rec matches id pos =
    Label.equal (Index_graph.node t id).Index_graph.label path.(pos)
    && (pos = 0
       ||
       let slot = (id * m) + pos in
       match Bytes.unsafe_get memo slot with
       | '\001' -> true
       | '\002' -> false
       | _ ->
         Cost.visit_index cost;
         let r = Index_graph.exists_parents t id (fun p -> matches p (pos - 1)) in
         Bytes.unsafe_set memo slot (if r then '\001' else '\002');
         r)
  in
  let targets = Index_graph.nodes_with_label t path.(m - 1) in
  List.iter (fun _ -> Cost.visit_index cost) targets;
  List.filter (fun id -> matches id (m - 1)) targets

(* Scratch for [eval_path_forward], reused across calls (domain-local,
   so evaluations on different domains cannot race).  The stamp array is never
   cleared: each call claims a fresh band of stamp values above [gen],
   so stale marks from earlier calls can never collide. *)
type scratch = {
  mutable stamp : int array;
  mutable cur : int array;
  mutable nxt : int array;
  mutable gen : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { stamp = [||]; cur = [||]; nxt = [||]; gen = 0 })

let get_scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.stamp < n then begin
    s.stamp <- Array.make n 0;
    s.cur <- Array.make n 0;
    s.nxt <- Array.make n 0;
    s.gen <- 0
  end;
  s

(* Forward evaluation with flat int-array frontiers and stamp-array
   dedup, mirroring [Matcher.eval_label_path]. *)
let eval_path_forward t path ~cost =
  let m = Array.length path in
  let start = Index_graph.nodes_with_label t path.(0) in
  List.iter (fun _ -> Cost.visit_index cost) start;
  if m = 1 then start
  else begin
    let n = Index_graph.max_id t in
    let s = get_scratch n in
    let stamp = s.stamp in
    let base = s.gen in
    s.gen <- base + m;
    let cur = ref s.cur and next = ref s.nxt in
    let cur_len = ref 0 in
    List.iter
      (fun id ->
        !cur.(!cur_len) <- id;
        incr cur_len)
      start;
    for i = 1 to m - 1 do
      let w = ref 0 in
      let nxt = !next in
      for j = 0 to !cur_len - 1 do
        Index_graph.iter_children t !cur.(j) (fun child ->
            if
              stamp.(child) <> base + i
              && Label.equal (Index_graph.node t child).Index_graph.label path.(i)
            then begin
              stamp.(child) <- base + i;
              nxt.(!w) <- child;
              incr w;
              Cost.visit_index cost
            end)
      done;
      let tmp = !cur in
      cur := !next;
      next := tmp;
      cur_len := !w
    done;
    let finals = ref [] in
    for j = !cur_len - 1 downto 0 do
      finals := !cur.(j) :: !finals
    done;
    !finals
  end

(* The matched final index nodes of a label path, walked in the
   direction [strategy] selects. *)
let matched_finals strategy t path ~cost =
  let m = Array.length path in
  let backward =
    match strategy with
    | `Forward -> false
    | `Backward -> true
    | `Auto ->
      Index_graph.count_with_label t path.(m - 1) < Index_graph.count_with_label t path.(0)
  in
  if backward then eval_path_backward t path ~cost else eval_path_forward t path ~cost

let eval_path ?(strategy = `Forward) ?cache t path =
  let cost = Cost.create () in
  let m = Array.length path in
  if m = 0 then empty_result cost
  else begin
    let finals = matched_finals strategy t path ~cost in
    let data = Index_graph.data t in
    finish t cost finals
      ~certain:(fun nd -> nd.Index_graph.k >= m - 1)
      ~validate:(fun () ->
        match cache with
        | Some c -> Validation_cache.path_validator c path ~cost
        | None -> Matcher.make_path_validator data path ~cost)
  end

let eval_path_strings t labels =
  let pool = Data_graph.pool (Index_graph.data t) in
  let interned = List.map (Label.Pool.find_opt pool) labels in
  if List.exists Option.is_none interned then empty_result (Cost.create ())
  else eval_path t (Array.of_list (List.map Option.get interned))

let eval_expr ?cache t expr =
  let cost = Cost.create () in
  let data = Index_graph.data t in
  let nfa, table =
    match cache with
    | Some c -> Validation_cache.nfa c expr
    | None ->
      let nfa = Nfa.compile (Data_graph.pool data) expr in
      (nfa, Nfa.transition_table nfa ~n_labels:(Label.Pool.count (Data_graph.pool data)))
  in
  let n_states = Nfa.n_states nfa in
  let n = Index_graph.max_id t in
  (* Track matching path lengths only as far as they can influence the
     soundness decision: for a bounded expression, its longest word; for
     an unbounded one, just beyond the largest finite similarity. *)
  let cap =
    match Path_ast.max_word_length expr with
    | Some m -> m + 1
    | None -> Index_graph.max_k t + 2
  in
  (* dist.(id * n_states + q): length (in labels) of the longest
     matching path reaching NFA state q at index node id, capped;
     -1 = unreached.  One flat plane replaces the per-node hashtable of
     rows; [touched] records which nodes gained any state, so the final
     acceptance scan does not sweep the whole plane. *)
  let dist = Array.make (n * n_states) (-1) in
  let touched = Array.make n 0 in
  let n_touched = ref 0 in
  let on_queue = Bytes.make n '\000' in
  let queue = Queue.create () in
  let relax id q len =
    let len = min len cap in
    let slot = (id * n_states) + q in
    if len > dist.(slot) then begin
      if Bytes.unsafe_get on_queue id = '\000' then begin
        (* first state ever for this node *)
        touched.(!n_touched) <- id;
        incr n_touched;
        Bytes.unsafe_set on_queue id '\001'
      end;
      dist.(slot) <- len;
      Queue.add id queue
    end
  in
  let init = Nfa.initial nfa in
  Index_graph.iter_alive t (fun nd ->
      let code = Label.to_int nd.Index_graph.label in
      Bitset.iter init (fun q ->
          Bitset.iter (Nfa.table_step table q code) (fun q' ->
              relax nd.Index_graph.id q' 1)));
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    if Index_graph.is_alive t id then begin
      Cost.visit_index cost;
      let base = id * n_states in
      Index_graph.iter_children t id (fun child ->
          let child_code = Label.to_int (Index_graph.node t child).Index_graph.label in
          for q = 0 to n_states - 1 do
            let d = dist.(base + q) in
            if d >= 0 then
              Bitset.iter (Nfa.table_step table q child_code) (fun q' ->
                  relax child q' (d + 1))
          done)
    end
  done;
  (* Matched index nodes and the longest accepted-path length each.
     States in the plane always come from epsilon-closed sets, so
     testing each against the precomputed accepting bitset is exact. *)
  let finals = ref [] in
  let max_len = Array.make n (-1) in
  for j = !n_touched - 1 downto 0 do
    let id = touched.(j) in
    if Index_graph.is_alive t id then begin
      let base = id * n_states in
      let best = ref (-1) in
      for q = 0 to n_states - 1 do
        let d = dist.(base + q) in
        if d > !best && Nfa.is_accepting_state nfa q then best := d
      done;
      if !best >= 0 then begin
        finals := id :: !finals;
        max_len.(id) <- !best
      end
    end
  done;
  finish t cost !finals
    ~certain:(fun nd ->
      (* 1-index nodes are sound for any expression; others when the
         longest matching path (uncapped) fits their similarity. *)
      nd.Index_graph.k >= Index_graph.k_infinite
      ||
      let len = max_len.(nd.Index_graph.id) in
      len < cap && nd.Index_graph.k >= len - 1)
    ~validate:(fun () ->
      match cache with
      | Some c -> Validation_cache.nfa_validator c expr ~cost
      | None -> fun u -> Matcher.node_matches_nfa data nfa ~node:u ~cost)

(* ------------------------------------------------------------------ *)
(* Branching path queries                                               *)

let index_view t ~cost =
  {
    Tree_pattern.root = Index_graph.root_node t;
    label_name =
      (fun id ->
        Label.Pool.name (Data_graph.pool (Index_graph.data t)) (Index_graph.node t id).Index_graph.label);
    children = (fun id -> Index_graph.children_list t id);
    (* Index nodes carry no payloads: value predicates over-approximate
       here and are settled by validation. *)
    check_value = (fun _ _ -> true);
    visit = (fun _ -> Cost.visit_index cost);
  }

(* Exact per-node validation of a pattern candidate: the node must
   satisfy the last step's own subtree (predicates, downward) and some
   chain of ancestors must realize the main path (upward).  Only
   positive prefix results are cached: negative ones can depend on the
   visited set in cyclic graphs. *)
let make_pattern_validator g (pattern : Tree_pattern.t) ~cost =
  let view = Tree_pattern.data_view g ~cost in
  let steps = Array.of_list pattern.Tree_pattern.steps in
  let m = Array.length steps in
  let root = Data_graph.root g in
  (* Strict descendants of the root, for a leading '//': an index
     extent may contain structurally-equivalent but unreachable nodes,
     which must not be validated in. *)
  let root_descendants =
    lazy (Int_set.of_list (Tree_pattern.descendants view root))
  in
  let true_memo : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec prefix_matches u i =
    Hashtbl.mem true_memo (u, i)
    ||
    let axis, node = steps.(i) in
    Cost.visit_data cost;
    let here = Tree_pattern.matches_at view node u in
    let ok =
      here
      &&
      if i = 0 then begin
        match axis with
        | Tree_pattern.Child -> Data_graph.has_edge g root u
        | Tree_pattern.Descendant -> Int_set.mem u (Lazy.force root_descendants)
      end
      else begin
        match axis with
        | Tree_pattern.Child ->
          Data_graph.exists_parents g u (fun p -> prefix_matches p (i - 1))
        | Tree_pattern.Descendant -> ancestor_matches (Int_set.singleton u) u (i - 1)
      end
    in
    if ok then Hashtbl.replace true_memo (u, i) ();
    ok
  and ancestor_matches visited u i =
    (* [visited] only guards re-expansion: a node can be its own strict
       ancestor through a cycle, so the prefix test itself must run on
       every parent, visited or not. *)
    Data_graph.exists_parents g u (fun p ->
        prefix_matches p i
        || ((not (Int_set.mem p visited)) && ancestor_matches (Int_set.add p visited) p i))
  in
  fun u -> m > 0 && prefix_matches u (m - 1)

let eval_pattern ?(validate = true) t pattern =
  let cost = Cost.create () in
  (* Value predicates cannot be decided on the index (no payloads);
     force validation so results stay exact even on a covering index. *)
  let validate = validate || Tree_pattern.has_value_test pattern in
  let view = index_view t ~cost in
  let finals = Tree_pattern.eval view pattern in
  if not validate then
    let pieces = List.map (fun id -> (Index_graph.node t id).Index_graph.extent) finals in
    {
      nodes = Int_arr.to_list (Int_arr.merge_many pieces);
      cost;
      n_candidates = 0;
      n_certain = List.length finals;
    }
  else begin
    let data = Index_graph.data t in
    finish t cost finals
      ~certain:(fun _ -> false)
      ~validate:(fun () -> make_pattern_validator data pattern ~cost)
  end

(* ------------------------------------------------------------------ *)
(* Batch serving                                                        *)

let eval_batch ?(strategy = `Forward) ?(cache = true) t queries =
  let vcache = if cache then Some (Validation_cache.create t) else None in
  Array.of_list (List.map (eval_path ~strategy ?cache:vcache t) queries)
