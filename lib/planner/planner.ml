open Dkindex_graph
open Dkindex_core
open Dkindex_pathexpr

type entry = { name : string; idx : Index_graph.t; cat : Stats_catalog.t }

type t = {
  dg : Data_graph.t;
  mutable entry : entry option;  (* the one registered index *)
  mutable fallbacks : int;
  plan_cache : (Label.t array, Plan.t list) Hashtbl.t;
      (* memoized plans per label path, valid for one generation
         stamp; see [plans_of_path] *)
  mutable cache_stamp : int;
  (* one-entry MRU in front of the hashtable: the serving hot path is
     dominated by runs of the same query *)
  mutable last_path : Label.t array;
  mutable last_plans : Plan.t list;
}

let create dg =
  {
    dg;
    entry = None;
    fallbacks = 0;
    plan_cache = Hashtbl.create 64;
    cache_stamp = min_int;
    last_path = [||];
    last_plans = [];
  }

let register t ~name idx =
  if Option.is_some t.entry then invalid_arg "Planner.register: the planner already holds an index";
  if name = "raw" then invalid_arg "Planner.register: \"raw\" is reserved";
  if not (Index_graph.data idx == t.dg) then
    invalid_arg "Planner.register: index summarizes a different data graph";
  t.entry <- Some { name; idx; cat = Stats_catalog.create idx };
  Hashtbl.reset t.plan_cache;
  t.cache_stamp <- min_int;
  t.last_path <- [||]

let index t = Option.map (fun e -> e.idx) t.entry
let fallbacks t = t.fallbacks

(* Refresh the catalog and return the index generation as the plan
   memo's stamp (0 with no index). *)
let refresh_stamp t =
  match t.entry with
  | None -> 0
  | Some e ->
    Stats_catalog.refresh e.cat;
    Stats_catalog.generation e.cat

let catalog t =
  Option.map
    (fun e ->
      Stats_catalog.refresh e.cat;
      e.cat)
    t.entry

(* ------------------------------------------------------------------ *)
(* Cost model.  All formulas are documented in DESIGN.md §14; they
   estimate the paper's visit count (index visits + validation data
   visits), which is what Query_eval charges to Cost.t. *)

(* Frontier walk over per-label index populations: visits of a
   label-path traversal, and the estimated final frontier size.  The
   executor charges a visit per matched frontier node, so each step's
   cost is the next frontier: at most the next label's population, and
   at most the current frontier times the mean out-degree of the
   current label's nodes.  Per-label fanout matters — a coarse summary
   (1-index, F&B) splits container elements into many classes, so a
   hub label's fanout sits far above the index-wide mean and the
   frontier saturates at the full label population within a step or
   two, which is exactly what makes those indexes expensive to walk
   even when every matched node is certain. *)
let frontier_walk pops fanouts =
  let m = Array.length pops in
  let f = ref (float_of_int pops.(0)) in
  let visits = ref !f in
  for i = 1 to m - 1 do
    f := Float.min (float_of_int pops.(i)) (!f *. fanouts.(i - 1));
    visits := !visits +. !f
  done;
  (!visits, !f)

let scan_plan e (path : Label.t array) =
  let cat = e.cat in
  let m = Array.length path in
  let pops = Array.map (fun l -> Stats_catalog.label_inodes cat l) path in
  let fanouts = Array.map (fun l -> Stats_catalog.label_fanout cat l) path in
  (* Mirror the executor's `Auto direction choice (fewer end-label
     index nodes => backward) so the estimate prices the walk that
     will actually run.  The backward walk crosses the same edges in
     reverse, so its step costs reuse the forward fanouts, shifted. *)
  let backward = pops.(m - 1) < pops.(0) in
  let pops = if backward then Array.init m (fun i -> pops.(m - 1 - i)) else pops in
  let fanouts =
    if backward then Array.init m (fun i -> fanouts.(m - 1 - ((i + 1) mod m))) else fanouts
  in
  let iv, f_final = frontier_walk pops fanouts in
  let last = path.(m - 1) in
  let last_inodes = Stats_catalog.label_inodes cat last in
  let matched_share =
    if last_inodes = 0 then 0.0 else Float.min 1.0 (f_final /. float_of_int last_inodes)
  in
  (* Data nodes sitting in extents not refined far enough for a query
     of m labels (certainty needs k >= m - 1), scaled by how much of
     the label the traversal is expected to match. *)
  let uncovered = Stats_catalog.uncovered_extent cat last (m - 1) in
  let cand = float_of_int uncovered *. matched_share in
  let dv = cand *. float_of_int m in
  {
    Plan.access = Plan.Scan e.name;
    est_index_visits = iv;
    est_candidates = cand;
    est_data_visits = dv;
    est_total = iv +. dv;
    certain = uncovered = 0;
  }

let raw_path_plan e path =
  let cat = e.cat in
  let pops = Array.map (fun l -> Stats_catalog.label_extent cat l) path in
  let fanouts = Array.map (fun _ -> Stats_catalog.data_fanout cat) path in
  let visits, _ = frontier_walk pops fanouts in
  {
    Plan.access = Plan.Raw;
    est_index_visits = 0.0;
    est_candidates = 0.0;
    est_data_visits = visits;
    est_total = visits;
    certain = true;
  }

(* General expressions: cruder pricing.  The index side pays a sweep
   bounded by the live index nodes; validation is estimated from the
   coverage profile of every mentioned label at the expression's
   shortest word. *)
let expr_scan_plan t e expr =
  let cat = e.cat in
  let pool = Data_graph.pool t.dg in
  let mentioned =
    List.filter_map (fun name -> Label.Pool.find_opt pool name) (Path_ast.labels expr)
  in
  let min_len = max 1 (Path_ast.min_word_length expr) in
  let iv = float_of_int (Stats_catalog.n_inodes cat) in
  let horizon =
    match Path_ast.max_word_length expr with
    | Some mw -> mw - 1
    | None -> Stats_catalog.k_cap
  in
  let uncovered =
    List.fold_left (fun acc l -> acc + Stats_catalog.uncovered_extent cat l horizon) 0 mentioned
  in
  let cand = 0.5 *. float_of_int uncovered in
  let dv = cand *. float_of_int min_len in
  {
    Plan.access = Plan.Scan e.name;
    est_index_visits = iv;
    est_candidates = cand;
    est_data_visits = dv;
    est_total = iv +. dv;
    certain = uncovered = 0;
  }

let raw_expr_plan t =
  let visits =
    float_of_int (Data_graph.n_nodes t.dg) +. float_of_int (Data_graph.n_edges t.dg)
  in
  {
    Plan.access = Plan.Raw;
    est_index_visits = 0.0;
    est_candidates = 0.0;
    est_data_visits = visits;
    est_total = visits;
    certain = true;
  }

(* ------------------------------------------------------------------ *)
(* Enumeration *)

let intern_path t labels =
  let pool = Data_graph.pool t.dg in
  let interned = List.map (Label.Pool.find_opt pool) labels in
  if List.exists Option.is_none interned then None
  else Some (Array.of_list (List.map Option.get interned))

(* An unknown label means the answer is empty on every access path:
   plan as a raw no-op.  With no index there is no catalog to price
   from and the raw plan is the only plan, so its estimate is zero
   too. *)
let empty_query_plan =
  {
    Plan.access = Plan.Raw;
    est_index_visits = 0.0;
    est_candidates = 0.0;
    est_data_visits = 0.0;
    est_total = 0.0;
    certain = true;
  }

let compute_plans_of_path t path =
  match t.entry with
  | Some e when Array.length path > 0 -> [ scan_plan e path; raw_path_plan e path ]
  | Some _ | None -> [ empty_query_plan ]

(* ------------------------------------------------------------------ *)
(* Execution *)

let empty_result () =
  { Query_eval.nodes = []; cost = Cost.create (); n_candidates = 0; n_certain = 0 }

let exec_raw_path t path =
  let cost = Cost.create () in
  let nodes = Matcher.eval_label_path t.dg path ~cost in
  { Query_eval.nodes; cost; n_candidates = 0; n_certain = 0 }

let exec_raw_expr t expr =
  let cost = Cost.create () in
  let nfa = Nfa.compile (Data_graph.pool t.dg) expr in
  let nodes = Matcher.eval_nfa t.dg nfa ~cost in
  { Query_eval.nodes; cost; n_candidates = 0; n_certain = 0 }

let entry_named t name =
  match t.entry with
  | Some e when String.equal e.name name -> e
  | Some _ | None -> invalid_arg ("Planner.execute: unregistered index " ^ name)

let execute ?cache t plan expr =
  let scan =
    match plan.Plan.access with
    | Plan.Raw -> None
    | Plan.Scan name -> Some (entry_named t name)
  in
  match Path_ast.as_label_seq expr with
  | Some labels -> (
    match intern_path t labels with
    | Some p when Array.length p > 0 -> (
      match scan with
      | Some e -> Query_eval.eval_path ~strategy:`Auto ?cache e.idx p
      | None -> exec_raw_path t p)
    | Some _ | None -> empty_result ()  (* empty, or a label the graph never saw *))
  | None -> (
    match scan with
    | Some e -> Query_eval.eval_expr ?cache e.idx expr
    | None -> exec_raw_expr t expr)

(* Plans are memoized per path against the index generation (computed
   by [refresh_stamp], which the callers below have just run), so the
   steady-state planned query pays a one-entry MRU check or a hashtable
   probe, not a re-pricing. *)
let path_equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (Label.equal a.(i) b.(i) && go (i - 1)) in
  go (Array.length a - 1)

let plans_of_path t ~stamp path =
  if stamp <> t.cache_stamp then begin
    Hashtbl.reset t.plan_cache;
    t.cache_stamp <- stamp;
    t.last_path <- [||]
  end;
  if path_equal path t.last_path then t.last_plans
  else begin
    let key, plans =
      match Hashtbl.find_opt t.plan_cache path with
      | Some plans -> (path, plans)
      | None ->
        let key = Array.copy path in
        let plans = compute_plans_of_path t path in
        Hashtbl.add t.plan_cache key plans;
        (key, plans)
    in
    t.last_path <- key;
    t.last_plans <- plans;
    plans
  end

let plans t expr =
  let stamp = refresh_stamp t in
  match Path_ast.as_label_seq expr with
  | Some labels -> (
    match intern_path t labels with
    | Some path -> plans_of_path t ~stamp path
    | None -> [ empty_query_plan ])
  | None -> (
    match t.entry with
    | Some e -> [ expr_scan_plan t e expr; raw_expr_plan t ]
    | None -> [ raw_expr_plan t ])

let choose t expr = List.hd (plans t expr)

let choose_path t path =
  let stamp = refresh_stamp t in
  List.hd (plans_of_path t ~stamp path)

let explain t expr =
  let plans = plans t expr in
  let names = match t.entry with Some e -> [ e.name; "raw" ] | None -> [ "raw" ] in
  let header =
    Printf.sprintf "query %s: %d candidate plan(s) over [%s]" (Path_ast.to_string expr)
      (List.length plans) (String.concat ", " names)
  in
  header
  :: List.mapi
       (fun i p ->
         Printf.sprintf "  %d. %s%s" (i + 1) (Plan.describe p) (if i = 0 then "  <- chosen" else ""))
       plans

(* The fallback chain: try plans in order; the raw plan closes the
   chain and cannot fail. *)
let eval_planned ?cache t expr =
  let rec go = function
    | [] -> assert false  (* plans always end with Raw *)
    | [ last ] -> (last, execute ?cache t last expr)
    | p :: rest -> (
      match execute ?cache t p expr with
      | r -> (p, r)
      | exception _ ->
        t.fallbacks <- t.fallbacks + 1;
        go rest)
  in
  go (plans t expr)
