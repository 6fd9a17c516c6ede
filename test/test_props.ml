(* Property-based tests (qcheck, registered through alcotest): the
   optimized implementations are compared against naive reference
   implementations and against each other on randomized inputs. *)

open Dkindex_core
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Cost = Dkindex_pathexpr.Cost
module Path_ast = Dkindex_pathexpr.Path_ast
module Nfa = Dkindex_pathexpr.Nfa
module Matcher = Dkindex_pathexpr.Matcher
module Prng = Dkindex_datagen.Prng

let to_alcotest = QCheck_alcotest.to_alcotest

(* --------------------------------------------------------------- *)
(* Generators                                                        *)

let graph_params =
  QCheck.make
    ~print:(fun (seed, nodes, extra) -> Printf.sprintf "seed=%d nodes=%d extra=%d" seed nodes extra)
    QCheck.Gen.(
      triple (int_bound 10_000) (int_range 2 120) (int_bound 40))

let graph_of (seed, nodes, extra) =
  Dkindex_datagen.Random_graph.graph ~seed ~nodes ~n_labels:4 ~extra_edges:extra ()

let small_graph_params =
  QCheck.make
    ~print:(fun (seed, nodes, extra) -> Printf.sprintf "seed=%d nodes=%d extra=%d" seed nodes extra)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 2 35) (int_bound 12))

(* Random regular path expressions over l0..l3. *)
let expr_gen =
  let open QCheck.Gen in
  let label = map (fun i -> Path_ast.Label (Printf.sprintf "l%d" i)) (int_bound 3) in
  sized_size (int_bound 6) (fun n ->
      fix
        (fun self n ->
          if n <= 0 then oneof [ label; return Path_ast.Any ]
          else
            frequency
              [
                (2, label);
                (1, return Path_ast.Any);
                (3, map2 (fun a b -> Path_ast.Seq (a, b)) (self (n / 2)) (self (n / 2)));
                (2, map2 (fun a b -> Path_ast.Alt (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> Path_ast.Opt a) (self (n - 1)));
                (1, map (fun a -> Path_ast.Star a) (self (n - 1)));
              ])
        n)

let expr_arb = QCheck.make ~print:Path_ast.to_string expr_gen

let word_gen =
  QCheck.Gen.(list_size (int_bound 4) (map (fun i -> Printf.sprintf "l%d" i) (int_bound 3)))

(* --------------------------------------------------------------- *)
(* Properties                                                        *)

let prop_nfa_matches_reference =
  QCheck.Test.make ~count:300 ~name:"NFA acceptance = reference word matching"
    (QCheck.pair expr_arb (QCheck.make ~print:(String.concat ".") word_gen))
    (fun (expr, word) ->
      let pool = Label.Pool.create () in
      for i = 0 to 3 do
        ignore (Label.Pool.intern pool (Printf.sprintf "l%d" i))
      done;
      let nfa = Nfa.compile pool expr in
      let codes = List.map (fun n -> Option.get (Label.Pool.find_opt pool n)) word in
      Nfa.accepts_word nfa codes = word_in_lang expr word)

let prop_pp_parse_roundtrip =
  (* Reparsing can re-associate Alt/Seq chains, so require the printed
     form to be a fixpoint rather than the AST itself. *)
  QCheck.Test.make ~count:300 ~name:"print/parse/print fixpoint" expr_arb (fun expr ->
      let printed = Path_ast.to_string expr in
      let reparsed = Dkindex_pathexpr.Path_parser.parse printed in
      String.equal printed (Path_ast.to_string reparsed)
      (* and the two accept the same test words *)
      && List.for_all
           (fun w -> word_in_lang expr w = word_in_lang reparsed w)
           [ []; [ "l0" ]; [ "l0"; "l1" ]; [ "l2"; "l2"; "l3" ]; [ "l1"; "l0"; "l1"; "l2" ] ])

let prop_serial_roundtrip =
  QCheck.Test.make ~count:60 ~name:"graph serialization round trip" graph_params
    (fun params ->
      let g = graph_of params in
      let g' = Dkindex_graph.Serial.of_string (Dkindex_graph.Serial.to_string g) in
      Dkindex_graph.Serial.to_string g = Dkindex_graph.Serial.to_string g')

let prop_ak_matches_reference =
  QCheck.Test.make ~count:40 ~name:"A(k) partition = definitional k-bisimilarity"
    (QCheck.pair small_graph_params (QCheck.make QCheck.Gen.(int_bound 3)))
    (fun (params, k) ->
      let g = graph_of params in
      let idx = A_k_index.build g ~k in
      let bisim = k_bisimilar g in
      let ok = ref true in
      Data_graph.iter_nodes g (fun u ->
          Data_graph.iter_nodes g (fun v ->
              let same = Index_graph.cls idx u = Index_graph.cls idx v in
              if same <> bisim u v k then ok := false));
      !ok)

let prop_paige_tarjan =
  QCheck.Test.make ~count:60 ~name:"Paige-Tarjan = round-hashing fixpoint" graph_params
    (fun params ->
      let g = graph_of params in
      let canonical (p : Kbisim.partition) =
        let buckets = Hashtbl.create 16 in
        Array.iteri
          (fun u c ->
            Hashtbl.replace buckets c
              (u :: Option.value (Hashtbl.find_opt buckets c) ~default:[]))
          p.Kbisim.cls;
        Hashtbl.fold (fun _ m acc -> List.sort compare m :: acc) buckets []
        |> List.sort compare
      in
      canonical (fst (Kbisim.stable_partition g)) = canonical (Paige_tarjan.stable_partition g))

let prop_index_eval_exact =
  QCheck.Test.make ~count:40 ~name:"index path evaluation = data evaluation" graph_params
    (fun params ->
      let g = graph_of params in
      let queries = Dkindex_workload.Query_gen.generate ~seed:(Hashtbl.hash params) ~count:10 g in
      let reqs = Dkindex_workload.Miner.mine g queries in
      let indexes =
        [ Label_split.build g; A_k_index.build g ~k:2; One_index.build g; Dk_index.build g ~reqs ]
      in
      List.for_all
        (fun idx ->
          List.for_all
            (fun q ->
              (Query_eval.eval_path idx q).Query_eval.nodes
              = Matcher.eval_label_path g q ~cost:(Cost.create ()))
            queries)
        indexes)

let prop_expr_eval_exact =
  QCheck.Test.make ~count:60 ~name:"index regex evaluation = data evaluation"
    (QCheck.pair small_graph_params expr_arb)
    (fun (params, expr) ->
      let g = graph_of params in
      let expected = Matcher.eval_nfa g (Nfa.compile (Data_graph.pool g) expr) ~cost:(Cost.create ()) in
      List.for_all
        (fun idx -> (Query_eval.eval_expr idx expr).Query_eval.nodes = expected)
        [ Label_split.build g; A_k_index.build g ~k:1; One_index.build g ])

let prop_dataguide_eval_exact =
  QCheck.Test.make ~count:40 ~name:"DataGuide evaluation = data evaluation" small_graph_params
    (fun params ->
      let g = graph_of params in
      let dg = Dataguide.build g in
      let queries = Dkindex_workload.Query_gen.generate ~seed:(Hashtbl.hash params) ~count:8 g in
      List.for_all
        (fun q ->
          Dataguide.eval_label_path dg q ~cost:(Cost.create ())
          = Matcher.eval_label_path g q ~cost:(Cost.create ()))
        queries)

let prop_broadcast_postcondition =
  QCheck.Test.make ~count:60 ~name:"broadcast: parent req >= child req - 1, and >= input"
    graph_params
    (fun params ->
      let g = graph_of params in
      let rng = Prng.create ~seed:(Hashtbl.hash params) in
      let reqs =
        List.init 3 (fun i -> (Printf.sprintf "l%d" i, Prng.int rng 5))
      in
      let eff = Dk_index.effective_reqs g ~reqs in
      let parents = Broadcast.label_parents g in
      let ok = ref true in
      Array.iteri
        (fun child ps ->
          Int_set.iter (fun p -> if eff.(p) < eff.(child) - 1 then ok := false) ps)
        parents;
      List.iter
        (fun (name, k) ->
          match Label.Pool.find_opt (Data_graph.pool g) name with
          | Some l -> if eff.(Label.to_int l) < k then ok := false
          | None -> ())
        reqs;
      !ok)

let prop_rebuild_identity =
  QCheck.Test.make ~count:40 ~name:"Theorem 2: rebuild with equal reqs is the identity"
    graph_params
    (fun params ->
      let g = graph_of params in
      let queries = Dkindex_workload.Query_gen.generate ~seed:(Hashtbl.hash params) ~count:10 g in
      let reqs = Dkindex_workload.Miner.mine g queries in
      let idx = Dk_index.build g ~reqs in
      Index_graph.partition_signature idx
      = Index_graph.partition_signature (Dk_index.rebuild idx ~reqs))

(* Random interleavings of the whole mutable API: edge additions,
   promotions, and A(k)-style refinement must preserve every invariant
   and exact query answering. *)
let prop_update_soup =
  QCheck.Test.make ~count:30 ~name:"random update interleavings keep the D(k)-index exact"
    graph_params
    (fun params ->
      let g = graph_of params in
      let n = Data_graph.n_nodes g in
      let seed = Hashtbl.hash params in
      let queries = Dkindex_workload.Query_gen.generate ~seed ~count:8 g in
      let reqs = Dkindex_workload.Miner.mine g queries in
      let idx = Dk_index.build g ~reqs in
      let rng = Prng.create ~seed in
      let added = ref [] in
      for _ = 1 to 30 do
        match (Prng.int rng 4, !added) with
        | 0, _ | 3, [] ->
          let u = Prng.int rng n and v = if n > 1 then 1 + Prng.int rng (n - 1) else 0 in
          if v > 0 && not (Data_graph.has_edge g u v) then begin
            Dk_update.add_edge idx u v;
            added := (u, v) :: !added
          end
        | 3, (u, v) :: rest ->
          Dk_update.remove_edge idx u v;
          added := rest
        | 1, _ ->
          let u = Prng.int rng n in
          ignore (Dk_tune.promote idx (Index_graph.cls idx u) ~k:(Prng.int rng 4))
        | _, _ -> Dk_tune.promote_to_requirements idx
      done;
      Index_graph.check_invariants idx;
      List.for_all
        (fun q ->
          (Query_eval.eval_path idx q).Query_eval.nodes
          = Matcher.eval_label_path g q ~cost:(Cost.create ()))
        queries)

let prop_updates_keep_extents_honest =
  QCheck.Test.make ~count:20 ~name:"extents keep equal label-path sets through updates and demote"
    small_graph_params
    (fun params ->
      let g = graph_of params in
      let n = Data_graph.n_nodes g in
      let seed = Hashtbl.hash params in
      let queries = Dkindex_workload.Query_gen.generate ~seed ~count:8 g in
      let reqs = Dkindex_workload.Miner.mine g queries in
      let idx = Dk_index.build g ~reqs in
      let rng = Prng.create ~seed in
      for _ = 1 to 12 do
        let u = Prng.int rng n and v = if n > 1 then 1 + Prng.int rng (n - 1) else 0 in
        if v > 0 then Dk_update.add_edge idx u v
      done;
      (* In-place updates preserve the (weaker, sufficient) label-path
         set property, not full bisimilarity. *)
      assert_extents_path_equivalent g idx;
      let demoted = Dk_tune.demote idx ~reqs:(List.map (fun (l, k) -> (l, k / 2)) reqs) in
      assert_extents_path_equivalent g demoted;
      true)

let prop_subgraph_addition =
  QCheck.Test.make ~count:25 ~name:"Algorithm 3 refines the from-scratch construction"
    (QCheck.pair small_graph_params small_graph_params)
    (fun (p1, p2) ->
      let g = graph_of p1 and h = graph_of p2 in
      let queries = Dkindex_workload.Query_gen.generate ~seed:(Hashtbl.hash p1) ~count:8 g in
      let reqs = Dkindex_workload.Miner.mine g queries in
      let idx = Dk_index.build g ~reqs in
      let g', incremental = Dk_update.add_subgraph idx h ~reqs in
      Index_graph.check_invariants incremental;
      let scratch = Dk_index.build g' ~reqs in
      (* The incremental index refines the scratch one (it may be
         strictly finer when the graft escalates label requirements and
         the repair promotion over-splits), with the same per-node
         similarity, and answers the load identically. *)
      let refines = ref true in
      Index_graph.iter_alive incremental (fun nd ->
          match Array.to_list nd.Index_graph.extent with
          | [] -> ()
          | first :: rest ->
            List.iter
              (fun u -> if Index_graph.cls scratch u <> Index_graph.cls scratch first then refines := false)
              rest);
      let same_k = ref true in
      Data_graph.iter_nodes g' (fun u ->
          let ki = (Index_graph.node incremental (Index_graph.cls incremental u)).Index_graph.k in
          let ks = (Index_graph.node scratch (Index_graph.cls scratch u)).Index_graph.k in
          if ki < ks then same_k := false);
      let queries' = Dkindex_workload.Query_gen.generate ~seed:(Hashtbl.hash p2) ~count:8 g' in
      !refines && !same_k
      && List.for_all
           (fun q ->
             (Query_eval.eval_path incremental q).Query_eval.nodes
             = (Query_eval.eval_path scratch q).Query_eval.nodes)
           queries')

let prop_bitset_vs_set =
  QCheck.Test.make ~count:200 ~name:"Bitset agrees with Set on random element lists"
    QCheck.(pair (list (int_bound 199)) (list (int_bound 199)))
    (fun (xs, ys) ->
      let open Dkindex_pathexpr in
      let a = Bitset.create 200 and b = Bitset.create 200 in
      List.iter (Bitset.add a) xs;
      List.iter (Bitset.add b) ys;
      let sa = Int_set.of_list xs and sb = Int_set.of_list ys in
      Bitset.cardinal a = Int_set.cardinal sa
      && Bitset.subset a b = Int_set.subset sa sb
      && Bitset.inter_nonempty a b = not (Int_set.is_empty (Int_set.inter sa sb))
      && Bitset.equal a b = Int_set.equal sa sb)

let prop_xml_roundtrip =
  QCheck.Test.make ~count:40 ~name:"XML write/parse round trip on random documents"
    (QCheck.make QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Prng.create ~seed in
      let open Dkindex_xml in
      let rec element depth =
        let tag = Printf.sprintf "t%d" (Prng.int rng 5) in
        let attrs =
          List.init (Prng.int rng 3) (fun i ->
              (Printf.sprintf "a%d" i, Printf.sprintf "v<&\"'%d" (Prng.int rng 100)))
        in
        let children =
          if depth = 0 then []
          else begin
            (* no two adjacent text nodes: a parser merges them *)
            let last_was_text = ref false in
            List.init (Prng.int rng 4) (fun _ ->
                if (not !last_was_text) && Prng.bool rng 0.4 then begin
                  last_was_text := true;
                  Xml_ast.text (Printf.sprintf "text&<%d" (Prng.int rng 50))
                end
                else begin
                  last_was_text := false;
                  Xml_ast.Element (element (depth - 1))
                end)
          end
        in
        Xml_ast.element ~attrs tag children
      in
      let doc = { Xml_ast.root = element 3 } in
      Xml_ast.equal_doc doc (Xml_sax.parse_string (Xml_writer.doc_to_string doc)))

(* Random tree patterns over l0..l3 with child/descendant axes and
   nested predicates. *)
let pattern_gen =
  let open QCheck.Gen in
  let axis = oneofl [ Dkindex_pathexpr.Tree_pattern.Child; Dkindex_pathexpr.Tree_pattern.Descendant ] in
  let label = oneof [ map (fun i -> Some (Printf.sprintf "l%d" i)) (int_bound 3); return None ] in
  let rec pnode depth =
    if depth = 0 then
      map
        (fun label -> { Dkindex_pathexpr.Tree_pattern.label; value_test = None; preds = [] })
        label
    else
      map2
        (fun label preds -> { Dkindex_pathexpr.Tree_pattern.label; value_test = None; preds })
        label
        (list_size (int_bound 2) (pair axis (pnode (depth - 1))))
  in
  map2
    (fun first rest -> { Dkindex_pathexpr.Tree_pattern.steps = first :: rest })
    (pair axis (pnode 2))
    (list_size (int_bound 2) (pair axis (pnode 1)))

let pattern_arb = QCheck.make ~print:Dkindex_pathexpr.Tree_pattern.to_string pattern_gen

let prop_pattern_roundtrip =
  QCheck.Test.make ~count:200 ~name:"tree pattern print/parse round trip" pattern_arb
    (fun pattern ->
      let printed = Dkindex_pathexpr.Tree_pattern.to_string pattern in
      String.equal printed
        (Dkindex_pathexpr.Tree_pattern.to_string (Dkindex_pathexpr.Tree_pattern.parse printed)))

(* Patterns with value predicates, evaluated on graphs carrying random
   payloads. *)
let valued_pattern_gen =
  let open QCheck.Gen in
  let axis = oneofl [ Dkindex_pathexpr.Tree_pattern.Child; Dkindex_pathexpr.Tree_pattern.Descendant ] in
  let label = oneof [ map (fun i -> Some (Printf.sprintf "l%d" i)) (int_bound 3); return None ] in
  let value_test =
    oneof [ return None; map (fun i -> Some (Printf.sprintf "v%d" i)) (int_bound 4) ]
  in
  let rec pnode depth =
    if depth = 0 then
      map2
        (fun label value_test -> { Dkindex_pathexpr.Tree_pattern.label; value_test; preds = [] })
        label value_test
    else
      map3
        (fun label value_test preds -> { Dkindex_pathexpr.Tree_pattern.label; value_test; preds })
        label value_test
        (list_size (int_bound 2) (pair axis (pnode (depth - 1))))
  in
  map2
    (fun first rest -> { Dkindex_pathexpr.Tree_pattern.steps = first :: rest })
    (pair axis (pnode 2))
    (list_size (int_bound 2) (pair axis (pnode 1)))

let valued_pattern_arb = QCheck.make ~print:Dkindex_pathexpr.Tree_pattern.to_string valued_pattern_gen

let prop_value_predicates_exact =
  QCheck.Test.make ~count:60 ~name:"value predicates: index+validation = naive reference"
    (QCheck.pair small_graph_params valued_pattern_arb)
    (fun ((seed, nodes, extra), pattern) ->
      let g =
        Dkindex_datagen.Random_graph.graph ~seed ~value_fraction:0.5 ~nodes ~n_labels:4
          ~extra_edges:extra ()
      in
      let expected = naive_pattern_eval g pattern in
      let data_eval =
        Dkindex_pathexpr.Tree_pattern.eval
          (Dkindex_pathexpr.Tree_pattern.data_view g ~cost:(Cost.create ()))
          pattern
      in
      data_eval = expected
      (* non-covering indexes validate by default *)
      && List.for_all
           (fun idx -> (Query_eval.eval_pattern idx pattern).Query_eval.nodes = expected)
           [ Label_split.build g; One_index.build g ]
      (* on the covering F&B index, validate:false is exact for purely
         structural patterns, and value tests override it *)
      && (Query_eval.eval_pattern ~validate:false (Fb_index.build g) pattern).Query_eval.nodes
         = expected)

let prop_pattern_data_eval_matches_naive =
  QCheck.Test.make ~count:80 ~name:"Tree_pattern.eval = naive reference on the data graph"
    (QCheck.pair small_graph_params pattern_arb)
    (fun (params, pattern) ->
      let g = graph_of params in
      Dkindex_pathexpr.Tree_pattern.eval
        (Dkindex_pathexpr.Tree_pattern.data_view g ~cost:(Cost.create ()))
        pattern
      = naive_pattern_eval g pattern)

let prop_pattern_eval_exact =
  QCheck.Test.make ~count:60 ~name:"validated pattern evaluation = data evaluation"
    (QCheck.pair small_graph_params pattern_arb)
    (fun (params, pattern) ->
      let g = graph_of params in
      let expected =
        Dkindex_pathexpr.Tree_pattern.eval
          (Dkindex_pathexpr.Tree_pattern.data_view g ~cost:(Cost.create ()))
          pattern
      in
      List.for_all
        (fun idx -> (Query_eval.eval_pattern idx pattern).Query_eval.nodes = expected)
        [ Label_split.build g; A_k_index.build g ~k:2; One_index.build g ])

let prop_fb_covers_patterns =
  QCheck.Test.make ~count:60 ~name:"F&B index covers tree patterns without validation"
    (QCheck.pair small_graph_params pattern_arb)
    (fun (params, pattern) ->
      let g = graph_of params in
      let expected =
        Dkindex_pathexpr.Tree_pattern.eval
          (Dkindex_pathexpr.Tree_pattern.data_view g ~cost:(Cost.create ()))
          pattern
      in
      let fb = Fb_index.build g in
      (Query_eval.eval_pattern ~validate:false fb pattern).Query_eval.nodes = expected)

let prop_index_serial_roundtrip =
  QCheck.Test.make ~count:40 ~name:"index serialization round trip" graph_params
    (fun params ->
      let g = graph_of params in
      let queries = Dkindex_workload.Query_gen.generate ~seed:(Hashtbl.hash params) ~count:8 g in
      let reqs = Dkindex_workload.Miner.mine g queries in
      let idx = Dk_index.build g ~reqs in
      let idx' = Index_serial.of_string (Index_serial.to_string idx) in
      Index_graph.partition_signature idx = Index_graph.partition_signature idx')

(* Index_graph.copy is the text round trip without the text: the same
   canonical text and partition, and storage of its own. *)
let copy_matches idx =
  let c = Index_graph.copy idx in
  Index_graph.check_invariants c;
  String.equal (Index_serial.to_string c) (Index_serial.to_string idx)
  && Index_graph.partition_signature c = Index_graph.partition_signature idx

let dk_of_params params =
  let g = graph_of params in
  let queries = Dkindex_workload.Query_gen.generate ~seed:(Hashtbl.hash params) ~count:8 g in
  Dk_index.build g ~reqs:(Dkindex_workload.Miner.mine g queries)

(* Random Dk_update traffic on [idx]: absent edges added (splits leave
   dead ids, new index edges land in the overflow adjacency), some of
   them and some original edges removed again (tombstoning CSR index
   edges), with promotions in between. *)
let churn ~seed ~steps idx =
  let g = Index_graph.data idx in
  let n = Data_graph.n_nodes g in
  let rng = Prng.create ~seed in
  let added = ref [] in
  for i = 1 to steps do
    match (Prng.int rng 5, !added) with
    | (0 | 1), _ | 2, [] ->
      let u = Prng.int rng n and v = Prng.int rng n in
      if v > 0 && not (Data_graph.has_edge g u v) then begin
        Dk_update.add_edge idx u v;
        added := (u, v) :: !added
      end
    | 2, (u, v) :: rest ->
      if Data_graph.has_edge g u v then Dk_update.remove_edge idx u v;
      added := rest
    | 3, _ -> (
      let u = Prng.int rng n in
      match Data_graph.children g u with
      | v :: _ when v > 0 -> Dk_update.remove_edge idx u v
      | _ -> ())
    | _ -> Dk_tune.promote_labels idx [ (Printf.sprintf "l%d" (i mod 4), 1 + (i mod 3)) ]
  done

let prop_copy_fresh =
  QCheck.Test.make ~count:40 ~name:"copy: same text and partition as the round trip"
    graph_params
    (fun params -> copy_matches (dk_of_params params))

let prop_copy_after_churn =
  QCheck.Test.make ~count:40 ~name:"copy: same text and partition after Dk_update churn"
    graph_params
    (fun params ->
      let idx = dk_of_params params in
      churn ~seed:(Hashtbl.hash params) ~steps:30 idx;
      copy_matches idx)

let prop_copy_independent =
  QCheck.Test.make ~count:40 ~name:"copy: updates to either side leave the other unchanged"
    graph_params
    (fun params ->
      let seed = Hashtbl.hash params in
      let idx = dk_of_params params in
      churn ~seed ~steps:10 idx;
      let before = Index_serial.to_string idx in
      let c = Index_graph.copy idx in
      churn ~seed:(seed + 1) ~steps:20 c;
      let original_kept = String.equal (Index_serial.to_string idx) before in
      let c_text = Index_serial.to_string c in
      churn ~seed:(seed + 2) ~steps:20 idx;
      original_kept && String.equal (Index_serial.to_string c) c_text)

(* The container loader maps the data CSR: the copy must carry the same
   index in memory of its own, and stay independent of the mapping. *)
let test_copy_of_container () =
  let g = Dkindex_datagen.Xmark.graph ~scale:4 () in
  let idx = Dk_index.build g ~reqs:[ ("item", 2); ("person", 3) ] in
  let path = Filename.temp_file "dkcopy" ".dkc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Index_serial.save_container path idx;
      let loaded = Index_serial.load_container path in
      let c = Index_graph.copy loaded in
      Index_graph.check_invariants c;
      check_string "copy text" (Index_serial.to_string loaded) (Index_serial.to_string c);
      check_bool "partition" true
        (Index_graph.partition_signature loaded = Index_graph.partition_signature c);
      let q = [ "item"; "name" ] in
      check_int_list "query" (Query_eval.eval_path_strings loaded q).Query_eval.nodes
        (Query_eval.eval_path_strings c q).Query_eval.nodes;
      let text = Index_serial.to_string loaded in
      churn ~seed:5 ~steps:20 c;
      check_string "mapped original unchanged" text (Index_serial.to_string loaded))

let prop_sax_equals_dom =
  QCheck.Test.make ~count:40 ~name:"streaming load = DOM load on random documents"
    (QCheck.make QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Prng.create ~seed in
      let open Dkindex_xml in
      let rec element depth =
        let tag = Printf.sprintf "t%d" (Prng.int rng 5) in
        let attrs =
          List.init (Prng.int rng 3) (fun i ->
              (Printf.sprintf "a%d" i, Printf.sprintf "v&<%d" (Prng.int rng 100)))
        in
        let children =
          if depth = 0 then []
          else
            let last_was_text = ref false in
            List.init (Prng.int rng 4) (fun _ ->
                if (not !last_was_text) && Prng.bool rng 0.4 then begin
                  last_was_text := true;
                  Xml_ast.text (Printf.sprintf "text %d" (Prng.int rng 50))
                end
                else begin
                  last_was_text := false;
                  Xml_ast.Element (element (depth - 1))
                end)
        in
        Xml_ast.element ~attrs tag children
      in
      let doc = { Xml_ast.root = element 3 } in
      let text = Xml_writer.doc_to_string doc in
      let dom = Xml_to_graph.convert (Xml_sax.emit_tree doc.root) in
      let sax = Xml_to_graph.convert (Xml_sax.iter (Xml_sax.of_string text)) in
      Dkindex_graph.Serial.to_string dom.Xml_to_graph.graph
      = Dkindex_graph.Serial.to_string sax.Xml_to_graph.graph)

(* Reference for Algorithm 4: enumerate label paths in the index graph
   and compute the true largest kN <= min(kU+1, kV) such that every
   label path of length kN into V through the new edge U->V already
   matches V.  Path sets are over the index graph, as in the paper. *)
let reference_update_local_similarity idx ~u ~v =
  let node = Index_graph.node idx in
  let label id = (node id).Index_graph.label in
  (* label paths of length exactly len (in labels) ending at [id],
     walking parent edges *)
  let rec paths_into id len =
    if len = 1 then [ [ label id ] ]
    else
      List.fold_left
        (fun acc p ->
          List.fold_left (fun acc path -> (path @ [ label id ]) :: acc) acc (paths_into p (len - 1)))
        []
        (Index_graph.parents_list idx id)
  in
  let module S = Set.Make (struct
    type t = Dkindex_graph.Label.t list

    let compare = compare
  end) in
  let ku = (node u).Index_graph.k and kv = (node v).Index_graph.k in
  let upbound = min (ku + 1) kv in
  (* ok k: every label path of length 1..k ending at u (the paths into v
     through the new edge, with v's label dropped) already matches some
     old path of the same length into v. *)
  let ok k_candidate =
    let rec check len =
      len > k_candidate
      ||
      let through = S.of_list (paths_into u len) in
      let old_paths =
        List.fold_left
          (fun acc p -> List.fold_left (fun acc x -> S.add x acc) acc (paths_into p len))
          S.empty
          (Index_graph.parents_list idx v)
      in
      S.subset through old_paths && check (len + 1)
    in
    check 1
  in
  let rec best k = if k >= upbound then k else if ok (k + 1) then best (k + 1) else k in
  best 0

let prop_alg4_matches_reference =
  QCheck.Test.make ~count:40 ~name:"Algorithm 4 = brute-force label-path comparison"
    (QCheck.make
       ~print:(fun (p, a, b) ->
         Printf.sprintf "(%d,%d,%d) seed=%d" (let s, _, _ = p in s) a b (Hashtbl.hash p))
       QCheck.Gen.(triple (triple (int_bound 10_000) (int_range 2 25) (int_bound 8)) (int_bound 24) (int_bound 24)))
    (fun ((gseed, nodes, extra), ui, vi) ->
      let g = Dkindex_datagen.Random_graph.graph ~seed:gseed ~nodes ~n_labels:3 ~extra_edges:extra () in
      let queries = Dkindex_workload.Query_gen.generate ~seed:gseed ~count:8 g in
      let reqs = Dkindex_workload.Miner.mine g queries in
      let idx = Dk_index.build g ~reqs in
      let n = Data_graph.n_nodes g in
      let u = Index_graph.cls idx (ui mod n) and v = Index_graph.cls idx (vi mod n) in
      Dk_update.update_local_similarity idx ~u ~v = reference_update_local_similarity idx ~u ~v)

(* Fuzzing: the parsers must reject garbage with Parse_error, never any
   other exception, and agree with each other on acceptance. *)
let fuzz_gen =
  QCheck.Gen.(
    oneof
      [
        (* pure noise *)
        string_size ~gen:(map Char.chr (int_range 1 127)) (int_bound 80);
        (* XML-ish noise: random markup fragments glued together *)
        map (String.concat "")
          (list_size (int_bound 12)
             (oneofl
                [ "<a>"; "</a>"; "<b x='1'"; ">"; "text"; "&amp;"; "&"; "<!--"; "-->";
                  "<![CDATA["; "]]>"; "<?pi?>"; "\""; "'"; "<"; "/>"; "<a/>"; " " ]));
      ])

let prop_sax_total =
  QCheck.Test.make ~count:500 ~name:"SAX parser: garbage in, Parse_error (or events) out"
    (QCheck.make ~print:String.escaped fuzz_gen)
    (fun src ->
      (* parse_string collects the events into a tree: the property
         also covers [collect] on whatever the tokenizer accepts *)
      match Dkindex_xml.Xml_sax.parse_string src with
      | _ -> true
      | exception Dkindex_xml.Xml_sax.Parse_error _ -> true)

let prop_path_parser_total =
  QCheck.Test.make ~count:500 ~name:"path expression parser is total"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 40)))
    (fun src ->
      match Dkindex_pathexpr.Path_parser.parse src with
      | _ -> true
      | exception Dkindex_pathexpr.Path_parser.Parse_error _ -> true)

let prop_pattern_parser_total =
  QCheck.Test.make ~count:500 ~name:"tree pattern parser is total"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 40)))
    (fun src ->
      match Dkindex_pathexpr.Tree_pattern.parse src with
      | _ -> true
      | exception Dkindex_pathexpr.Tree_pattern.Parse_error _ -> true)

let () =
  Alcotest.run "properties"
    [
      ( "pathexpr",
        List.map to_alcotest [ prop_nfa_matches_reference; prop_pp_parse_roundtrip; prop_bitset_vs_set ] );
      ("graph", List.map to_alcotest [ prop_serial_roundtrip; prop_xml_roundtrip; prop_sax_equals_dom ]);
      ( "index",
        List.map to_alcotest
          [
            prop_ak_matches_reference;
            prop_paige_tarjan;
            prop_index_eval_exact;
            prop_expr_eval_exact;
            prop_dataguide_eval_exact;
            prop_broadcast_postcondition;
            prop_rebuild_identity;
            prop_alg4_matches_reference;
          ] );
      ( "updates",
        List.map to_alcotest
          [ prop_update_soup; prop_updates_keep_extents_honest; prop_subgraph_addition ] );
      ( "fuzz",
        List.map to_alcotest
          [
            prop_sax_total;
            prop_path_parser_total;
            prop_pattern_parser_total;
          ] );
      ( "patterns",
        List.map to_alcotest
          [
            prop_pattern_roundtrip;
            prop_pattern_data_eval_matches_naive;
            prop_value_predicates_exact;
            prop_pattern_eval_exact;
            prop_fb_covers_patterns;
            prop_index_serial_roundtrip;
          ] );
      ( "copy",
        List.map to_alcotest [ prop_copy_fresh; prop_copy_after_churn; prop_copy_independent ]
        @ [ test "copy of a container-loaded index" test_copy_of_container ] );
    ]
