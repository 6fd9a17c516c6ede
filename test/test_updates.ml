open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module B = Dkindex_graph.Builder
module Prng = Dkindex_datagen.Prng

(* The scenario of the paper's Figure 3: D-labeled nodes all have a
   C-labeled parent, so a new C -> D edge does not change D's
   label-level parents and D's similarity survives at >= 1 -- but the
   new parent c3 hangs under an X node, so paths of length 2 through it
   (X.C) do not match D and the similarity cannot stay at 2. *)
let figure3_graph () =
  let b = B.create () in
  let c1 = B.add_child b ~parent:0 "C" in
  let c2 = B.add_child b ~parent:0 "C" in
  let x = B.add_child b ~parent:0 "X" in
  let c3 = B.add_child b ~parent:x "C" in
  let d1 = B.add_child b ~parent:c1 "D" in
  let d2 = B.add_child b ~parent:c2 "D" in
  let e1 = B.add_child b ~parent:d1 "E" in
  let e2 = B.add_child b ~parent:d2 "E" in
  (B.build b, c1, c2, c3, d1, d2, e1, e2)

let uls_tests =
  [
    test "same-label parent keeps similarity at least 1" (fun () ->
        let g, _, _, c3, _, d2, _, _ = figure3_graph () in
        let reqs = [ ("C", 1); ("D", 2); ("E", 3) ] in
        let idx = Dk_index.build g ~reqs in
        let u = Index_graph.cls idx c3 and v = Index_graph.cls idx d2 in
        let k_n = Dk_update.update_local_similarity idx ~u ~v in
        check_bool "at least 1" true (k_n >= 1));
    test "foreign-label parent forces similarity 0" (fun () ->
        (* Adding an edge from a label that was never a parent of the
           target: no length-1 path through it matches. *)
        let b = B.create () in
        let x = B.add_child b ~parent:0 "X" in
        let c = B.add_child b ~parent:0 "C" in
        let d = B.add_child b ~parent:c "D" in
        let g = B.build b in
        let idx = Dk_index.build g ~reqs:[ ("D", 2) ] in
        let k_n =
          Dk_update.update_local_similarity idx ~u:(Index_graph.cls idx x)
            ~v:(Index_graph.cls idx d)
        in
        check_int "zero" 0 k_n);
    test "result never exceeds min(kU+1, kV)" (fun () ->
        let g = random_graph ~seed:111 ~nodes:100 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:111 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let rng = Prng.create ~seed:112 in
        for _ = 1 to 30 do
          let u = Index_graph.cls idx (Prng.int rng (Data_graph.n_nodes g)) in
          let v = Index_graph.cls idx (Prng.int rng (Data_graph.n_nodes g)) in
          let ku = (Index_graph.node idx u).Index_graph.k in
          let kv = (Index_graph.node idx v).Index_graph.k in
          let k_n = Dk_update.update_local_similarity idx ~u ~v in
          check_bool "bounded" true (k_n <= min (ku + 1) kv && k_n >= 0)
        done);
    test "identical-structure parent preserves the full bound" (fun () ->
        (* All D's have a C parent whose own parent is ROOT, and the new
           edge comes from such a C: every path matches, so k_N hits the
           upper bound. *)
        let b = B.create () in
        let c1 = B.add_child b ~parent:0 "C" in
        let c2 = B.add_child b ~parent:0 "C" in
        let c3 = B.add_child b ~parent:0 "C" in
        let d1 = B.add_child b ~parent:c1 "D" in
        let d2 = B.add_child b ~parent:c2 "D" in
        ignore (d1, c3);
        let g = B.build b in
        let reqs = [ ("C", 1); ("D", 2) ] in
        let idx = Dk_index.build g ~reqs in
        let u = Index_graph.cls idx c3 and v = Index_graph.cls idx d2 in
        let kv = (Index_graph.node idx v).Index_graph.k in
        let ku = (Index_graph.node idx u).Index_graph.k in
        check_int "full bound" (min (ku + 1) kv) (Dk_update.update_local_similarity idx ~u ~v));
  ]

let add_edge_tests =
  [
    test "figure 3: D keeps k=1, E drops to 2" (fun () ->
        let g, _, _, c3, _, d2, _, _ = figure3_graph () in
        let reqs = [ ("C", 1); ("D", 2); ("E", 3) ] in
        let idx = Dk_index.build g ~reqs in
        Dk_update.add_edge idx c3 d2;
        Index_graph.check_invariants idx;
        let d_node = Index_graph.node idx (Index_graph.cls idx d2) in
        check_int "D lowered to 1" 1 d_node.Index_graph.k;
        let e_node = Index_graph.node idx (Index_graph.cls idx 8 (* e2 *)) in
        check_bool "E at most 2" true (e_node.Index_graph.k <= 2));
    test "add_edge updates the data graph and the index edge" (fun () ->
        let g, _, _, c3, _, d2, _, _ = figure3_graph () in
        let idx = Dk_index.build g ~reqs:[ ("D", 2) ] in
        Dk_update.add_edge idx c3 d2;
        check_bool "data edge" true (Data_graph.has_edge g c3 d2);
        check_bool "index edge" true
          (Index_graph.has_index_edge idx (Index_graph.cls idx c3) (Index_graph.cls idx d2)));
    test "extents never change during edge updates" (fun () ->
        let g = random_graph ~seed:121 ~nodes:150 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:121 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let size_before = Index_graph.n_nodes idx in
        let rng = Prng.create ~seed:122 in
        for _ = 1 to 25 do
          let u = Prng.int rng (Data_graph.n_nodes g)
          and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
          Dk_update.add_edge idx u v
        done;
        check_int "same size" size_before (Index_graph.n_nodes idx));
    test "similarities only decrease" (fun () ->
        let g = random_graph ~seed:123 ~nodes:150 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:123 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let before = Index_graph.fold_alive idx ~init:[] ~f:(fun acc nd ->
            (nd.Index_graph.id, nd.Index_graph.k) :: acc) in
        let rng = Prng.create ~seed:124 in
        for _ = 1 to 25 do
          let u = Prng.int rng (Data_graph.n_nodes g)
          and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
          Dk_update.add_edge idx u v
        done;
        List.iter
          (fun (id, k_before) ->
            check_bool "no increase" true ((Index_graph.node idx id).Index_graph.k <= k_before))
          before);
    test "queries remain exact after many random edge updates" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:150 in
            let queries = Dkindex_workload.Query_gen.generate ~seed ~count:20 g in
            let reqs = Dkindex_workload.Miner.mine g queries in
            let idx = Dk_index.build g ~reqs in
            let rng = Prng.create ~seed:(seed * 3) in
            for _ = 1 to 30 do
              let u = Prng.int rng (Data_graph.n_nodes g)
              and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
              Dk_update.add_edge idx u v
            done;
            Index_graph.check_invariants idx;
            (* old queries, plus fresh queries that see the new edges *)
            assert_index_matches_data g idx queries;
            assert_index_matches_data g idx
              (Dkindex_workload.Query_gen.generate ~seed:(seed * 5) ~count:15 g))
          [ 125; 126; 127 ]);
    test "adding an existing edge is harmless" (fun () ->
        let g, _, _, _, d1, _, _, _ = figure3_graph () in
        let c1 = 1 in
        let idx = Dk_index.build g ~reqs:[ ("D", 2); ("E", 3) ] in
        let sig_before = Index_graph.partition_signature idx in
        Dk_update.add_edge idx c1 d1;
        (* The edge was already there; extents unchanged, only k may
           conservatively drop. *)
        let sig_after = Index_graph.partition_signature idx in
        check_int "same classes" 0
          (compare
             (Array.map fst sig_before)
             (Array.map fst sig_after));
        Index_graph.check_invariants idx);
  ]

let subgraph_tests =
  [
    test "incremental subgraph addition equals scratch rebuild" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:100 in
            let h = random_graph ~seed:(seed + 1) ~nodes:40 in
            let queries = Dkindex_workload.Query_gen.generate ~seed ~count:20 g in
            let reqs = Dkindex_workload.Miner.mine g queries in
            let idx = Dk_index.build g ~reqs in
            let g', incremental = Dk_update.add_subgraph idx h ~reqs in
            Index_graph.check_invariants incremental;
            let scratch = Dk_index.build g' ~reqs in
            check_bool "identical" true
              (Index_graph.partition_signature incremental
              = Index_graph.partition_signature scratch))
          [ 131; 132; 133 ]);
    test "combined graph contains both node sets" (fun () ->
        let g = random_graph ~seed:134 ~nodes:100 in
        let h = random_graph ~seed:135 ~nodes:40 in
        let idx = Dk_index.build g ~reqs:[] in
        let g', _ = Dk_update.add_subgraph idx h ~reqs:[] in
        check_int "nodes" (100 + 40 - 1) (Data_graph.n_nodes g'));
    test "queries on the combined index are exact" (fun () ->
        let g = random_graph ~seed:136 ~nodes:100 in
        let h = random_graph ~seed:137 ~nodes:50 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:136 ~count:15 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let g', idx' = Dk_update.add_subgraph idx h ~reqs in
        assert_index_matches_data g' idx'
          (Dkindex_workload.Query_gen.generate ~seed:138 ~count:20 g'));
    test "xmark document insertion (the paper's 'new file' case)" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:1 ~scale:30 () in
        let queries = Dkindex_workload.Query_gen.generate ~seed:139 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let h = Dkindex_datagen.Xmark.graph ~seed:2 ~scale:5 () in
        let g', idx' = Dk_update.add_subgraph idx h ~reqs in
        Index_graph.check_invariants idx';
        let scratch = Dk_index.build g' ~reqs in
        check_bool "identical" true
          (Index_graph.partition_signature idx' = Index_graph.partition_signature scratch));
  ]

let remove_edge_tests =
  [
    test "removing a redundant parent edge keeps similarities" (fun () ->
        (* v has two parents in the same class; dropping one changes no
           label-path set. *)
        let b = B.create () in
        let c1 = B.add_child b ~parent:0 "C" in
        let c2 = B.add_child b ~parent:0 "C" in
        let d = B.add_child b ~parent:c1 "D" in
        B.add_edge b c2 d;
        let g = B.build b in
        let idx = Dk_index.build g ~reqs:[ ("D", 2) ] in
        let k_before = (Index_graph.node idx (Index_graph.cls idx d)).Index_graph.k in
        Dk_update.remove_edge idx c2 d;
        Index_graph.check_invariants idx;
        check_int "k unchanged" k_before
          (Index_graph.node idx (Index_graph.cls idx d)).Index_graph.k;
        check_bool "index edge kept (c1 -> d remains)" true
          (Index_graph.has_index_edge idx (Index_graph.cls idx c1) (Index_graph.cls idx d)));
    test "removing the last parent from a class lowers k and drops the edge" (fun () ->
        let b = B.create () in
        let c1 = B.add_child b ~parent:0 "C" in
        let d1 = B.add_child b ~parent:c1 "D" in
        let e1 = B.add_child b ~parent:d1 "E" in
        ignore e1;
        let g = B.build b in
        let idx = Dk_index.build g ~reqs:[ ("D", 2); ("E", 3) ] in
        Dk_update.remove_edge idx c1 d1;
        Index_graph.check_invariants idx;
        check_int "k dropped" 0 (Index_graph.node idx (Index_graph.cls idx d1)).Index_graph.k;
        check_bool "index edge gone" false
          (Index_graph.has_index_edge idx (Index_graph.cls idx c1) (Index_graph.cls idx d1));
        check_bool "child lowered" true
          ((Index_graph.node idx (Index_graph.cls idx e1)).Index_graph.k <= 1));
    test "removing a non-existent edge raises" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let idx = Label_split.build g in
        check_bool "raises" true
          (match Dk_update.remove_edge idx 2 1 with
          | _ -> false
          | exception Invalid_argument _ -> true));
    test "queries stay exact through interleaved additions and removals" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:120 in
            let queries = Dkindex_workload.Query_gen.generate ~seed ~count:15 g in
            let reqs = Dkindex_workload.Miner.mine g queries in
            let idx = Dk_index.build g ~reqs in
            let rng = Prng.create ~seed:(seed * 11) in
            let added = ref [] in
            for _ = 1 to 40 do
              match (Prng.int rng 2, !added) with
              | 0, _ | _, [] ->
                let u = Prng.int rng (Data_graph.n_nodes g)
                and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
                if not (Data_graph.has_edge g u v) then begin
                  Dk_update.add_edge idx u v;
                  added := (u, v) :: !added
                end
              | _, (u, v) :: rest ->
                Dk_update.remove_edge idx u v;
                added := rest
            done;
            Index_graph.check_invariants idx;
            assert_index_matches_data g idx queries;
            assert_index_matches_data g idx
              (Dkindex_workload.Query_gen.generate ~seed:(seed * 13) ~count:15 g))
          [ 181; 182; 183 ]);
    test "removal keeps the label-path-set property" (fun () ->
        let g = random_graph ~seed:184 ~nodes:40 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:184 ~count:10 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let rng = Prng.create ~seed:185 in
        (* add some edges, then remove a few existing tree edges *)
        for _ = 1 to 8 do
          let u = Prng.int rng (Data_graph.n_nodes g)
          and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
          Dk_update.add_edge idx u v
        done;
        for v = 10 to 14 do
          match Data_graph.parents g v with
          | p :: _ -> Dk_update.remove_edge idx p v
          | [] -> ()
        done;
        Index_graph.check_invariants idx;
        assert_extents_path_equivalent g idx);
  ]

let interplay_tests =
  [
    test "subgraph addition onto an updated (stale) index stays exact" (fun () ->
        let g = random_graph ~seed:191 ~nodes:100 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:191 ~count:15 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        (* stale the index: edge churn lowers similarities *)
        let rng = Prng.create ~seed:192 in
        for _ = 1 to 15 do
          let u = Prng.int rng (Data_graph.n_nodes g)
          and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
          Dk_update.add_edge idx u v
        done;
        let h = random_graph ~seed:193 ~nodes:40 in
        let g', idx' = Dk_update.add_subgraph idx h ~reqs in
        Index_graph.check_invariants idx';
        assert_extents_path_equivalent g' idx';
        assert_index_matches_data g' idx'
          (Dkindex_workload.Query_gen.generate ~seed:194 ~count:20 g'));
    test "promote after removals restores sound answering" (fun () ->
        let g = random_graph ~seed:195 ~nodes:120 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:195 ~count:20 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        (* add then remove edges to degrade similarities *)
        let rng = Prng.create ~seed:196 in
        let added = ref [] in
        for _ = 1 to 12 do
          let u = Prng.int rng (Data_graph.n_nodes g)
          and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
          if not (Data_graph.has_edge g u v) then begin
            Dk_update.add_edge idx u v;
            added := (u, v) :: !added
          end
        done;
        List.iter (fun (u, v) -> Dk_update.remove_edge idx u v) !added;
        Dk_tune.promote_to_requirements idx;
        Index_graph.check_invariants idx;
        (* the data is back to its original shape, so the mined load
           must again be answered without validation *)
        List.iter
          (fun q ->
            check_int "no validation" 0 (Query_eval.eval_path idx q).Query_eval.n_candidates)
          queries;
        assert_index_matches_data g idx queries);
    test "demote after removals keeps exactness" (fun () ->
        let g = random_graph ~seed:197 ~nodes:100 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:197 ~count:15 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        (match Data_graph.parents g 7 with
        | p :: _ -> Dk_update.remove_edge idx p 7
        | [] -> ());
        let demoted = Dk_tune.demote idx ~reqs:(List.map (fun (l, k) -> (l, k / 2)) reqs) in
        Index_graph.check_invariants demoted;
        assert_index_matches_data g demoted queries);
  ]

let ak_update_tests =
  [
    test "restores exact k-bisimilarity after an edge insertion" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:60 in
            List.iter
              (fun k ->
                let g = Data_graph.copy g in
                let idx = A_k_index.build g ~k in
                let rng = Prng.create ~seed:(seed * 7) in
                for _ = 1 to 10 do
                  let u = Prng.int rng (Data_graph.n_nodes g)
                  and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
                  Ak_update.add_edge idx ~k u v
                done;
                Index_graph.check_invariants idx;
                assert_extents_bisimilar g idx)
              [ 1; 2; 3 ])
          [ 141; 142 ]);
    test "queries stay exact after A(k) updates" (fun () ->
        let g = random_graph ~seed:143 ~nodes:120 in
        let idx = A_k_index.build g ~k:2 in
        let rng = Prng.create ~seed:144 in
        for _ = 1 to 20 do
          let u = Prng.int rng (Data_graph.n_nodes g)
          and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
          Ak_update.add_edge idx ~k:2 u v
        done;
        assert_index_matches_data g idx
          (Dkindex_workload.Query_gen.generate ~seed:145 ~count:20 g));
    test "A(k) updates can grow the index, D(k) updates cannot" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:3 ~scale:20 () in
        let edges =
          let rng = Prng.create ~seed:146 in
          List.init 20 (fun _ ->
              (Prng.int rng (Data_graph.n_nodes g), 1 + Prng.int rng (Data_graph.n_nodes g - 1)))
        in
        let ga = Data_graph.copy g and gd = Data_graph.copy g in
        let ak = A_k_index.build ga ~k:2 in
        let ak_before = Index_graph.n_nodes ak in
        List.iter (fun (u, v) -> Ak_update.add_edge ak ~k:2 u v) edges;
        check_bool "A(k) grew" true (Index_graph.n_nodes ak > ak_before);
        let queries = Dkindex_workload.Query_gen.generate ~seed:147 gd in
        let reqs = Dkindex_workload.Miner.mine gd queries in
        let dk = Dk_index.build gd ~reqs in
        let dk_before = Index_graph.n_nodes dk in
        List.iter (fun (u, v) -> Dk_update.add_edge dk u v) edges;
        check_int "D(k) size constant" dk_before (Index_graph.n_nodes dk));
  ]

let ak_subgraph_tests =
  [
    test "A(k) document insertion equals a scratch A(k) build" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:100 in
            let h = random_graph ~seed:(seed + 1) ~nodes:40 in
            List.iter
              (fun k ->
                let idx = A_k_index.build (Data_graph.copy g) ~k in
                let g', incremental = Ak_update.add_subgraph idx ~k h in
                Index_graph.check_invariants incremental;
                let scratch = A_k_index.build g' ~k in
                check_bool "identical" true
                  (Index_graph.partition_signature incremental
                  = Index_graph.partition_signature scratch))
              [ 1; 2; 3 ])
          [ 361; 362 ]);
    test "queries exact after A(k) document insertion" (fun () ->
        let g = random_graph ~seed:363 ~nodes:100 in
        let h = random_graph ~seed:364 ~nodes:50 in
        let idx = A_k_index.build (Data_graph.copy g) ~k:2 in
        let g', idx' = Ak_update.add_subgraph idx ~k:2 h in
        assert_index_matches_data g' idx'
          (Dkindex_workload.Query_gen.generate ~seed:365 ~count:15 g'));
  ]

(* A 1-index gives every class k = infinity, so Algorithm 4's bound is
   infinite, and over a cycle every label path can keep matching: the
   search must still stop.  Random additions and removals on 1-indexes
   of small cyclic graphs terminate, keep the invariants and keep every
   answer equal to naive evaluation. *)
let one_index_churn_prop =
  QCheck.Test.make ~count:60 ~name:"edge churn on a cyclic 1-index terminates and stays exact"
    (QCheck.make ~print:(Printf.sprintf "seed=%d") QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g =
        Dkindex_datagen.Random_graph.graph ~seed ~nodes:30 ~n_labels:3 ~extra_edges:15 ()
      in
      let idx = One_index.build g in
      let rng = Prng.create ~seed in
      let n = Data_graph.n_nodes g in
      for _ = 1 to 12 do
        let u = Prng.int rng n and v = 1 + Prng.int rng (n - 1) in
        if Data_graph.has_edge g u v then Dk_update.remove_edge idx u v
        else Dk_update.add_edge idx u v
      done;
      Index_graph.check_invariants idx;
      assert_index_matches_data g idx
        (Dkindex_workload.Query_gen.generate ~seed ~count:20 g);
      true)

let () =
  Alcotest.run "updates"
    [
      ("update_local_similarity", uls_tests);
      ("one_index_churn", [ QCheck_alcotest.to_alcotest one_index_churn_prop ]);
      ("edge_addition", add_edge_tests);
      ("subgraph_addition", subgraph_tests);
      ("edge_removal", remove_edge_tests);
      ("interplay", interplay_tests);
      ("ak_baseline", ak_update_tests);
      ("ak_subgraph", ak_subgraph_tests);
    ]
