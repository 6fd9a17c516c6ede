open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module B = Dkindex_graph.Builder

let broadcast_tests =
  [
    test "no requirements means all zeros" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let req = Broadcast.run g ~reqs:[] in
        Array.iter (fun k -> check_int "zero" 0 k) req);
    test "requirement propagates to ancestors, decreasing by one" (fun () ->
        let g = chain_graph [ "a"; "b"; "c"; "d" ] in
        let pool = Data_graph.pool g in
        let code n = Label.to_int (Option.get (Label.Pool.find_opt pool n)) in
        let req = Broadcast.run g ~reqs:[ ("d", 3) ] in
        check_int "d" 3 req.(code "d");
        check_int "c" 2 req.(code "c");
        check_int "b" 1 req.(code "b");
        check_int "a" 0 req.(code "a");
        check_int "ROOT" 0 req.(code "ROOT"));
    test "existing higher requirements win" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let pool = Data_graph.pool g in
        let code n = Label.to_int (Option.get (Label.Pool.find_opt pool n)) in
        let req = Broadcast.run g ~reqs:[ ("b", 2); ("a", 4) ] in
        check_int "a stays 4" 4 req.(code "a");
        check_int "ROOT from a" 3 req.(code "ROOT"));
    test "multiple requirements take the max per label" (fun () ->
        let g = chain_graph [ "a" ] in
        let pool = Data_graph.pool g in
        let code n = Label.to_int (Option.get (Label.Pool.find_opt pool n)) in
        let req = Broadcast.run g ~reqs:[ ("a", 1); ("a", 3); ("a", 2) ] in
        check_int "max" 3 req.(code "a"));
    test "unknown labels are ignored" (fun () ->
        let g = chain_graph [ "a" ] in
        let req = Broadcast.run g ~reqs:[ ("ghost", 9) ] in
        Array.iter (fun k -> check_int "zero" 0 k) req);
    test "negative requirement raises" (fun () ->
        let g = chain_graph [ "a" ] in
        check_bool "raises" true
          (match Broadcast.run g ~reqs:[ ("a", -1) ] with
          | _ -> false
          | exception Invalid_argument _ -> true));
    test "label cycles converge" (fun () ->
        (* a -> b -> a label cycle. *)
        let b = B.create () in
        let a1 = B.add_child b ~parent:0 "a" in
        let b1 = B.add_child b ~parent:a1 "b" in
        B.add_edge b b1 a1;
        let g = B.build b in
        let pool = Data_graph.pool g in
        let code n = Label.to_int (Option.get (Label.Pool.find_opt pool n)) in
        let req = Broadcast.run g ~reqs:[ ("a", 4) ] in
        check_int "a" 4 req.(code "a");
        (* b is a parent of a: needs >= 3; a is a parent of b: >= 2 held. *)
        check_int "b" 3 req.(code "b"));
    test "self-loop label is its own parent" (fun () ->
        let b = B.create () in
        let a1 = B.add_child b ~parent:0 "a" in
        let a2 = B.add_child b ~parent:a1 "a" in
        ignore a2;
        let g = B.build b in
        let pool = Data_graph.pool g in
        let code n = Label.to_int (Option.get (Label.Pool.find_opt pool n)) in
        let req = Broadcast.run g ~reqs:[ ("a", 5) ] in
        check_int "a keeps 5" 5 req.(code "a");
        check_int "ROOT raised" 4 req.(code "ROOT"));
    test "label_parents reflects edges" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let pool = Data_graph.pool g in
        let code n = Label.to_int (Option.get (Label.Pool.find_opt pool n)) in
        let parents = Broadcast.label_parents g in
        check_bool "a parent of b" true (Int_set.mem (code "a") parents.(code "b"));
        check_bool "b not parent of a" false (Int_set.mem (code "b") parents.(code "a")));
  ]

(* The construction example of the paper's Figure 2: E requires local
   similarity 2, all other labels require 1; after broadcasting, E's
   parents must carry at least 1 (they already do). *)
let figure2_graph () =
  let b = B.create () in
  let a1 = B.add_child b ~parent:0 "A" in
  let a2 = B.add_child b ~parent:0 "A" in
  let b1 = B.add_child b ~parent:a1 "B" in
  let c1 = B.add_child b ~parent:a1 "C" in
  let b2 = B.add_child b ~parent:a2 "B" in
  let e1 = B.add_child b ~parent:b1 "E" in
  let e2 = B.add_child b ~parent:b2 "E" in
  let e3 = B.add_child b ~parent:c1 "E" in
  (B.build b, a1, a2, b1, b2, c1, e1, e2, e3)

let construction_tests =
  [
    test "figure 2: per-node similarities honor requirements" (fun () ->
        let g, _, _, _, _, _, _, _, _ = figure2_graph () in
        let reqs = [ ("A", 1); ("B", 1); ("C", 1); ("E", 2) ] in
        let idx = Dk_index.build g ~reqs in
        Index_graph.check_invariants idx;
        let pool = Data_graph.pool g in
        Index_graph.iter_alive idx (fun nd ->
            let name = Label.Pool.name pool nd.Index_graph.label in
            match name with
            | "E" -> check_int "E has k=2" 2 nd.Index_graph.k
            | "B" | "C" -> check_int (name ^ " has k=1") 1 nd.Index_graph.k
            | _ -> ()));
    test "figure 2: E classes split by grandparent structure" (fun () ->
        let g, _, _, _, _, _, e1, e2, e3 = figure2_graph () in
        let reqs = [ ("A", 1); ("B", 1); ("C", 1); ("E", 2) ] in
        let idx = Dk_index.build g ~reqs in
        (* e1, e2 are both A.B.E - 2-bisimilar; e3 is A.C.E. *)
        check_int "e1 e2 share" (Index_graph.cls idx e1) (Index_graph.cls idx e2);
        check_bool "e3 separate" true (Index_graph.cls idx e3 <> Index_graph.cls idx e1));
    test "figure 2: with k=1 everywhere the E classes merge" (fun () ->
        let g, _, _, _, _, _, e1, e2, e3 = figure2_graph () in
        let idx = Dk_index.build g ~reqs:[ ("A", 1); ("B", 1); ("C", 1); ("E", 1) ] in
        check_int "e1 e2 share" (Index_graph.cls idx e1) (Index_graph.cls idx e2);
        check_bool "e3 separate (different parent label)" true
          (Index_graph.cls idx e3 <> Index_graph.cls idx e1));
    test "zero requirements reproduce the label-split graph" (fun () ->
        let g = random_graph ~seed:91 ~nodes:100 in
        let dk = Dk_index.build g ~reqs:[] in
        let ls = Label_split.build g in
        check_bool "same" true
          (Index_graph.partition_signature dk = Index_graph.partition_signature ls));
    test "uniform requirements reproduce the A(k) partition" (fun () ->
        let g = random_graph ~seed:92 ~nodes:100 in
        let pool = Data_graph.pool g in
        let all_labels = Label.Pool.fold (fun _ name acc -> (name, 2) :: acc) pool [] in
        let dk = Dk_index.build g ~reqs:all_labels in
        let a2 = A_k_index.build g ~k:2 in
        check_bool "same" true
          (Index_graph.partition_signature dk = Index_graph.partition_signature a2));
    test "extents are pairwise k-bisimilar at their similarity" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:60 in
            let queries = Dkindex_workload.Query_gen.generate ~seed ~count:20 g in
            let reqs = Dkindex_workload.Miner.mine g queries in
            let idx = Dk_index.build g ~reqs in
            Index_graph.check_invariants idx;
            assert_extents_bisimilar g idx)
          [ 93; 94; 95 ]);
    test "D(k) is never larger than the matching A(kmax)" (fun () ->
        let g = random_graph ~seed:96 ~nodes:200 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:96 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let kmax = List.fold_left (fun acc (_, k) -> max acc k) 0 reqs in
        let dk = Dk_index.build g ~reqs in
        let ak = A_k_index.build g ~k:kmax in
        check_bool "smaller or equal" true
          (Index_graph.n_nodes dk <= Index_graph.n_nodes ak));
    test "effective_reqs exposes the broadcast result" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let pool = Data_graph.pool g in
        let code n = Label.to_int (Option.get (Label.Pool.find_opt pool n)) in
        let eff = Dk_index.effective_reqs g ~reqs:[ ("b", 2) ] in
        check_int "a" 1 eff.(code "a"));
  ]

let rebuild_tests =
  [
    test "rebuild with identical reqs is the identity (Theorem 2)" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:120 in
            let queries = Dkindex_workload.Query_gen.generate ~seed ~count:30 g in
            let reqs = Dkindex_workload.Miner.mine g queries in
            let idx = Dk_index.build g ~reqs in
            let idx' = Dk_index.rebuild idx ~reqs in
            check_bool "identical" true
              (Index_graph.partition_signature idx = Index_graph.partition_signature idx'))
          [ 101; 102; 103 ]);
    test "rebuild from a finer refinement recovers the index" (fun () ->
        let g = random_graph ~seed:104 ~nodes:120 in
        let reqs = [ ("l0", 1); ("l1", 2) ] in
        (* The 1-index refines every D(k); rebuilding it under the lower
           reqs must give exactly the direct D(k) construction. *)
        let fine = One_index.build g in
        let recovered = Dk_index.rebuild fine ~reqs in
        let direct = Dk_index.build g ~reqs in
        check_bool "identical" true
          (Index_graph.partition_signature recovered = Index_graph.partition_signature direct));
    test "rebuild to lower reqs shrinks the index" (fun () ->
        let g = random_graph ~seed:105 ~nodes:150 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:105 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let lower = Dk_index.rebuild idx ~reqs:[] in
        check_bool "smaller" true (Index_graph.n_nodes lower <= Index_graph.n_nodes idx);
        check_int "label-split size" (Index_graph.n_nodes (Label_split.build g))
          (Index_graph.n_nodes lower));
  ]

let () =
  Alcotest.run "dk"
    [
      ("broadcast", broadcast_tests);
      ("construction", construction_tests);
      ("rebuild", rebuild_tests);
    ]
