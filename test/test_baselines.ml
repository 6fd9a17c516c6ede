(* The baseline summary structures: label-split / A(k) / 1-index /
   strong DataGuide. *)
open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Cost = Dkindex_pathexpr.Cost

let ak_tests =
  [
    test "A(0) equals label-split" (fun () ->
        let g = random_graph ~seed:61 ~nodes:100 in
        let a0 = A_k_index.build g ~k:0 and ls = Label_split.build g in
        check_bool "same partition" true
          (Index_graph.partition_signature a0 = Index_graph.partition_signature ls));
    test "A(k) extents are exactly k-bisimilar classes" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:50 in
            List.iter
              (fun k ->
                let idx = A_k_index.build g ~k in
                assert_extents_bisimilar g idx;
                (* maximality: no two distinct classes are k-bisimilar *)
                let bisim = k_bisimilar g in
                let reps =
                  Index_graph.fold_alive idx ~init:[] ~f:(fun acc nd ->
                      nd.Index_graph.extent.(0) :: acc)
                in
                List.iteri
                  (fun i u ->
                    List.iteri
                      (fun j v -> if i < j then check_bool "maximal" false (bisim u v k))
                      reps)
                  reps)
              [ 1; 2; 3 ])
          [ 62; 63 ]);
    test "negative k is rejected" (fun () ->
        let g = chain_graph [ "a" ] in
        check_bool "raises" true
          (match A_k_index.build g ~k:(-1) with
          | _ -> false
          | exception Invalid_argument _ -> true));
    test "A(k) size grows with k up to the 1-index" (fun () ->
        let g = random_graph ~seed:64 ~nodes:200 in
        let one = Index_graph.n_nodes (One_index.build g) in
        let prev = ref 0 in
        List.iter
          (fun k ->
            let n = Index_graph.n_nodes (A_k_index.build g ~k) in
            check_bool "monotone" true (n >= !prev);
            check_bool "bounded by 1-index" true (n <= one);
            prev := n)
          [ 0; 1; 2; 3; 4; 5 ]);
    test "A(k) nodes carry k as similarity and requirement" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let idx = A_k_index.build g ~k:2 in
        Index_graph.iter_alive idx (fun nd ->
            check_int "k" 2 nd.Index_graph.k;
            check_int "req" 2 nd.Index_graph.req));
  ]

let one_index_tests =
  [
    test "1-index is stable under further refinement" (fun () ->
        let g = random_graph ~seed:71 ~nodes:150 in
        let one = One_index.build g in
        let depth = One_index.bisimulation_depth g in
        let deep = A_k_index.build g ~k:(depth + 2) in
        check_int "same size" (Index_graph.n_nodes deep) (Index_graph.n_nodes one));
    test "1-index answers any query soundly without validation" (fun () ->
        let g = random_graph ~seed:72 ~nodes:150 in
        let one = One_index.build g in
        let queries = Dkindex_workload.Query_gen.generate ~seed:72 ~count:20 g in
        List.iter
          (fun q ->
            let r = Query_eval.eval_path one q in
            check_int "no validation" 0 r.Query_eval.n_candidates;
            check_int "no data visits" 0 r.Query_eval.cost.Cost.data_visits)
          queries);
    test "on a tree with unique rooted paths the 1-index is tiny" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        check_int "one class per node" 4 (Index_graph.n_nodes (One_index.build g)));
    test "bisimulation depth of a label chain" (fun () ->
        check_int "depth" 3 (One_index.bisimulation_depth (chain_graph [ "a"; "a"; "a"; "a" ])));
  ]

let dataguide_tests =
  [
    test "on a tree, states = distinct rooted label paths" (fun () ->
        (* ROOT(a(x), b(x)): rooted label paths ROOT, ROOT.a, ROOT.b,
           ROOT.a.x, ROOT.b.x -> 5 states. *)
        let b = Dkindex_graph.Builder.create () in
        let a = Dkindex_graph.Builder.add_child b ~parent:0 "a" in
        let bb = Dkindex_graph.Builder.add_child b ~parent:0 "b" in
        ignore (Dkindex_graph.Builder.add_child b ~parent:a "x");
        ignore (Dkindex_graph.Builder.add_child b ~parent:bb "x");
        let g = Dkindex_graph.Builder.build b in
        let dg = Dataguide.build g in
        check_int "states" 5 (Dataguide.n_states dg));
    test "extents may overlap (unlike bisimulation indexes)" (fun () ->
        (* Two paths reach partially-overlapping target sets. *)
        let b = Dkindex_graph.Builder.create () in
        let a = Dkindex_graph.Builder.add_child b ~parent:0 "a" in
        let c = Dkindex_graph.Builder.add_child b ~parent:0 "c" in
        let x1 = Dkindex_graph.Builder.add_child b ~parent:a "x" in
        let x2 = Dkindex_graph.Builder.add_child b ~parent:c "x" in
        Dkindex_graph.Builder.add_edge b a x2;
        let g = Dkindex_graph.Builder.build b in
        let dg = Dataguide.build g in
        (* state {x1,x2} for a.x and {x2} for c.x both exist *)
        check_bool "more than one x state" true (Dataguide.n_states dg >= 5);
        ignore (x1, x2));
    test "evaluation agrees with the data graph" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:60 in
            let dg = Dataguide.build g in
            let queries = Dkindex_workload.Query_gen.generate ~seed ~count:15 g in
            List.iter
              (fun q ->
                let expected =
                  Dkindex_pathexpr.Matcher.eval_label_path g q ~cost:(Cost.create ())
                in
                let got = Dataguide.eval_label_path dg q ~cost:(Cost.create ()) in
                check_int_list "same result" expected got)
              queries)
          [ 81; 82 ]);
    test "max_states cap raises Too_large" (fun () ->
        let g = random_graph ~seed:83 ~nodes:200 in
        check_bool "raises" true
          (match Dataguide.build ~max_states:3 g with
          | _ -> false
          | exception Dataguide.Too_large _ -> true));
    test "subset construction terminates on cyclic graphs" (fun () ->
        let g, a, bb, c = cyclic_graph () in
        let dg = Dataguide.build g in
        check_bool "finite" true (Dataguide.n_states dg < 20);
        let q = labels_of_strings g [ "a"; "b"; "c" ] in
        check_int_list "eval" [ c ]
          (Dataguide.eval_label_path dg q ~cost:(Dkindex_pathexpr.Cost.create ()));
        ignore (a, bb));
    test "n_edges counts transitions" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let dg = Dataguide.build g in
        check_int "two transitions" 2 (Dataguide.n_edges dg));
  ]

let canonical (p : Kbisim.partition) =
  let buckets = Hashtbl.create 16 in
  Array.iteri
    (fun u c ->
      Hashtbl.replace buckets c (u :: Option.value (Hashtbl.find_opt buckets c) ~default:[]))
    p.Kbisim.cls;
  Hashtbl.fold (fun _ m acc -> List.sort compare m :: acc) buckets [] |> List.sort compare

let paige_tarjan_tests =
  [
    test "equals hash refinement on random graphs" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:120 in
            check_bool "same partition" true
              (canonical (fst (Kbisim.stable_partition g))
              = canonical (Paige_tarjan.stable_partition g)))
          [ 311; 312; 313; 314 ]);
    test "equals hash refinement on cyclic graphs" (fun () ->
        let g, _, _, _ = cyclic_graph () in
        check_bool "same" true
          (canonical (fst (Kbisim.stable_partition g))
          = canonical (Paige_tarjan.stable_partition g)));
    test "handles a deep uniform chain (worst case for round hashing)" (fun () ->
        let g = chain_graph (List.init 300 (fun _ -> "a")) in
        let p = Paige_tarjan.stable_partition g in
        (* every chain position is its own class *)
        check_int "discrete" (Data_graph.n_nodes g) p.Kbisim.n_classes);
    test "equals hash refinement on XMark" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:9 ~scale:15 () in
        check_bool "same" true
          (canonical (fst (Kbisim.stable_partition g))
          = canonical (Paige_tarjan.stable_partition g)));
    test "build_one_index matches One_index.build" (fun () ->
        let g = random_graph ~seed:315 ~nodes:150 in
        let a = Paige_tarjan.build_one_index g and b = One_index.build g in
        Index_graph.check_invariants a;
        check_int "size" (Index_graph.n_nodes b) (Index_graph.n_nodes a);
        (* identical grouping *)
        Data_graph.iter_nodes g (fun u ->
            Data_graph.iter_nodes g (fun v ->
                check_bool "same grouping" 
                  (Index_graph.cls b u = Index_graph.cls b v)
                  (Index_graph.cls a u = Index_graph.cls a v))));
    test "single node graph" (fun () ->
        let g = chain_graph [] in
        check_int "one class" 1 (Paige_tarjan.stable_partition g).Kbisim.n_classes);
  ]

let () =
  Alcotest.run "baselines"
    [
      ("a_k", ak_tests);
      ("one_index", one_index_tests);
      ("dataguide", dataguide_tests);
      ("paige_tarjan", paige_tarjan_tests);
    ]
