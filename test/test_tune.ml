open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module B = Dkindex_graph.Builder
module Prng = Dkindex_datagen.Prng

let promote_tests =
  [
    test "promoting a label-split node yields k-bisimilar fragments" (fun () ->
        let g = random_graph ~seed:151 ~nodes:100 in
        let idx = Label_split.build g in
        let target = Index_graph.cls idx 5 in
        let fresh = Dk_tune.promote idx target ~k:2 in
        Index_graph.check_invariants idx;
        List.iter
          (fun id -> check_int "k raised" 2 (Index_graph.node idx id).Index_graph.k)
          fresh;
        assert_extents_bisimilar g idx);
    test "promotion to the current k is a no-op" (fun () ->
        let g = random_graph ~seed:152 ~nodes:80 in
        let idx = A_k_index.build g ~k:2 in
        let target = Index_graph.cls idx 3 in
        let size = Index_graph.n_nodes idx in
        check_int_list "same id" [ target ] (Dk_tune.promote idx target ~k:1);
        check_int "no growth" size (Index_graph.n_nodes idx));
    test "promotion raises req alongside k" (fun () ->
        let g = random_graph ~seed:153 ~nodes:80 in
        let idx = Label_split.build g in
        let target = Index_graph.cls idx 7 in
        let fresh = Dk_tune.promote idx target ~k:2 in
        List.iter
          (fun id -> check_bool "req" true ((Index_graph.node idx id).Index_graph.req >= 2))
          fresh);
    test "promote accepts retired ids via forwarding" (fun () ->
        let g = random_graph ~seed:154 ~nodes:80 in
        let idx = Label_split.build g in
        let target = Index_graph.cls idx 9 in
        ignore (Dk_tune.promote idx target ~k:1);
        (* target may now be dead; promoting it further must follow the
           forwarding and not raise. *)
        let fresh = Dk_tune.promote idx target ~k:2 in
        check_bool "nonempty" true (fresh <> []);
        Index_graph.check_invariants idx);
    test "promotion on a cyclic index terminates" (fun () ->
        let g, a, _, _ = cyclic_graph () in
        let idx = Label_split.build g in
        let fresh = Dk_tune.promote idx (Index_graph.cls idx a) ~k:3 in
        check_bool "done" true (fresh <> []);
        Index_graph.check_invariants idx);
    test "promotion on a self-loop class terminates" (fun () ->
        let b = B.create () in
        let x1 = B.add_child b ~parent:0 "x" in
        let x2 = B.add_child b ~parent:x1 "x" in
        B.add_edge b x2 x1;
        let g = B.build b in
        let idx = Label_split.build g in
        ignore (Dk_tune.promote idx (Index_graph.cls idx x1) ~k:4);
        Index_graph.check_invariants idx);
    test "queries stay exact after promotion" (fun () ->
        let g = random_graph ~seed:155 ~nodes:120 in
        let idx = Label_split.build g in
        let rng = Prng.create ~seed:156 in
        for _ = 1 to 10 do
          let u = Prng.int rng (Data_graph.n_nodes g) in
          ignore (Dk_tune.promote idx (Index_graph.cls idx u) ~k:(1 + Prng.int rng 3))
        done;
        Index_graph.check_invariants idx;
        assert_index_matches_data g idx
          (Dkindex_workload.Query_gen.generate ~seed:157 ~count:20 g));
    test "promote_to_requirements restores degraded similarities" (fun () ->
        let g = random_graph ~seed:158 ~nodes:150 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:158 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let rng = Prng.create ~seed:159 in
        for _ = 1 to 20 do
          let u = Prng.int rng (Data_graph.n_nodes g)
          and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
          Dk_update.add_edge idx u v
        done;
        Dk_tune.promote_to_requirements idx;
        Index_graph.iter_alive idx (fun nd ->
            check_bool "k >= req" true (nd.Index_graph.k >= nd.Index_graph.req));
        Index_graph.check_invariants idx;
        assert_index_matches_data g idx queries);
    test "promote_to_requirements eliminates validation for the mined load" (fun () ->
        let g = random_graph ~seed:160 ~nodes:150 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:160 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let rng = Prng.create ~seed:161 in
        for _ = 1 to 15 do
          let u = Prng.int rng (Data_graph.n_nodes g)
          and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
          Dk_update.add_edge idx u v
        done;
        Dk_tune.promote_to_requirements idx;
        List.iter
          (fun q ->
            let r = Query_eval.eval_path idx q in
            check_int "no candidates" 0 r.Query_eval.n_candidates)
          queries);
    test "promote_labels processes every node of the label" (fun () ->
        let g = random_graph ~seed:162 ~nodes:100 in
        let idx = Label_split.build g in
        Dk_tune.promote_labels idx [ ("l0", 2); ("l1", 1) ];
        let pool = Data_graph.pool g in
        Index_graph.iter_alive idx (fun nd ->
            match Label.Pool.name pool nd.Index_graph.label with
            | "l0" -> check_bool "l0 at 2" true (nd.Index_graph.k >= 2)
            | "l1" -> check_bool "l1 at 1" true (nd.Index_graph.k >= 1)
            | _ -> ());
        Index_graph.check_invariants idx);
    test "promote_labels ignores unknown labels" (fun () ->
        let g = random_graph ~seed:163 ~nodes:50 in
        let idx = Label_split.build g in
        Dk_tune.promote_labels idx [ ("ghost", 3) ];
        check_int "unchanged" (Index_graph.n_nodes (Label_split.build g))
          (Index_graph.n_nodes idx));
    test "promoting up to A(k) level refines A(k); demoting recovers it" (fun () ->
        let g = random_graph ~seed:164 ~nodes:80 in
        let idx = Label_split.build g in
        let pool = Data_graph.pool g in
        let all = Label.Pool.fold (fun _ name acc -> (name, 2) :: acc) pool [] in
        Dk_tune.promote_labels idx all;
        let a2 = A_k_index.build g ~k:2 in
        (* Promotion may split by finer-than-necessary parents, so the
           result refines A(2): every promoted class sits inside one
           A(2) class. *)
        check_bool "at least as fine" true
          (Index_graph.n_nodes idx >= Index_graph.n_nodes a2);
        Index_graph.iter_alive idx (fun nd ->
            match Array.to_list nd.Index_graph.extent with
            | [] -> ()
            | first :: rest ->
              List.iter
                (fun u ->
                  check_int "inside one A(2) class" (Index_graph.cls a2 first)
                    (Index_graph.cls a2 u))
                rest);
        (* And a Theorem-2 rebuild at the uniform requirement recovers
           the exact A(2) partition. *)
        let recovered = Dk_tune.demote idx ~reqs:all in
        check_bool "recovered" true
          (Index_graph.partition_signature recovered = Index_graph.partition_signature a2));
  ]

let demote_tests =
  [
    test "demote equals a fresh build under the lower reqs" (fun () ->
        let g = random_graph ~seed:171 ~nodes:120 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:171 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let lower = List.map (fun (l, k) -> (l, k / 2)) reqs in
        let demoted = Dk_tune.demote idx ~reqs:lower in
        let direct = Dk_index.build g ~reqs:lower in
        check_bool "identical" true
          (Index_graph.partition_signature demoted = Index_graph.partition_signature direct));
    test "demote leaves the original index untouched" (fun () ->
        let g = random_graph ~seed:172 ~nodes:100 in
        let idx = Dk_index.build g ~reqs:[ ("l0", 3) ] in
        let sig_before = Index_graph.partition_signature idx in
        ignore (Dk_tune.demote idx ~reqs:[]);
        check_bool "unchanged" true (sig_before = Index_graph.partition_signature idx));
    test "demote after updates still answers queries exactly" (fun () ->
        let g = random_graph ~seed:173 ~nodes:120 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:173 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let rng = Prng.create ~seed:174 in
        for _ = 1 to 15 do
          let u = Prng.int rng (Data_graph.n_nodes g)
          and v = 1 + Prng.int rng (Data_graph.n_nodes g - 1) in
          Dk_update.add_edge idx u v
        done;
        let demoted = Dk_tune.demote idx ~reqs:(List.map (fun (l, k) -> (l, k / 2)) reqs) in
        Index_graph.check_invariants demoted;
        (* The input is stale (data changed since construction), so the
           rebuild must cap similarities honestly: extent members must
           still share their incoming label-path sets. *)
        assert_extents_path_equivalent g demoted;
        assert_index_matches_data g demoted queries);
    test "promote then demote round-trips the partition" (fun () ->
        let g = random_graph ~seed:175 ~nodes:100 in
        let reqs = [ ("l0", 2); ("l2", 1) ] in
        let idx = Dk_index.build g ~reqs in
        let sig_orig = Index_graph.partition_signature idx in
        Dk_tune.promote_labels idx [ ("l1", 3) ];
        let back = Dk_tune.demote idx ~reqs in
        check_bool "identical" true (sig_orig = Index_graph.partition_signature back));
  ]

let () = Alcotest.run "tune" [ ("promote", promote_tests); ("demote", demote_tests) ]
