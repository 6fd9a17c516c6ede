(* The Verify auditing module: it must bless healthy indexes and flag
   each kind of corruption. *)
open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph

let healthy_tests =
  [
    test "a fresh D(k)-index passes all checks" (fun () ->
        let g = random_graph ~seed:401 ~nodes:150 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:401 ~count:30 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let report = Verify.run ~queries idx in
        check_bool "clean" true (report.Verify.issues = []);
        check_int "queries counted" 30 report.Verify.checked_queries);
    test "an updated index still passes" (fun () ->
        let g = random_graph ~seed:402 ~nodes:120 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:402 ~count:20 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        let rng = Dkindex_datagen.Prng.create ~seed:403 in
        for _ = 1 to 15 do
          let u = rng |> fun r -> Dkindex_datagen.Prng.int r (Data_graph.n_nodes g) in
          let v = 1 + Dkindex_datagen.Prng.int rng (Data_graph.n_nodes g - 1) in
          Dk_update.add_edge idx u v
        done;
        check_bool "clean" true ((Verify.run ~queries idx).Verify.issues = []));
    test "all baseline indexes pass" (fun () ->
        let g = random_graph ~seed:404 ~nodes:100 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:404 ~count:15 g in
        List.iter
          (fun idx -> check_bool "clean" true ((Verify.run ~queries idx).Verify.issues = []))
          [ Label_split.build g; A_k_index.build g ~k:2; One_index.build g; Fb_index.build g ]);
    test "quick mode skips the soundness pass" (fun () ->
        let g = random_graph ~seed:405 ~nodes:300 in
        let idx = One_index.build g in
        let report = Verify.run ~quick:true idx in
        check_bool "clean" true (report.Verify.issues = []));
  ]

let corruption_tests =
  [
    test "an inflated similarity is caught by the soundness check" (fun () ->
        (* Claim k=3 on the label-split index: extents share labels but
           not deeper paths. *)
        let g = random_graph ~seed:411 ~nodes:100 in
        let idx = Label_split.build g in
        Index_graph.iter_alive idx (fun nd -> Index_graph.set_k idx nd.Index_graph.id 3);
        let issues = Verify.soundness idx in
        check_bool "caught" true (issues <> []));
    test "a Definition 3 violation is caught by the structure check" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let idx = A_k_index.build g ~k:1 in
        Index_graph.set_k idx (Index_graph.cls idx 2) 9;
        check_bool "caught" true (Verify.structure idx <> []));
    test "an unsound index produces query issues" (fun () ->
        let g = random_graph ~seed:412 ~nodes:150 in
        let idx = Label_split.build g in
        (* Claim soundness the index does not have: long queries then
           return whole extents without validation. *)
        Index_graph.iter_alive idx (fun nd -> Index_graph.set_k idx nd.Index_graph.id 9);
        let queries = Dkindex_workload.Query_gen.generate ~seed:412 ~count:30 g in
        check_bool "caught" true (Verify.queries idx queries <> []));
    test "report pretty-printing mentions the issue" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let idx = A_k_index.build g ~k:1 in
        Index_graph.set_k idx (Index_graph.cls idx 2) 9;
        let text = Format.asprintf "%a" Verify.pp_report (Verify.run ~quick:true idx) in
        check_bool "has issue text" true
          (let needle = "issue" in
           let rec find i =
             i + String.length needle <= String.length text
             && (String.sub text i (String.length needle) = needle || find (i + 1))
           in
           find 0));
  ]

let () = Alcotest.run "verify" [ ("healthy", healthy_tests); ("corruption", corruption_tests) ]
