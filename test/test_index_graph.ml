open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Stats_catalog = Dkindex_planner.Stats_catalog

(* ROOT -> a1, a2 -> b each; a1, a2 same label. *)
let diamond () =
  let b = Dkindex_graph.Builder.create () in
  let a1 = Dkindex_graph.Builder.add_child b ~parent:0 "a" in
  let a2 = Dkindex_graph.Builder.add_child b ~parent:0 "a" in
  let bb = Dkindex_graph.Builder.add_child b ~parent:a1 "b" in
  Dkindex_graph.Builder.add_edge b a2 bb;
  (Dkindex_graph.Builder.build b, a1, a2, bb)

let of_partition_tests =
  [
    test "label partition becomes one node per label" (fun () ->
        let g, _, _, _ = diamond () in
        let idx = Label_split.build g in
        check_int "nodes" 3 (Index_graph.n_nodes idx);
        check_int "edges: ROOT->a, a->b" 2 (Index_graph.n_edges idx));
    test "extents and cls are mutually consistent" (fun () ->
        let g, a1, a2, _ = diamond () in
        let idx = Label_split.build g in
        check_int "a1 a2 share" (Index_graph.cls idx a1) (Index_graph.cls idx a2);
        let nd = Index_graph.node idx (Index_graph.cls idx a1) in
        check_int "extent size" 2 nd.Index_graph.extent_size;
        Index_graph.check_invariants idx);
    test "root_node holds the data root" (fun () ->
        let g, _, _, _ = diamond () in
        let idx = Label_split.build g in
        let nd = Index_graph.node idx (Index_graph.root_node idx) in
        check_bool "contains 0" true (Array.mem 0 nd.Index_graph.extent));
    test "class mixing labels is rejected" (fun () ->
        let g, _, _, _ = diamond () in
        let cls = Array.make (Data_graph.n_nodes g) 0 in
        check_bool "raises" true
          (match
             Index_graph.of_partition g ~cls ~n_classes:1
               ~k_of_class:(fun _ -> 0)
               ~req_of_class:(fun _ -> 0)
           with
          | _ -> false
          | exception Invalid_argument _ -> true));
    test "empty class is rejected" (fun () ->
        let g, _, _, _ = diamond () in
        let p = Kbisim.label_partition g in
        check_bool "raises" true
          (match
             Index_graph.of_partition g ~cls:p.Kbisim.cls ~n_classes:(p.Kbisim.n_classes + 1)
               ~k_of_class:(fun _ -> 0)
               ~req_of_class:(fun _ -> 0)
           with
          | _ -> false
          | exception Invalid_argument _ -> true));
    test "nodes_with_label finds live nodes" (fun () ->
        let g, a1, _, _ = diamond () in
        let idx = Label_split.build g in
        let a = Data_graph.label g a1 in
        check_int_list "a class" [ Index_graph.cls idx a1 ] (Index_graph.nodes_with_label idx a));
  ]

let split_tests =
  [
    test "split rewires edges and cls" (fun () ->
        let g, a1, a2, bb = diamond () in
        let idx = Label_split.build g in
        let a_class = Index_graph.cls idx a1 in
        let fresh = Index_graph.split idx a_class [ [| a1 |]; [| a2 |] ] in
        check_int "two nodes" 2 (List.length fresh);
        check_bool "old dead" false (Index_graph.is_alive idx a_class);
        check_bool "cls updated" true (Index_graph.cls idx a1 <> Index_graph.cls idx a2);
        (* b's parents are now both fresh nodes. *)
        let b_cls = Index_graph.cls idx bb in
        check_int "b has two parents" 2 (List.length (Index_graph.parents_list idx b_cls));
        Index_graph.check_invariants idx);
    test "split with one group is the identity" (fun () ->
        let g, a1, _, _ = diamond () in
        let idx = Label_split.build g in
        let a_class = Index_graph.cls idx a1 in
        let nd = Index_graph.node idx a_class in
        check_int_list "same id" [ a_class ]
          (Index_graph.split idx a_class [ nd.Index_graph.extent ]));
    test "split validates coverage" (fun () ->
        let g, a1, _, _ = diamond () in
        let idx = Label_split.build g in
        let a_class = Index_graph.cls idx a1 in
        check_bool "short groups raise" true
          (match Index_graph.split idx a_class [ [| a1 |] ] with
          | _ -> false
          | exception Invalid_argument _ -> true));
    test "split updates nodes_with_label" (fun () ->
        let g, a1, a2, _ = diamond () in
        let idx = Label_split.build g in
        let a = Data_graph.label g a1 in
        ignore (Index_graph.split idx (Index_graph.cls idx a1) [ [| a1 |]; [| a2 |] ]);
        check_int "two live nodes" 2 (List.length (Index_graph.nodes_with_label idx a)));
    test "resolve follows split forwarding" (fun () ->
        let g, a1, a2, _ = diamond () in
        let idx = Label_split.build g in
        let a_class = Index_graph.cls idx a1 in
        let fresh = Index_graph.split idx a_class [ [| a1 |]; [| a2 |] ] in
        check_int_list "forwarded" (List.sort compare fresh)
          (List.sort compare (Index_graph.resolve idx a_class));
        check_int_list "live id resolves to itself" [ List.hd fresh ]
          (Index_graph.resolve idx (List.hd fresh)));
    test "resolve chains across repeated splits" (fun () ->
        let g = chain_graph [ "x"; "x"; "x" ] in
        let idx = Label_split.build g in
        let x_class = Index_graph.cls idx 1 in
        let fresh = Index_graph.split idx x_class [ [| 1 |]; [| 2; 3 |] ] in
        let second = List.nth fresh 1 in
        ignore (Index_graph.split idx second [ [| 2 |]; [| 3 |] ]);
        check_int "three leaves" 3 (List.length (Index_graph.resolve idx x_class)));
    test "dead node access raises" (fun () ->
        let g, a1, a2, _ = diamond () in
        let idx = Label_split.build g in
        let a_class = Index_graph.cls idx a1 in
        ignore (Index_graph.split idx a_class [ [| a1 |]; [| a2 |] ]);
        check_bool "raises" true
          (match Index_graph.node idx a_class with
          | _ -> false
          | exception Invalid_argument _ -> true));
    test "split handles self-loop classes" (fun () ->
        (* x -> x edge inside one class. *)
        let b = Dkindex_graph.Builder.create () in
        let x1 = Dkindex_graph.Builder.add_child b ~parent:0 "x" in
        let x2 = Dkindex_graph.Builder.add_child b ~parent:x1 "x" in
        let g = Dkindex_graph.Builder.build b in
        let idx = Label_split.build g in
        let c = Index_graph.cls idx x1 in
        check_bool "self loop" true (Index_graph.has_index_edge idx c c);
        ignore (Index_graph.split idx c [ [| x1 |]; [| x2 |] ]);
        Index_graph.check_invariants idx;
        check_bool "x1 -> x2 edge kept" true
          (Index_graph.has_index_edge idx (Index_graph.cls idx x1) (Index_graph.cls idx x2)));
  ]

let view_tests =
  [
    test "as_data_graph puts the root class first" (fun () ->
        let g, _, _, _ = diamond () in
        let idx = Label_split.build g in
        let derived, map = Index_graph.as_data_graph idx in
        check_int "derived root is index root" (Index_graph.root_node idx) map.(0);
        check_string "ROOT label" "ROOT" (Data_graph.label_name derived 0));
    test "as_data_graph preserves edges" (fun () ->
        let g = random_graph ~seed:51 ~nodes:100 in
        let idx = A_k_index.build g ~k:2 in
        let derived, map = Index_graph.as_data_graph idx in
        check_int "node count" (Index_graph.n_nodes idx) (Data_graph.n_nodes derived);
        check_int "edge count" (Index_graph.n_edges idx) (Data_graph.n_edges derived);
        Data_graph.iter_edges derived (fun du dv ->
            check_bool "edge exists in index" true
              (Index_graph.has_index_edge idx map.(du) map.(dv))));
    test "partition_signature detects equality and difference" (fun () ->
        let g = random_graph ~seed:52 ~nodes:80 in
        let a = A_k_index.build g ~k:2 and b = A_k_index.build g ~k:2 in
        check_bool "same" true
          (Index_graph.partition_signature a = Index_graph.partition_signature b);
        let c = A_k_index.build g ~k:3 in
        check_bool "k matters or partition differs" true
          (Index_graph.partition_signature a <> Index_graph.partition_signature c));
    test "check_invariants flags a Definition 3 violation" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let idx = A_k_index.build g ~k:1 in
        (* Force a child similarity far above its parent's. *)
        Index_graph.set_k idx (Index_graph.cls idx 2) 5;
        check_bool "raises" true
          (match Index_graph.check_invariants idx with
          | _ -> false
          | exception Failure _ -> true));
    test "max_k ignores the infinite 1-index similarity" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let one = One_index.build g in
        check_int "finite max" 0 (Index_graph.max_k one);
        let a2 = A_k_index.build g ~k:2 in
        check_int "uniform k" 2 (Index_graph.max_k a2));
    test "add_index_edge registers both directions" (fun () ->
        let g, a1, _, bb = diamond () in
        let idx = Label_split.build g in
        let r = Index_graph.root_node idx and b_cls = Index_graph.cls idx bb in
        ignore a1;
        Index_graph.add_index_edge idx b_cls r;
        check_bool "forward" true (Index_graph.has_index_edge idx b_cls r);
        check_bool "backward" true
          (List.mem b_cls (Index_graph.parents_list idx r)));
  ]

let compact_tests =
  [
    test "compact preserves the partition, k, req and edges" (fun () ->
        let g = random_graph ~seed:341 ~nodes:100 in
        let idx = Label_split.build g in
        (* churn: promote a few nodes to create dead slots *)
        ignore (Dk_tune.promote idx (Index_graph.cls idx 5) ~k:2);
        ignore (Dk_tune.promote idx (Index_graph.cls idx 9) ~k:1);
        let compacted = Index_graph.compact idx in
        Index_graph.check_invariants compacted;
        check_bool "same signature" true
          (Index_graph.partition_signature idx = Index_graph.partition_signature compacted);
        check_int "same size" (Index_graph.n_nodes idx) (Index_graph.n_nodes compacted);
        check_int "same edges" (Index_graph.n_edges idx) (Index_graph.n_edges compacted);
        (* dense ids: every id below n_nodes is alive *)
        for id = 0 to Index_graph.n_nodes compacted - 1 do
          check_bool "dense" true (Index_graph.is_alive compacted id)
        done);
    test "compact result answers queries identically" (fun () ->
        let g = random_graph ~seed:342 ~nodes:120 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:342 ~count:15 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx = Dk_index.build g ~reqs in
        Dk_tune.promote_to_requirements idx;
        let compacted = Index_graph.compact idx in
        List.iter
          (fun q ->
            check_int_list "same"
              (Query_eval.eval_path idx q).Query_eval.nodes
              (Query_eval.eval_path compacted q).Query_eval.nodes)
          queries);
  ]

let stats_tests =
  [
    test "stats of the label-split diamond" (fun () ->
        let g, _, _, _ = diamond () in
        let s = Stats_catalog.create (Label_split.build g) in
        check_int "nodes" 3 (Stats_catalog.n_inodes s);
        check_int "data nodes" 4 (Stats_catalog.n_data_nodes s);
        check_int "largest extent" 2 (Stats_catalog.largest_extent s);
        check_int "singletons" 2 (Stats_catalog.singleton_extents s);
        check_bool "compression" true
          (abs_float (Stats_catalog.compression s -. (4.0 /. 3.0)) < 1e-9);
        (match Stats_catalog.k_histogram s with
        | [ (0, 3) ] -> ()
        | _ -> Alcotest.fail "histogram");
        match
          List.find_opt (fun (name, _, _) -> String.equal name "a") (Stats_catalog.label_rows s)
        with
        | Some (_, 1, 2) -> ()
        | Some _ | None -> Alcotest.fail "label rows");
    test "infinite similarity lands in the -1 bucket" (fun () ->
        let g, _, _, _ = diamond () in
        let s = Stats_catalog.create (One_index.build g) in
        check_bool "has -1" true (List.mem_assoc (-1) (Stats_catalog.k_histogram s)));
    test "pp renders" (fun () ->
        let g, _, _, _ = diamond () in
        let text =
          Format.asprintf "%a" Stats_catalog.pp (Stats_catalog.create (Label_split.build g))
        in
        check_bool "mentions compression" true
          (let needle = "compression" in
           let rec find i =
             i + String.length needle <= String.length text
             && (String.sub text i (String.length needle) = needle || find (i + 1))
           in
           find 0));
  ]

let () =
  Alcotest.run "index_graph"
    [
      ("of_partition", of_partition_tests);
      ("split", split_tests);
      ("views", view_tests);
      ("stats", stats_tests);
      ("compact", compact_tests);
    ]
