open Dkindex_core
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label

(* Partition of node ids as a canonical list of sorted classes. *)
let canonical (p : Kbisim.partition) =
  let buckets = Hashtbl.create 16 in
  Array.iteri
    (fun u c ->
      Hashtbl.replace buckets c (u :: Option.value (Hashtbl.find_opt buckets c) ~default:[]))
    p.Kbisim.cls;
  Hashtbl.fold (fun _ members acc -> List.sort compare members :: acc) buckets []
  |> List.sort compare

(* Reference partition: group nodes by pairwise k-bisimilarity. *)
let reference_partition g k =
  let bisim = k_bisimilar g in
  let n = Data_graph.n_nodes g in
  let classes = ref [] in
  for u = n - 1 downto 0 do
    let rec place = function
      | [] -> classes := [ u ] :: !classes
      | cls :: rest -> (
        match cls with
        | rep :: _ when bisim u rep k ->
          classes :=
            List.map (fun c -> if c == cls then u :: c else c) !classes;
          ignore rest
        | _ -> place rest)
    in
    place !classes
  done;
  List.sort compare (List.map (List.sort compare) !classes)

let label_partition_tests =
  [
    test "one class per label" (fun () ->
        let g = chain_graph [ "a"; "b"; "a" ] in
        let p = Kbisim.label_partition g in
        check_int "classes" 3 p.Kbisim.n_classes;
        check_int "a nodes share" p.Kbisim.cls.(1) p.Kbisim.cls.(3));
    test "root is class 0" (fun () ->
        let g = chain_graph [ "a" ] in
        check_int "root class" 0 (Kbisim.label_partition g).Kbisim.cls.(0));
    test "class_labels maps back" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let p = Kbisim.label_partition g in
        let labels = Kbisim.class_labels g p in
        check_string "root label" "ROOT"
          (Label.Pool.name (Data_graph.pool g) labels.(p.Kbisim.cls.(0))));
    test "parent_class of the initial partition is the identity" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let p = Kbisim.label_partition g in
        Array.iteri (fun i c -> check_int "identity" i c) p.Kbisim.parent_class);
  ]

let refine_tests =
  [
    test "refine separates same-label nodes with different parents" (fun () ->
        (* ROOT -> a -> x, ROOT -> b -> x: the two x's are 0-bisimilar
           but not 1-bisimilar. *)
        let b = Dkindex_graph.Builder.create () in
        let a = Dkindex_graph.Builder.add_child b ~parent:0 "a" in
        let bb = Dkindex_graph.Builder.add_child b ~parent:0 "b" in
        let x1 = Dkindex_graph.Builder.add_child b ~parent:a "x" in
        let x2 = Dkindex_graph.Builder.add_child b ~parent:bb "x" in
        let g = Dkindex_graph.Builder.build b in
        let p0 = Kbisim.label_partition g in
        check_int "x share at k=0" p0.Kbisim.cls.(x1) p0.Kbisim.cls.(x2);
        let p1, changed = Kbisim.refine g p0 ~eligible:(fun _ -> true) in
        check_bool "changed" true changed;
        check_bool "x split at k=1" true (p1.Kbisim.cls.(x1) <> p1.Kbisim.cls.(x2)));
    test "refine with nothing eligible changes nothing" (fun () ->
        let g = random_graph ~seed:21 ~nodes:80 in
        let p0 = Kbisim.label_partition g in
        let p1, changed = Kbisim.refine g p0 ~eligible:(fun _ -> false) in
        check_bool "unchanged" false changed;
        check_bool "same grouping" true (canonical p0 = canonical p1));
    test "parent_class maps each new class into its origin" (fun () ->
        let g = random_graph ~seed:22 ~nodes:60 in
        let p0 = Kbisim.label_partition g in
        let p1, _ = Kbisim.refine g p0 ~eligible:(fun _ -> true) in
        Array.iteri
          (fun u c1 ->
            check_int "origin" p0.Kbisim.cls.(u) p1.Kbisim.parent_class.(c1))
          p1.Kbisim.cls);
    test "refinement is monotone" (fun () ->
        let g = random_graph ~seed:23 ~nodes:100 in
        let p0 = Kbisim.label_partition g in
        let p1, _ = Kbisim.refine g p0 ~eligible:(fun _ -> true) in
        (* two nodes in the same class at k=1 were in the same class at k=0 *)
        Data_graph.iter_nodes g (fun u ->
            Data_graph.iter_nodes g (fun v ->
                if p1.Kbisim.cls.(u) = p1.Kbisim.cls.(v) then
                  check_int "coarser before" p0.Kbisim.cls.(u) p0.Kbisim.cls.(v))));
    test "a refinement round allocates no per-parent cells" (fun () ->
        (* On a graph with m >> n the list-based refinement allocated
           >= 3m words; the signature pass writes into preallocated
           scratch, so a round stays under m words and under its O(n)
           result arrays plus O(classes) tables (1,111 words measured). *)
        let module B = Dkindex_graph.Builder in
        let module Prng = Dkindex_datagen.Prng in
        let nodes = 2_000 and fan = 64 in
        let b = B.create () in
        let spine = Array.make nodes 0 in
        let node = ref (B.root b) in
        for i = 0 to nodes - 1 do
          node := B.add_child b ~parent:!node (if i mod 3 = 0 then "a" else "b");
          spine.(i) <- !node
        done;
        let rng = Prng.create ~seed:7 in
        for _ = 1 to nodes * fan / 2 do
          let u = spine.(Prng.int rng nodes) and v = spine.(Prng.int rng nodes) in
          B.add_edge b u v
        done;
        let g = B.build b in
        let m = Data_graph.n_edges g and n = Data_graph.n_nodes g in
        let p = Kbisim.label_partition g in
        (* Warm up: tables and one refinement's worth of survivors. *)
        ignore (Kbisim.refine g p ~eligible:(fun _ -> true));
        let before = allocated_words () in
        let p1, _ = Kbisim.refine g p ~eligible:(fun _ -> true) in
        let words = allocated_words () -. before in
        let budget = (24 * n) + (16 * p1.Kbisim.n_classes) + 65_536 in
        let what = Printf.sprintf "%.0f words (m=%d, n=%d, budget=%d)" words m n budget in
        check_bool what true (words <= float_of_int m && words <= float_of_int budget));
  ]

let k_partition_tests =
  [
    test "k_partition matches the definition on random graphs" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:40 in
            List.iter
              (fun k ->
                let fast = canonical (Kbisim.k_partition g ~k) in
                let slow = reference_partition g k in
                check_bool (Printf.sprintf "seed %d k=%d" seed k) true (fast = slow))
              [ 0; 1; 2; 3 ])
          [ 31; 32; 33 ]);
    test "k_partition matches the definition on a cyclic graph" (fun () ->
        let g, _, _, _ = cyclic_graph () in
        List.iter
          (fun k ->
            check_bool (Printf.sprintf "k=%d" k) true
              (canonical (Kbisim.k_partition g ~k) = reference_partition g k))
          [ 0; 1; 2; 3; 4 ]);
    test "k=0 is the label partition" (fun () ->
        let g = random_graph ~seed:34 ~nodes:50 in
        check_bool "equal" true
          (canonical (Kbisim.k_partition g ~k:0) = canonical (Kbisim.label_partition g)));
    test "partitions only refine as k grows" (fun () ->
        let g = random_graph ~seed:35 ~nodes:80 in
        let sizes = List.map (fun k -> (Kbisim.k_partition g ~k).Kbisim.n_classes) [ 0; 1; 2; 3; 4 ] in
        let rec ascending = function
          | a :: (b :: _ as rest) -> a <= b && ascending rest
          | _ -> true
        in
        check_bool "ascending" true (ascending sizes));
  ]

let stable_tests =
  [
    test "stable partition is a fixpoint" (fun () ->
        let g = random_graph ~seed:41 ~nodes:120 in
        let p, _ = Kbisim.stable_partition g in
        let _, changed = Kbisim.refine g p ~eligible:(fun _ -> true) in
        check_bool "no further split" false changed);
    test "stable partition equals a deep k_partition" (fun () ->
        let g = random_graph ~seed:42 ~nodes:60 in
        let p, rounds = Kbisim.stable_partition g in
        check_bool "equal" true (canonical p = canonical (Kbisim.k_partition g ~k:(rounds + 3))));
    test "rounds on a chain equal its depth minus one" (fun () ->
        (* In ROOT -> a -> a -> a every refinement round separates one
           more a by its distance from the root. *)
        let g = chain_graph [ "a"; "a"; "a"; "a" ] in
        let _, rounds = Kbisim.stable_partition g in
        check_int "rounds" 3 rounds);
    test "a tree of distinct labels stabilizes immediately" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        let _, rounds = Kbisim.stable_partition g in
        check_int "rounds" 0 rounds);
  ]

let () =
  Alcotest.run "kbisim"
    [
      ("label_partition", label_partition_tests);
      ("refine", refine_tests);
      ("k_partition", k_partition_tests);
      ("stable", stable_tests);
    ]
