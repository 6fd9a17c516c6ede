(* Golden-equivalence tests for the CSR memory layout: the flat-array
   Data_graph and the array-extent Index_graph must behave exactly like
   the original list-based structures.  A naive edge-set model plays
   the role of the seed implementation for adjacency; the seed's
   list-key refinement is re-implemented here as the oracle for the
   hash-signature Kbisim. *)

open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
module Prng = Dkindex_datagen.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))

let test name f = Alcotest.test_case name `Quick f

let random_graph ~seed ~nodes =
  Dkindex_datagen.Random_graph.graph ~seed ~nodes ~n_labels:6
    ~extra_edges:(nodes / 3) ()

(* ------------------------------------------------------------------ *)
(* Reference adjacency model: a plain edge set *)

module Model = struct
  type t = { mutable edges : (int * int, unit) Hashtbl.t; n : int }

  let of_graph g =
    let edges = Hashtbl.create 256 in
    Data_graph.iter_edges g (fun u v -> Hashtbl.replace edges (u, v) ());
    { edges; n = Data_graph.n_nodes g }

  let has_edge m u v = Hashtbl.mem m.edges (u, v)
  let add_edge m u v = Hashtbl.replace m.edges (u, v) ()
  let remove_edge m u v = Hashtbl.remove m.edges (u, v)
  let n_edges m = Hashtbl.length m.edges

  let children m u =
    List.sort compare
      (Hashtbl.fold (fun (a, b) () acc -> if a = u then b :: acc else acc) m.edges [])

  let parents m v =
    List.sort compare
      (Hashtbl.fold (fun (a, b) () acc -> if b = v then a :: acc else acc) m.edges [])
end

let collect_iter iter = List.rev (iter (fun acc x -> x :: acc) [])

let check_node_against_model g m u =
  let tag fmt = Printf.sprintf fmt u in
  check_int_list (tag "children of %d") (Model.children m u) (Data_graph.children g u);
  check_int_list (tag "parents of %d") (Model.parents m u) (Data_graph.parents g u);
  check_int (tag "out_degree of %d")
    (List.length (Model.children m u))
    (Data_graph.out_degree g u);
  check_int (tag "in_degree of %d") (List.length (Model.parents m u)) (Data_graph.in_degree g u);
  (* iterators visit the same neighbors as the materialized lists
     (pending overflow entries may come out of order, so compare as
     sorted multisets) *)
  let via_iter f = collect_iter (fun g' init -> let acc = ref init in f (fun x -> acc := g' !acc x); !acc) in
  check_int_list (tag "iter_children of %d")
    (Data_graph.children g u)
    (List.sort compare (via_iter (Data_graph.iter_children g u)));
  check_int_list (tag "iter_parents of %d")
    (Data_graph.parents g u)
    (List.sort compare (via_iter (Data_graph.iter_parents g u)))

let check_graph_against_model g m =
  check_int "n_edges" (Model.n_edges m) (Data_graph.n_edges g);
  for u = 0 to Data_graph.n_nodes g - 1 do
    check_node_against_model g m u
  done

(* Drive a graph and its model through a random update sequence long
   enough to cross the CSR rebuild threshold several times. *)
let churn ~seed ~rounds g m =
  let rng = Prng.create ~seed in
  let n = Data_graph.n_nodes g in
  for round = 1 to rounds do
    let u = Prng.int rng n and v = Prng.int rng n in
    if Prng.bool rng 0.6 then begin
      (* add (possibly a duplicate: must be a no-op) *)
      Data_graph.add_edge g u v;
      Model.add_edge m u v
    end
    else if Model.has_edge m u v then begin
      Data_graph.remove_edge g u v;
      Model.remove_edge m u v
    end
    else
      (* removing an absent edge must raise and change nothing *)
      Alcotest.check_raises "remove absent raises"
        (Invalid_argument (Printf.sprintf "Data_graph.remove_edge: no edge (%d, %d)" u v))
        (fun () -> Data_graph.remove_edge g u v);
    (* spot-check both endpoints every round, everything occasionally *)
    check_bool "has_edge" (Model.has_edge m u v) (Data_graph.has_edge g u v);
    check_node_against_model g m u;
    check_node_against_model g m v;
    if round mod 50 = 0 then check_graph_against_model g m
  done;
  check_graph_against_model g m

let graph_cases =
  [
    test "random graphs match the edge-set model through churn" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:120 in
            let m = Model.of_graph g in
            check_graph_against_model g m;
            churn ~seed:(seed * 7 + 1) ~rounds:400 g m)
          [ 11; 12; 13 ]);
    test "xmark graph matches the model through churn" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:5 ~scale:4 () in
        let m = Model.of_graph g in
        check_graph_against_model g m;
        churn ~seed:99 ~rounds:300 g m);
    test "nasa graph matches the model through churn" (fun () ->
        let g = Dkindex_datagen.Nasa.graph ~seed:6 ~scale:3 () in
        let m = Model.of_graph g in
        check_graph_against_model g m;
        churn ~seed:100 ~rounds:300 g m);
    test "children and parents come out sorted and deduplicated" (fun () ->
        let g = random_graph ~seed:21 ~nodes:200 in
        Data_graph.iter_nodes g (fun u ->
            let cs = Data_graph.children g u in
            check_int_list "children sorted" (List.sort_uniq compare cs) cs;
            let ps = Data_graph.parents g u in
            check_int_list "parents sorted" (List.sort_uniq compare ps) ps));
    test "exists helpers agree with list search" (fun () ->
        let g = random_graph ~seed:22 ~nodes:100 in
        let rng = Prng.create ~seed:23 in
        for _ = 1 to 200 do
          let u = Prng.int rng (Data_graph.n_nodes g) in
          let x = Prng.int rng (Data_graph.n_nodes g) in
          check_bool "exists_children"
            (List.mem x (Data_graph.children g u))
            (Data_graph.exists_children g u (fun c -> c = x));
          check_bool "exists_parents"
            (List.mem x (Data_graph.parents g u))
            (Data_graph.exists_parents g u (fun p -> p = x))
        done);
    test "csr views match the iterators, before and after churn" (fun () ->
        let g = random_graph ~seed:24 ~nodes:80 in
        let check_views () =
          let run_of off arr u =
            List.init
              (Int_vec.get off (u + 1) - Int_vec.get off u)
              (fun i -> Int_vec.get arr (Int_vec.get off u + i))
          in
          let off, arr = Data_graph.csr_children g in
          Data_graph.iter_nodes g (fun u ->
              check_int_list "children run" (Data_graph.children g u) (run_of off arr u));
          let off, arr = Data_graph.csr_parents g in
          Data_graph.iter_nodes g (fun u ->
              check_int_list "parents run" (Data_graph.parents g u) (run_of off arr u))
        in
        check_views ();
        let m = Model.of_graph g in
        churn ~seed:25 ~rounds:150 g m;
        check_views ());
    test "graft keeps both sides intact" (fun () ->
        let g = random_graph ~seed:31 ~nodes:60 in
        let h = Dkindex_datagen.Xmark.graph ~seed:7 ~scale:2 () in
        let ng = Data_graph.n_nodes g in
        let g', offset = Data_graph.graft g h in
        check_int "offset" ng offset;
        check_int "node count" (ng + Data_graph.n_nodes h - 1) (Data_graph.n_nodes g');
        (* g's edges survive verbatim *)
        Data_graph.iter_edges g (fun u v ->
            check_bool "g edge kept" true (Data_graph.has_edge g' u v));
        (* h's non-root structure survives under the remap *)
        let remap u = if u = 0 then Data_graph.root g' else u - 1 + offset in
        Data_graph.iter_edges h (fun u v ->
            check_bool "h edge kept" true (Data_graph.has_edge g' (remap u) (remap v)));
        let pool' = Data_graph.pool g' in
        for u = 1 to Data_graph.n_nodes h - 1 do
          check_bool "label kept" true
            (String.equal (Data_graph.label_name h u)
               (Label.Pool.name pool' (Data_graph.label g' (remap u))))
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Index graph with array extents *)

let all_labels g =
  let pool = Data_graph.pool g in
  Label.Pool.fold (fun l _ acc -> l :: acc) pool []

let check_label_bookkeeping idx g =
  List.iter
    (fun l ->
      let listed = Index_graph.nodes_with_label idx l in
      check_int "count_with_label = |nodes_with_label|" (List.length listed)
        (Index_graph.count_with_label idx l);
      List.iter
        (fun id ->
          check_bool "listed node alive" true (Index_graph.is_alive idx id);
          check_bool "label matches" true
            (Label.equal (Index_graph.node idx id).Index_graph.label l))
        listed)
    (all_labels g)

let index_cases =
  [
    test "extents are sorted arrays partitioning the data nodes" (fun () ->
        List.iter
          (fun (name, build) ->
            let g = random_graph ~seed:41 ~nodes:150 in
            let idx = build g in
            Index_graph.check_invariants idx;
            let seen = Array.make (Data_graph.n_nodes g) false in
            Index_graph.iter_alive idx (fun nd ->
                check_int
                  (name ^ ": extent_size")
                  (Array.length nd.Index_graph.extent)
                  nd.Index_graph.extent_size;
                check_int (name ^ ": extent_min") nd.Index_graph.extent.(0)
                  (Index_graph.extent_min nd);
                Array.iter
                  (fun u ->
                    check_bool (name ^ ": no overlap") false seen.(u);
                    seen.(u) <- true;
                    check_bool (name ^ ": extent_mem") true (Index_graph.extent_mem nd u))
                  nd.Index_graph.extent;
                check_bool (name ^ ": extent_mem miss") false
                  (Index_graph.extent_mem nd (-1)));
            check_bool (name ^ ": covers") true (Array.for_all Fun.id seen))
          [
            ("label-split", Label_split.build);
            ("A(2)", fun g -> A_k_index.build g ~k:2);
            ("1-index", fun g -> One_index.build g);
            ("F&B", Fb_index.build);
          ]);
    test "label counts stay exact through splits and updates" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:8 ~scale:4 () in
        let reqs = [ ("personref", 3); ("bidder", 2); ("interest", 3) ] in
        let idx = Dk_index.build g ~reqs in
        check_label_bookkeeping idx g;
        let rng = Prng.create ~seed:55 in
        let n = Data_graph.n_nodes g in
        for _ = 1 to 25 do
          let u = Prng.int rng n and v = Prng.int rng n in
          if not (Data_graph.has_edge g u v) then Dk_update.add_edge idx u v;
          check_label_bookkeeping idx g
        done;
        Index_graph.check_invariants idx);
    test "nodes_with_label skips compaction when nothing died" (fun () ->
        let g = random_graph ~seed:42 ~nodes:100 in
        let idx = Label_split.build g in
        List.iter
          (fun l ->
            let first = Index_graph.nodes_with_label idx l in
            (* No kill in between: the exact same list must come back. *)
            check_bool "physically cached" true (first == Index_graph.nodes_with_label idx l))
          (all_labels g);
        (* After a split the bucket must drop the dead id. *)
        let victim =
          Index_graph.fold_alive idx ~init:None ~f:(fun acc nd ->
              match acc with
              | Some _ -> acc
              | None -> if nd.Index_graph.extent_size >= 2 then Some nd else None)
        in
        match victim with
        | None -> Alcotest.fail "no splittable class in fixture"
        | Some nd ->
          let label = nd.Index_graph.label in
          let extent = nd.Index_graph.extent in
          let fresh =
            Index_graph.split idx nd.Index_graph.id
              [ [| extent.(0) |]; Array.sub extent 1 (Array.length extent - 1) ]
          in
          let listed = Index_graph.nodes_with_label idx label in
          check_bool "dead id dropped" false (List.mem nd.Index_graph.id listed);
          List.iter (fun id -> check_bool "fresh listed" true (List.mem id listed)) fresh;
          check_int "count tracks split" (List.length listed)
            (Index_graph.count_with_label idx label));
  ]

(* ------------------------------------------------------------------ *)
(* Hash-signature refinement vs the original list-key oracle *)

(* The seed implementation: intern (own class, sorted parent-class
   set) list keys, class ids by first occurrence in node order. *)
let refine_oracle g (p : Kbisim.partition) =
  let n = Data_graph.n_nodes g in
  let table : (int * int list, int) Hashtbl.t = Hashtbl.create 64 in
  let cls = Array.make n 0 in
  let count = ref 0 in
  for u = 0 to n - 1 do
    let parents_key = ref [] in
    Data_graph.iter_parents g u (fun v -> parents_key := p.Kbisim.cls.(v) :: !parents_key);
    let key = (p.Kbisim.cls.(u), List.sort_uniq compare !parents_key) in
    let c' =
      match Hashtbl.find_opt table key with
      | Some c' -> c'
      | None ->
        let c' = !count in
        incr count;
        Hashtbl.add table key c';
        c'
    in
    cls.(u) <- c'
  done;
  (cls, !count)

let check_partition_equal name (a : Kbisim.partition) (b : Kbisim.partition) =
  check_int (name ^ ": n_classes") a.Kbisim.n_classes b.Kbisim.n_classes;
  check_bool (name ^ ": cls") true (a.Kbisim.cls = b.Kbisim.cls);
  check_bool (name ^ ": parent_class") true (a.Kbisim.parent_class = b.Kbisim.parent_class)

let kbisim_cases =
  [
    test "signature refinement equals the list-key oracle" (fun () ->
        List.iter
          (fun g ->
            let p = ref (Kbisim.label_partition g) in
            for _ = 1 to 6 do
              let p', _ = Kbisim.refine g !p ~eligible:(fun _ -> true) in
              let cls, n_classes = refine_oracle g !p in
              check_int "round classes" n_classes p'.Kbisim.n_classes;
              check_bool "round cls" true (cls = p'.Kbisim.cls);
              p := p'
            done)
          [
            random_graph ~seed:61 ~nodes:300;
            Dkindex_datagen.Xmark.graph ~seed:9 ~scale:4 ();
            Dkindex_datagen.Nasa.graph ~seed:10 ~scale:3 ();
          ]);
    test "refine ~domains:4 is bit-for-bit refine ~domains:1" (fun () ->
        (* Large enough to take the parallel path (n >= 4096). *)
        let g = random_graph ~seed:62 ~nodes:6000 in
        let p1 = Kbisim.k_partition g ~k:3 ~domains:1 in
        let p4 = Kbisim.k_partition g ~k:3 ~domains:4 in
        check_partition_equal "k_partition" p1 p4;
        let s1, r1 = Kbisim.stable_partition g ~domains:1 in
        let s4, r4 = Kbisim.stable_partition g ~domains:4 in
        check_int "rounds" r1 r4;
        check_partition_equal "stable" s1 s4;
        let b1, ch1 = Kbisim.refine_by_children g p1 ~domains:1 in
        let b4, ch4 = Kbisim.refine_by_children g p1 ~domains:4 in
        check_bool "children changed flag" ch1 ch4;
        check_partition_equal "by_children" b1 b4);
    test "domain counts 2, 3 and 5 also agree" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:11 ~scale:70 () in
        check_bool "big enough for the parallel path" true (Data_graph.n_nodes g >= 4096);
        let p1 = Kbisim.k_partition g ~k:2 ~domains:1 in
        List.iter
          (fun d -> check_partition_equal (Printf.sprintf "domains:%d" d) p1
               (Kbisim.k_partition g ~k:2 ~domains:d))
          [ 2; 3; 5 ]);
  ]

let () =
  Alcotest.run "csr"
    [ ("data_graph", graph_cases); ("index_graph", index_cases); ("kbisim", kbisim_cases) ]
