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

(* ------------------------------------------------------------------ *)
(* The adjacency store itself, through the paths only the index graph
   takes: ids grown past the CSR, detach_all, tombstones lifted by a
   re-add, folds mid-churn, and copies that must not share state *)

(* [sorted]: the store is in {!Adjacency.keep_sorted} mode, so plain
   iteration must already come out in increasing order. *)
let check_adj_node ?(sorted = false) a m u =
  let tag fmt = Printf.sprintf fmt u in
  let kids = Model.children m u and pars = Model.parents m u in
  check_int_list (tag "children of %d") kids (Adjacency.children a u);
  check_int_list (tag "parents of %d") pars (Adjacency.parents a u);
  check_int (tag "out_degree of %d") (List.length kids) (Adjacency.out_degree a u);
  check_int (tag "in_degree of %d") (List.length pars) (Adjacency.in_degree a u);
  let collect iter =
    let acc = ref [] in
    iter (fun x -> acc := x :: !acc);
    !acc
  in
  check_int_list (tag "iter_children of %d") kids
    (List.sort compare (collect (Adjacency.iter_children a u)));
  check_int_list (tag "iter_parents of %d") pars
    (List.sort compare (collect (Adjacency.iter_parents a u)));
  check_int_list (tag "iter_children_sorted of %d") kids
    (List.rev (collect (Adjacency.iter_children_sorted a u)));
  if sorted then begin
    check_int_list (tag "sorted mode: iter_children of %d in order") kids
      (List.rev (collect (Adjacency.iter_children a u)));
    check_int_list (tag "sorted mode: iter_parents of %d in order") pars
      (List.rev (collect (Adjacency.iter_parents a u)));
    (* The short-circuit stops at the first hit in that order. *)
    let seen = ref [] in
    ignore
      (Adjacency.exists_parents a u (fun p ->
           seen := p :: !seen;
           List.length !seen = 2));
    check_int_list (tag "sorted mode: exists_parents of %d stops in order")
      (List.filteri (fun i _ -> i < 2) pars)
      (List.rev !seen)
  end;
  List.iter
    (fun v ->
      check_bool (tag "exists_children of %d") true
        (Adjacency.exists_children a u (fun x -> x = v));
      check_bool (tag "mem from %d") true (Adjacency.mem a u v))
    kids;
  List.iter
    (fun p ->
      check_bool (tag "exists_parents of %d") true (Adjacency.exists_parents a u (fun x -> x = p)))
    pars;
  check_bool (tag "exists_children of %d, no hit") false
    (Adjacency.exists_children a u (fun x -> x < 0))

let check_adj ?sorted a m n =
  check_int "id space" n (Adjacency.n a);
  check_int "n_edges" (Model.n_edges m) (Adjacency.n_edges a);
  for u = 0 to n - 1 do
    check_adj_node ?sorted a m u
  done

let model_detach m u =
  let incident = Hashtbl.fold (fun (a, b) () acc -> if a = u || b = u then (a, b) :: acc else acc) m.Model.edges [] in
  List.iter (fun (a, b) -> Model.remove_edge m a b) incident

(* [sort_at]: the round at which the store switches to
   {!Adjacency.keep_sorted} (its overflow lists then hold edges added
   before the switch), or never. *)
let adjacency_churn ?(sort_at = -1) ~seed () =
  let rng = Prng.create ~seed in
  let n = ref 40 in
  let m = { Model.edges = Hashtbl.create 256; n = !n } in
  for _ = 1 to 80 do
    Model.add_edge m (Prng.int rng !n) (Prng.int rng !n)
  done;
  let edges = Hashtbl.fold (fun e () acc -> e :: acc) m.Model.edges [] in
  (* Every edge twice: construction must deduplicate. *)
  let a =
    let src = Array.of_list (List.map fst edges) and dst = Array.of_list (List.map snd edges) in
    let m = Array.length src in
    Adjacency.of_edges !n [ (src, dst, m); (src, dst, m) ]
  in
  check_adj a m !n;
  let folds = ref 0 and lifted = ref 0 and grown_edges = ref 0 in
  let frozen = ref None in
  let sorted = ref false in
  for round = 1 to 700 do
    if round = sort_at then begin
      Adjacency.keep_sorted a;
      sorted := true;
      check_adj ~sorted:true a m !n
    end;
    let pending = Adjacency.overflow a <> (0, 0) in
    let u = Prng.int rng !n and v = Prng.int rng !n in
    (match Prng.int rng 12 with
    | 0 ->
      (* Grow the id space past the CSR; the new ids start bare. *)
      n := !n + 1 + Prng.int rng 3;
      Adjacency.extend a !n
    | 1 ->
      (* Often with a self-loop: one edge, in both of [u]'s runs. *)
      if Prng.bool rng 0.5 then begin
        Adjacency.add a u u;
        Model.add_edge m u u
      end;
      Adjacency.detach_all a u;
      model_detach m u
    | 2 -> (
      (* Delete a CSR edge, then add it back: the tombstone is lifted. *)
      match Adjacency.children a u with
      | [] -> ()
      | c :: _ ->
        let _, dead = Adjacency.overflow a in
        check_bool "remove live" true (Adjacency.remove a u c);
        if snd (Adjacency.overflow a) = dead + 1 then begin
          Adjacency.add a u c;
          check_int "tombstone lifted" dead (snd (Adjacency.overflow a));
          incr lifted
        end
        else Model.remove_edge m u c)
    | 3 when !frozen = None -> frozen := Some (Adjacency.copy a, Hashtbl.copy m.Model.edges, !n)
    | r when r < 8 ->
      if u >= 40 || v >= 40 then incr grown_edges;
      Adjacency.add a u v;
      Model.add_edge m u v
    | _ ->
      check_bool "remove reports presence" (Model.has_edge m u v) (Adjacency.remove a u v);
      Model.remove_edge m u v);
    if pending && Adjacency.overflow a = (0, 0) then incr folds;
    check_bool "mem" (Model.has_edge m u v) (Adjacency.mem a u v);
    check_adj_node ~sorted:!sorted a m u;
    check_adj_node ~sorted:!sorted a m v;
    if round mod 100 = 0 then check_adj ~sorted:!sorted a m !n
  done;
  check_adj ~sorted:!sorted a m !n;
  check_bool "folded mid-churn" true (!folds > 0);
  check_bool "lifted a tombstone" true (!lifted > 0);
  check_bool "edges on grown ids" true (!grown_edges > 0);
  (* The CSR views of the flattened store are the sorted lists. *)
  let off, arr = Adjacency.csr_children a in
  check_bool "flat" true (Adjacency.overflow a = (0, 0));
  for u = 0 to !n - 1 do
    check_int_list "csr run" (Model.children m u)
      (List.init
         (Int_vec.get off (u + 1) - Int_vec.get off u)
         (fun i -> Int_vec.get arr (Int_vec.get off u + i)))
  done;
  (* The copy saw none of the later churn, and churning it leaves the
     original alone. *)
  match !frozen with
  | None -> Alcotest.fail "no copy taken"
  | Some (c, edges, cn) ->
    let cm = { Model.edges; n = cn } in
    check_adj c cm cn;
    for u = 0 to cn - 1 do
      Adjacency.detach_all c u
    done;
    Adjacency.add c 0 0;
    check_int "copy churned" 1 (Adjacency.n_edges c);
    check_adj a m !n

(* [Adjacency.of_edges] against a reference: per node, the sorted,
   deduplicated children and parents of the edge multiset.  Edges are
   drawn from a printed seed with replacement, so duplicates and
   self-loops occur, in draw order (not sorted), over ids of which many
   stay isolated; they are split across one to three segments whose
   arrays run past their live length holding out-of-range garbage,
   which the constructor must not read. *)
let prop_of_edges_reference =
  QCheck.Test.make ~count:300 ~name:"Adjacency.of_edges = sorted, deduplicated reference"
    (QCheck.make
       ~print:(fun (seed, n, m) -> Printf.sprintf "seed=%d n=%d m=%d" seed n m)
       QCheck.Gen.(triple (int_bound 1_000_000) (int_range 1 40) (int_bound 150)))
    (fun (seed, n, m) ->
      let rng = Prng.create ~seed in
      (* A narrow draw range leaves the ids above it isolated. *)
      let hi = 1 + Prng.int rng n in
      let edges =
        Array.init m (fun i ->
            if i mod 17 = 5 then
              let u = Prng.int rng hi in
              (u, u)
            else (Prng.int rng hi, Prng.int rng hi))
      in
      let edges = if m > 3 then Array.append edges (Array.sub edges 0 3) else edges in
      let total = Array.length edges in
      let cut () = Prng.int rng (total + 1) in
      let cuts = List.sort_uniq compare [ 0; cut (); cut (); total ] in
      let rec segments = function
        | a :: (b :: _ as rest) ->
          let pad = Prng.int rng 3 in
          let seg f =
            Array.init (b - a + pad) (fun i -> if i < b - a then f edges.(a + i) else n + 7)
          in
          (seg fst, seg snd, b - a) :: segments rest
        | _ -> []
      in
      let a = Adjacency.of_edges n (segments cuts) in
      let distinct = List.sort_uniq compare (Array.to_list edges) in
      let want ~fwd u =
        List.filter_map
          (fun (x, y) ->
            let from, into = if fwd then (x, y) else (y, x) in
            if from = u then Some into else None)
          distinct
      in
      if Adjacency.n_edges a <> List.length distinct then
        QCheck.Test.fail_reportf "n_edges %d, reference %d" (Adjacency.n_edges a)
          (List.length distinct);
      for u = 0 to n - 1 do
        if Adjacency.children a u <> want ~fwd:true u then
          QCheck.Test.fail_reportf "children of %d differ" u;
        if Adjacency.parents a u <> want ~fwd:false u then
          QCheck.Test.fail_reportf "parents of %d differ" u;
        let coff, carr = Adjacency.csr_children a in
        let lo = Int_vec.get coff u in
        let run = List.init (Int_vec.get coff (u + 1) - lo) (fun i -> Int_vec.get carr (lo + i)) in
        if run <> want ~fwd:true u then QCheck.Test.fail_reportf "CSR run of %d differs" u
      done;
      true)

let graph_cases =
  [
    QCheck_alcotest.to_alcotest prop_of_edges_reference;
    test "Adjacency.of_edges range-checks every endpoint" (fun () ->
        Alcotest.check_raises "source"
          (Invalid_argument "Adjacency.of_edges: edge (3, 1) out of range") (fun () ->
            ignore (Adjacency.of_edges 3 [ ([| 0; 3 |], [| 1; 1 |], 2) ]));
        Alcotest.check_raises "target"
          (Invalid_argument "Adjacency.of_edges: edge (0, -1) out of range") (fun () ->
            ignore (Adjacency.of_edges 3 [ ([| 0 |], [| -1 |], 1) ]));
        Alcotest.check_raises "short segment"
          (Invalid_argument "Adjacency.of_edges: segment shorter than its length") (fun () ->
            ignore (Adjacency.of_edges 3 [ ([| 0 |], [| 1 |], 2) ])));
    test "the adjacency store matches the edge-set model through churn" (fun () ->
        List.iter (fun seed -> adjacency_churn ~seed ()) [ 71; 72; 73; 74 ]);
    test "in sorted mode every read comes out in fold order through churn" (fun () ->
        adjacency_churn ~sort_at:1 ~seed:75 ();
        adjacency_churn ~sort_at:350 ~seed:76 ());
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
  ]

let () =
  Alcotest.run "csr"
    [ ("data_graph", graph_cases); ("index_graph", index_cases); ("kbisim", kbisim_cases) ]
