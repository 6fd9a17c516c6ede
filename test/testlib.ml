(* Shared test helpers: small fixture graphs and naive reference
   implementations (k-bisimilarity by definition, regex word matching
   by structural recursion) that the optimized library code is checked
   against. *)

open Dkindex_graph
module B = Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int_list = Alcotest.(check (list int))
let check_string_list = Alcotest.(check (list string))

let test name f = Alcotest.test_case name `Quick f

(* Words allocated so far by this domain, for allocation guards.
   [Gc.quick_stat] only refreshes [minor_words] at collection
   boundaries; the [Gc.minor_words] primitive reads the allocation
   pointer exactly. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* ------------------------------------------------------------------ *)
(* Fixture graphs                                                      *)

(* ROOT -> a -> b -> c (a chain). *)
let chain_graph labels =
  let b = B.create () in
  let rec go parent = function
    | [] -> ()
    | l :: rest -> go (B.add_child b ~parent l) rest
  in
  go (B.root b) labels;
  B.build b

(* The movie database of the paper's Figure 1 (condensed): movies under
   directors and under the db, actors referencing movies. *)
type movie_fixture = {
  g : Data_graph.t;
  movie_db : int;
  director1 : int;
  director2 : int;
  movie1 : int;  (* directed by d1, referenced by both actors *)
  movie2 : int;  (* directed by d2, no actor references *)
  movie3 : int;  (* directly under movieDB, referenced by actor2 *)
  title1 : int;
  title2 : int;
  title3 : int;
  actor1 : int;
  actor2 : int;
}

let movie_graph () =
  let b = B.create () in
  let movie_db = B.add_child b ~parent:(B.root b) "movieDB" in
  let director1 = B.add_child b ~parent:movie_db "director" in
  let director2 = B.add_child b ~parent:movie_db "director" in
  let name_of parent = ignore (B.add_value b ~parent:(B.add_child b ~parent "name")) in
  name_of director1;
  name_of director2;
  let movie1 = B.add_child b ~parent:director1 "movie" in
  let movie2 = B.add_child b ~parent:director2 "movie" in
  let movie3 = B.add_child b ~parent:movie_db "movie" in
  let title_of parent =
    let t = B.add_child b ~parent "title" in
    ignore (B.add_value b ~parent:t);
    t
  in
  let title1 = title_of movie1 in
  let title2 = title_of movie2 in
  let title3 = title_of movie3 in
  let actor1 = B.add_child b ~parent:movie_db "actor" in
  let actor2 = B.add_child b ~parent:movie_db "actor" in
  name_of actor1;
  name_of actor2;
  B.add_edge b actor1 movie1;
  B.add_edge b actor2 movie1;
  B.add_edge b actor2 movie3;
  (* actor credits inside the movies that have actors *)
  name_of (B.add_child b ~parent:movie1 "actor");
  name_of (B.add_child b ~parent:movie3 "actor");
  {
    g = B.build b;
    movie_db;
    director1;
    director2;
    movie1;
    movie2;
    movie3;
    title1;
    title2;
    title3;
    actor1;
    actor2;
  }

(* A small cyclic graph: ROOT -> a -> b -> a (back edge), b -> c. *)
let cyclic_graph () =
  let b = B.create () in
  let a = B.add_child b ~parent:(B.root b) "a" in
  let bb = B.add_child b ~parent:a "b" in
  let c = B.add_child b ~parent:bb "c" in
  B.add_edge b bb a;
  (B.build b, a, bb, c)

let random_graph ~seed ~nodes =
  Dkindex_datagen.Random_graph.graph ~seed ~nodes ~n_labels:5
    ~extra_edges:(nodes / 4) ()

(* ------------------------------------------------------------------ *)
(* Reference k-bisimilarity (Definition 2), memoized                   *)

let k_bisimilar g =
  let memo : (int * int * int, bool) Hashtbl.t = Hashtbl.create 1024 in
  let rec bisim u v k =
    if u = v then true
    else if not (Label.equal (Data_graph.label g u) (Data_graph.label g v)) then false
    else if k = 0 then true
    else begin
      let u, v = if u < v then (u, v) else (v, u) in
      match Hashtbl.find_opt memo (u, v, k) with
      | Some r -> r
      | None ->
        let covered a b =
          List.for_all
            (fun a' -> List.exists (fun b' -> bisim a' b' (k - 1)) (Data_graph.parents g b))
            (Data_graph.parents g a)
        in
        let r = bisim u v (k - 1) && covered u v && covered v u in
        Hashtbl.add memo (u, v, k) r;
        r
    end
  in
  bisim

(* All extents of an index are pairwise k-bisimilar at their declared
   local similarity (the Theorem 1 premise). *)
let assert_extents_bisimilar ?(cap = 8) g idx =
  let bisim = k_bisimilar g in
  Dkindex_core.Index_graph.iter_alive idx (fun nd ->
      let k = min cap nd.Dkindex_core.Index_graph.k in
      match Array.to_list nd.Dkindex_core.Index_graph.extent with
      | [] -> ()
      | first :: rest ->
        List.iter
          (fun other ->
            if not (bisim first other k) then
              Alcotest.failf "extent of index node %d is not %d-bisimilar (%d vs %d)"
                nd.Dkindex_core.Index_graph.id k first other)
          rest)

(* ------------------------------------------------------------------ *)
(* Reference regex word matching by structural recursion               *)

let rec word_matches ast word i j =
  match ast with
  | Dkindex_pathexpr.Path_ast.Any -> j = i + 1
  | Label l -> j = i + 1 && String.equal word.(i) l
  | Seq (a, b) ->
    let rec try_split m =
      m <= j && ((word_matches a word i m && word_matches b word m j) || try_split (m + 1))
    in
    try_split i
  | Alt (a, b) -> word_matches a word i j || word_matches b word i j
  | Opt a -> i = j || word_matches a word i j
  | Star a ->
    i = j
    ||
    let rec try_split m =
      m <= j
      && ((word_matches a word i m && word_matches ast word m j) || try_split (m + 1))
    in
    try_split (i + 1)

let word_in_lang ast word =
  let arr = Array.of_list word in
  word_matches ast arr 0 (Array.length arr)

(* ------------------------------------------------------------------ *)
(* Query equivalence helper                                            *)

let assert_index_matches_data ?(msg = "query") g idx queries =
  List.iter
    (fun q ->
      let expected =
        Dkindex_pathexpr.Matcher.eval_label_path g q
          ~cost:(Dkindex_pathexpr.Cost.create ())
      in
      let got = (Dkindex_core.Query_eval.eval_path idx q).Dkindex_core.Query_eval.nodes in
      Alcotest.(check (list int)) msg expected got)
    queries

let labels_of_strings g names =
  let pool = Data_graph.pool g in
  Array.of_list (List.map (fun n -> Label.Pool.intern pool n) names)

(* ------------------------------------------------------------------ *)
(* Reference incoming label-path sets                                  *)

(* The set of label paths of length exactly [j] (in labels) ending at a
   node.  This is the property the D(k)-index actually guarantees after
   in-place updates: extent members share their incoming label-path
   sets up to the node's similarity (sufficient for Theorem 1), even
   when they are no longer fully k-bisimilar. *)
let label_path_sets g =
  let module Paths = Set.Make (struct
    type t = int list

    let compare = compare
  end) in
  let memo : (int * int, Paths.t) Hashtbl.t = Hashtbl.create 256 in
  let rec paths u j =
    if j <= 1 then Paths.singleton [ Label.to_int (Data_graph.label g u) ]
    else
      match Hashtbl.find_opt memo (u, j) with
      | Some set -> set
      | None ->
        let own = Label.to_int (Data_graph.label g u) in
        let set =
          List.fold_left
            (fun acc p ->
              Paths.fold (fun path acc -> Paths.add (path @ [ own ]) acc) (paths p (j - 1)) acc)
            Paths.empty (Data_graph.parents g u)
        in
        Hashtbl.add memo (u, j) set;
        set
  in
  fun u j -> Paths.elements (paths u j)

(* Extents share incoming label-path sets up to their similarity. *)
let assert_extents_path_equivalent ?(cap = 6) g idx =
  let sets = label_path_sets g in
  Dkindex_core.Index_graph.iter_alive idx (fun nd ->
      let k = min cap nd.Dkindex_core.Index_graph.k in
      match Array.to_list nd.Dkindex_core.Index_graph.extent with
      | [] -> ()
      | first :: rest ->
        for j = 1 to k + 1 do
          let expected = sets first j in
          List.iter
            (fun other ->
              if sets other j <> expected then
                Alcotest.failf
                  "extent of index node %d: label-path sets of length %d differ (%d vs %d)"
                  nd.Dkindex_core.Index_graph.id j first other)
            rest
        done)

(* ------------------------------------------------------------------ *)
(* Naive tree-pattern matching (no memoization, no index) — the
   reference for Tree_pattern.eval. *)

let rec naive_pattern_sat g (n : Dkindex_pathexpr.Tree_pattern.node) u =
  let label_ok =
    match n.Dkindex_pathexpr.Tree_pattern.label with
    | None -> true
    | Some l -> String.equal l (Data_graph.label_name g u)
  in
  let value_ok =
    match n.Dkindex_pathexpr.Tree_pattern.value_test with
    | None -> true
    | Some expected ->
      let matches w =
        match Data_graph.value g w with Some s -> String.equal s expected | None -> false
      in
      matches u
      || List.exists
           (fun c -> String.equal (Data_graph.label_name g c) Label.value_name && matches c)
           (Data_graph.children g u)
  in
  label_ok && value_ok
  && List.for_all
       (fun (axis, sub) ->
         let candidates =
           match axis with
           | Dkindex_pathexpr.Tree_pattern.Child -> Data_graph.children g u
           | Dkindex_pathexpr.Tree_pattern.Descendant ->
             let seen = Hashtbl.create 16 in
             let rec collect w =
               List.iter
                 (fun c ->
                   if not (Hashtbl.mem seen c) then begin
                     Hashtbl.add seen c ();
                     collect c
                   end)
                 (Data_graph.children g w)
             in
             collect u;
             Hashtbl.fold (fun c () acc -> c :: acc) seen []
         in
         List.exists (naive_pattern_sat g sub) candidates)
       n.Dkindex_pathexpr.Tree_pattern.preds

let naive_pattern_eval g (t : Dkindex_pathexpr.Tree_pattern.t) =
  let axis_set axis u =
    match axis with
    | Dkindex_pathexpr.Tree_pattern.Child -> Data_graph.children g u
    | Dkindex_pathexpr.Tree_pattern.Descendant ->
      let seen = Hashtbl.create 16 in
      let rec collect w =
        List.iter
          (fun c ->
            if not (Hashtbl.mem seen c) then begin
              Hashtbl.add seen c ();
              collect c
            end)
          (Data_graph.children g w)
      in
      collect u;
      Hashtbl.fold (fun c () acc -> c :: acc) seen []
  in
  let step frontier (axis, n) =
    List.concat_map (fun u -> List.filter (naive_pattern_sat g n) (axis_set axis u)) frontier
    |> List.sort_uniq compare
  in
  List.fold_left step [ Data_graph.root g ] t.Dkindex_pathexpr.Tree_pattern.steps
