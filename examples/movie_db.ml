(* The movie database of the paper's Figure 1, built with the graph
   Builder API: a movieDB with directors, actors and movies, where
   reference edges (ID/IDREF) from actors to the movies they star in
   make the data a general graph, not a tree.

   The example reproduces the paper's Section 3 observations:
   - the query director.movie.title returns the titles of directed
     movies;
   - movieDB.(_)?.movie.actor.name tolerates the irregular nesting
     (movies appear both directly under movieDB and under directors);
   - two movie nodes are bisimilar iff the label paths into them agree
     (nodes reached through actors are not bisimilar to tree-only
     movies).

   Run with: dune exec examples/movie_db.exe *)

open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
module B = Builder

let () =
  let b = B.create () in
  let movie_db = B.add_child b ~parent:(B.root b) "movieDB" in
  (* Two directors with the movies they directed. *)
  let director1 = B.add_child b ~parent:movie_db "director" in
  let director2 = B.add_child b ~parent:movie_db "director" in
  let name_of parent =
    let n = B.add_child b ~parent "name" in
    ignore (B.add_value b ~parent:n)
  in
  name_of director1;
  name_of director2;
  let movie1 = B.add_child b ~parent:director1 "movie" in
  let movie2 = B.add_child b ~parent:director2 "movie" in
  (* A movie directly under movieDB: the irregularity the optional `_`
     in the paper's example query is there to bridge. *)
  let movie3 = B.add_child b ~parent:movie_db "movie" in
  let title_of parent =
    let t = B.add_child b ~parent "title" in
    ignore (B.add_value b ~parent:t);
    t
  in
  let title1 = title_of movie1 in
  let title2 = title_of movie2 in
  let _title3 = title_of movie3 in
  (* Actors under movieDB, with reference edges to the movies they act
     in, and actor credits inside movies. *)
  let actor1 = B.add_child b ~parent:movie_db "actor" in
  let actor2 = B.add_child b ~parent:movie_db "actor" in
  name_of actor1;
  name_of actor2;
  B.add_edge b actor1 movie1;
  B.add_edge b actor2 movie1;
  B.add_edge b actor2 movie3;
  let credit1 = B.add_child b ~parent:movie1 "actor" in
  let credit2 = B.add_child b ~parent:movie3 "actor" in
  name_of credit1;
  name_of credit2;
  let g = B.build b in
  Format.printf "movie graph: %a@.@." Data_graph.pp_stats (Data_graph.stats g);

  (* Build the D(k)-index for a load that asks for titles through
     directors (2 edges) and actor names through movies (3 edges). *)
  let reqs = [ ("title", 2); ("name", 3) ] in
  let index = Dk_index.build g ~reqs in
  Format.printf "D(k)-index: %s@.@." (Index_graph.stats_line index);

  let show_path q =
    let result = Query_eval.eval_path_strings index q in
    Format.printf "%-34s -> nodes %s@."
      (String.concat "." q)
      (String.concat "," (List.map string_of_int result.Query_eval.nodes))
  in
  (* The paper's first example query. *)
  show_path [ "director"; "movie"; "title" ];
  assert (
    (Query_eval.eval_path_strings index [ "director"; "movie"; "title" ]).Query_eval.nodes
    = List.sort compare [ title1; title2 ]);

  (* The paper's second example: the optional wildcard bridges the
     irregular nesting of movies. *)
  let expr = Dkindex_pathexpr.Path_parser.parse "movieDB.(_)?.movie.actor.name" in
  let result = Query_eval.eval_expr index expr in
  Format.printf "%-34s -> nodes %s@." "movieDB.(_)?.movie.actor.name"
    (String.concat "," (List.map string_of_int result.Query_eval.nodes));

  (* Bisimilarity: the two director-reached movies share an index node
     only if all label paths into them agree.  movie1 is referenced by
     actors while movie2 is not, so they are NOT bisimilar; in the
     1-index they are separated. *)
  let one = One_index.build g in
  Format.printf "@.1-index classes: movie1=%d movie2=%d movie3=%d@."
    (Index_graph.cls one movie1) (Index_graph.cls one movie2) (Index_graph.cls one movie3);
  assert (Index_graph.cls one movie1 <> Index_graph.cls one movie2);
  (* Under A(0) (labels only) all movies collapse. *)
  let a0 = Label_split.build g in
  assert (Index_graph.cls a0 movie1 = Index_graph.cls a0 movie2);
  assert (Index_graph.cls a0 movie1 = Index_graph.cls a0 movie3);
  Format.printf "A(0) collapses all movies into class %d@." (Index_graph.cls a0 movie1)
