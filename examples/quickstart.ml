(* Quickstart: parse an XML document, build a D(k)-index, run a few
   path queries, and update the index in place.

   Run with: dune exec examples/quickstart.exe *)

open Dkindex_xml
open Dkindex_core

let document =
  {|<?xml version="1.0"?>
<library>
  <shelf topic="databases">
    <book id="b1"><title>Structural Summaries</title><author>Chen</author></book>
    <book id="b2"><title>Path Indexing</title><author>Lim</author></book>
  </shelf>
  <shelf topic="systems">
    <book id="b3"><title>Adaptive Indexes</title><author>Ong</author>
      <cites ref="b1"/>
    </book>
  </shelf>
  <journal id="j1"><title>SIGMOD 2003</title><cites ref="b3"/></journal>
</library>|}

let () =
  (* 1. Stream the document's parse events into a data graph: elements
     become labeled nodes, text becomes VALUE leaves, and the ref
     attributes become reference edges (the graph is not a tree). *)
  let graph = (Xml_to_graph.convert (Xml_sax.iter (Xml_sax.of_string document))).graph in
  Format.printf "data graph: %a@." Dkindex_graph.Data_graph.pp_stats
    (Dkindex_graph.Data_graph.stats graph);

  (* 2. Declare which labels the query load cares about, and how long
     the paths reaching them are.  `title` is queried through paths of
     up to 3 edges (e.g. library.shelf.book.title), `author` only via
     book.author. *)
  let reqs = [ ("title", 3); ("author", 1) ] in
  let index = Dk_index.build graph ~reqs in
  Format.printf "D(k)-index: %s@." (Index_graph.stats_line index);

  (* 3. Run path queries.  Queries match anywhere in the graph (the
     usual // semantics). *)
  let run q =
    let result = Query_eval.eval_path_strings index q in
    Format.printf "query %-28s -> %d nodes, cost %a@."
      (String.concat "." q)
      (List.length result.Query_eval.nodes)
      Dkindex_pathexpr.Cost.pp result.Query_eval.cost
  in
  run [ "book"; "title" ];
  run [ "shelf"; "book"; "author" ];
  (* `cites` elements reference other books: this query crosses a
     reference edge, which the graph model treats like any other. *)
  run [ "book"; "cites"; "book"; "title" ];

  (* 4. General regular path expressions work too. *)
  let expr = Dkindex_pathexpr.Path_parser.parse "library._?.book.title" in
  let result = Query_eval.eval_expr index expr in
  Format.printf "regex %-28s -> %d nodes@." "library._?.book.title"
    (List.length result.Query_eval.nodes);

  (* ... and branching tree patterns with value predicates: structure
     is answered from the index, payloads are settled by validation. *)
  let pattern = Dkindex_pathexpr.Tree_pattern.parse {|//book[./title[.="Path Indexing"]]|} in
  let result = Query_eval.eval_pattern index pattern in
  Format.printf "pattern %-26s -> %d nodes@." {|//book[./title[.="..."]]|}
    (List.length result.Query_eval.nodes);

  (* 5. The index absorbs data updates in place: add a citation edge
     and query again — no rebuild. *)
  let j1 =
    Dkindex_graph.Data_graph.fold_nodes graph ~init:(-1) ~f:(fun acc u ->
        if String.equal (Dkindex_graph.Data_graph.label_name graph u) "journal" then u else acc)
  and b2 =
    Dkindex_graph.Data_graph.fold_nodes graph ~init:(-1) ~f:(fun acc u ->
        if
          String.equal (Dkindex_graph.Data_graph.label_name graph u) "book"
          && acc < 0
        then u
        else acc)
  in
  Dk_update.add_edge index j1 b2;
  Format.printf "after adding journal -> book edge:@.";
  run [ "journal"; "book"; "title" ]
