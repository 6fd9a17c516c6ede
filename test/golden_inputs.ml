(* The indexes whose text encodings test_codec pins byte for byte.
   Each is a pure function of the code: no clock, no randomness beyond
   fixed seeds. *)

open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
module Dataset = Dkindex_server.Dataset

(* (a) The pinned serving index at scale 40. *)
let pinned () = (Dataset.make ~scale:40 ()).Dataset.index

(* (d) The pinned serving index at scale 2000, the size a durable
   launch of the benchmark checkpoints: node ids of up to six digits. *)
let pinned_2000 () = Dataset.index ~seed:1 ~scale:2000

(* (b) The same index after a few edge updates: twelve ID/IDREF
   additions (one of them removed again) and six removals of original
   edges.  That is far below the overflow layer's fold threshold, so
   the data graph keeps both overflow additions and tombstones. *)
let edited () =
  let ds = Dataset.make ~scale:40 () in
  let idx = ds.Dataset.index in
  let g = Index_graph.data idx in
  let added = List.filteri (fun i _ -> i < 12) ds.Dataset.update_edges in
  List.iter (fun (u, v) -> Dk_update.add_edge idx u v) added;
  (match added with (u, v) :: _ -> Dk_update.remove_edge idx u v | [] -> ());
  let removed = ref 0 and u = ref 1 in
  while !removed < 6 do
    (match Data_graph.children g !u with
    | v :: _ ->
      Dk_update.remove_edge idx !u v;
      incr removed
    | [] -> ());
    u := !u + 10
  done;
  idx

(* Payloads that need escaping, or look as if they did. *)
let payloads =
  [ "100%"; "a%0Ab"; "two\nlines"; "cr\rhere"; " spaced  out "; "%"; "%2"; "%25"; ""; "crlf\r\n" ]

(* (c) A hand-built cyclic graph carrying [payloads] and a label with
   spaces, under the 1-index: every class has k = infinity. *)
let escapes () =
  let b = Builder.create () in
  let doc = Builder.add_child b ~parent:(Builder.root b) "doc" in
  List.iter
    (fun text ->
      let item = Builder.add_child b ~parent:doc "item" in
      ignore (Builder.add_value ~text b ~parent:item))
    payloads;
  let odd = Builder.add_child b ~parent:doc "a label with spaces" in
  Builder.add_edge b odd doc;
  One_index.build (Builder.build b)

(* The durable state behind the committed checkpoint fixture: a small
   XMark index, then [fixture_log] applied and logged after the
   checkpoint was taken. *)
let fixture_base () = (Dataset.make ~scale:2 ()).Dataset.index

let fixture_log () =
  let ds = Dataset.make ~scale:2 () in
  let adds = List.filteri (fun i _ -> i < 5) ds.Dataset.update_edges in
  List.map (fun (u, v) -> Dkindex_server.Wal.Add_edge { u; v }) adds
  @ (match adds with (u, v) :: _ -> [ Dkindex_server.Wal.Remove_edge { u; v } ] | [] -> [])

(* A version-1 index document (no [counts] line) embedding a
   version-1 graph (no [values] section), with classes of infinite,
   finite and zero local similarity. *)
let v1_document =
  let graph = "dkindex-graph 1\nnodes 4\nROOT\na\nb\na\nedges 4\n0 1\n0 3\n1 2\n3 2\n" in
  Printf.sprintf "dkindex-index 1\ngraph %d\n%scls\n0\n1\n2\n1\nclasses 3\n-1 -1\n1 2\n0 0\n"
    (String.length graph) graph
