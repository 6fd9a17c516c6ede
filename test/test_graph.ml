open Dkindex_graph
open Testlib

(* ------------------------------------------------------------------ *)
(* Label pool                                                          *)

let label_tests =
  [
    test "intern is idempotent" (fun () ->
        let pool = Label.Pool.create () in
        let a = Label.Pool.intern pool "a" in
        let a' = Label.Pool.intern pool "a" in
        check_bool "same code" true (Label.equal a a'));
    test "distinct names get distinct codes" (fun () ->
        let pool = Label.Pool.create () in
        let a = Label.Pool.intern pool "a" and b = Label.Pool.intern pool "b" in
        check_bool "different" false (Label.equal a b));
    test "name round-trips" (fun () ->
        let pool = Label.Pool.create () in
        let a = Label.Pool.intern pool "hello" in
        check_string "name" "hello" (Label.Pool.name pool a));
    test "name of unknown code raises" (fun () ->
        let pool = Label.Pool.create () in
        Alcotest.check_raises "invalid" (Invalid_argument "Label.Pool.name: unknown code 5")
          (fun () -> ignore (Label.Pool.name pool (Label.of_int 5))));
    test "find_opt misses unknown names" (fun () ->
        let pool = Label.Pool.create () in
        check_bool "none" true (Option.is_none (Label.Pool.find_opt pool "nope")));
    test "count grows with interning" (fun () ->
        let pool = Label.Pool.create () in
        ignore (Label.Pool.intern pool "a");
        ignore (Label.Pool.intern pool "b");
        ignore (Label.Pool.intern pool "a");
        check_int "count" 2 (Label.Pool.count pool));
    test "many labels force growth" (fun () ->
        let pool = Label.Pool.create () in
        for i = 0 to 99 do
          ignore (Label.Pool.intern pool (string_of_int i))
        done;
        check_int "count" 100 (Label.Pool.count pool);
        check_string "name 73" "73" (Label.Pool.name pool (Label.of_int 73)));
    test "copy is independent" (fun () ->
        let pool = Label.Pool.create () in
        ignore (Label.Pool.intern pool "a");
        let copy = Label.Pool.copy pool in
        ignore (Label.Pool.intern copy "b");
        check_int "original unchanged" 1 (Label.Pool.count pool);
        check_int "copy grew" 2 (Label.Pool.count copy));
    test "fold visits labels in code order" (fun () ->
        let pool = Label.Pool.create () in
        List.iter (fun n -> ignore (Label.Pool.intern pool n)) [ "x"; "y"; "z" ];
        let names = List.rev (Label.Pool.fold (fun _ n acc -> n :: acc) pool []) in
        check_string_list "order" [ "x"; "y"; "z" ] names);
    test "compare is consistent with codes" (fun () ->
        let pool = Label.Pool.create () in
        let a = Label.Pool.intern pool "a" and b = Label.Pool.intern pool "b" in
        check_bool "a < b" true (Label.compare a b < 0));
  ]

(* ------------------------------------------------------------------ *)
(* Data graph construction and accessors                               *)

let simple_graph () =
  (* ROOT -> a, ROOT -> b, a -> c, b -> c *)
  let pool = Label.Pool.create () in
  let l n = Label.Pool.intern pool n in
  let labels = [| l "ROOT"; l "a"; l "b"; l "c" |] in
  Data_graph.make ~pool ~labels ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ] ()

let graph_tests =
  [
    test "basic accessors" (fun () ->
        let g = simple_graph () in
        check_int "nodes" 4 (Data_graph.n_nodes g);
        check_int "edges" 4 (Data_graph.n_edges g);
        check_int "root" 0 (Data_graph.root g);
        check_string "root label" "ROOT" (Data_graph.label_name g 0);
        check_string "c label" "c" (Data_graph.label_name g 3));
    test "children and parents are symmetric" (fun () ->
        let g = simple_graph () in
        check_int_list "children of root" [ 1; 2 ]
          (List.sort compare (Data_graph.children g 0));
        check_int_list "parents of c" [ 1; 2 ] (List.sort compare (Data_graph.parents g 3));
        check_int_list "parents of root" [] (Data_graph.parents g 0));
    test "duplicate edges are kept once" (fun () ->
        let pool = Label.Pool.create () in
        let labels = [| Label.Pool.intern pool "ROOT"; Label.Pool.intern pool "a" |] in
        let g = Data_graph.make ~pool ~labels ~edges:[ (0, 1); (0, 1); (0, 1) ] () in
        check_int "edges" 1 (Data_graph.n_edges g));
    test "out-of-range edge raises" (fun () ->
        let pool = Label.Pool.create () in
        let labels = [| Label.Pool.intern pool "ROOT" |] in
        Alcotest.check_raises "invalid"
          (Invalid_argument "Data_graph: edge (0, 3) out of range") (fun () ->
            ignore (Data_graph.make ~pool ~labels ~edges:[ (0, 3) ] ())));
    test "empty node set raises" (fun () ->
        let pool = Label.Pool.create () in
        Alcotest.check_raises "invalid" (Invalid_argument "Data_graph.make: no nodes")
          (fun () -> ignore (Data_graph.make ~pool ~labels:[||] ~edges:[] ())));
    test "degrees" (fun () ->
        let g = simple_graph () in
        check_int "out of root" 2 (Data_graph.out_degree g 0);
        check_int "in of c" 2 (Data_graph.in_degree g 3);
        check_int "in of root" 0 (Data_graph.in_degree g 0));
    test "nodes_with_label lists increasing ids" (fun () ->
        let g = chain_graph [ "x"; "y"; "x"; "x" ] in
        let pool = Data_graph.pool g in
        let x = Option.get (Label.Pool.find_opt pool "x") in
        check_int_list "xs" [ 1; 3; 4 ] (Data_graph.nodes_with_label g x));
    test "nodes_with_label of absent label is empty" (fun () ->
        let g = simple_graph () in
        check_int_list "none" [] (Data_graph.nodes_with_label g (Label.of_int 0) |> List.filter (fun _ -> false)));
    test "has_edge" (fun () ->
        let g = simple_graph () in
        check_bool "0->1" true (Data_graph.has_edge g 0 1);
        check_bool "1->0" false (Data_graph.has_edge g 1 0));
    test "add_edge links both directions" (fun () ->
        let g = simple_graph () in
        Data_graph.add_edge g 3 1;
        check_bool "present" true (Data_graph.has_edge g 3 1);
        check_bool "parent recorded" true (List.mem 3 (Data_graph.parents g 1));
        check_int "edge count" 5 (Data_graph.n_edges g));
    test "add_edge is idempotent" (fun () ->
        let g = simple_graph () in
        Data_graph.add_edge g 0 3;
        Data_graph.add_edge g 0 3;
        check_int "edges" 5 (Data_graph.n_edges g));
    test "self-loops are allowed" (fun () ->
        let g = simple_graph () in
        Data_graph.add_edge g 3 3;
        check_bool "self" true (Data_graph.has_edge g 3 3);
        check_bool "own parent" true (List.mem 3 (Data_graph.parents g 3)));
    test "iter_edges visits each edge once" (fun () ->
        let g = simple_graph () in
        let count = ref 0 in
        Data_graph.iter_edges g (fun _ _ -> incr count);
        check_int "count" (Data_graph.n_edges g) !count);
    test "fold_nodes covers all ids" (fun () ->
        let g = simple_graph () in
        let sum = Data_graph.fold_nodes g ~init:0 ~f:( + ) in
        check_int "sum of ids" 6 sum);
    test "copy is deeply independent" (fun () ->
        let g = simple_graph () in
        let g' = Data_graph.copy g in
        Data_graph.add_edge g' 3 1;
        check_bool "copy has it" true (Data_graph.has_edge g' 3 1);
        check_bool "original does not" false (Data_graph.has_edge g 3 1);
        ignore (Label.Pool.intern (Data_graph.pool g') "fresh");
        check_bool "pools independent" true
          (Option.is_none (Label.Pool.find_opt (Data_graph.pool g) "fresh")));
  ]

(* ------------------------------------------------------------------ *)
(* Graft                                                               *)

let graft_tests =
  [
    test "graft merges roots and offsets ids" (fun () ->
        let g = chain_graph [ "a" ] in
        let h = chain_graph [ "x"; "y" ] in
        let g', offset = Data_graph.graft g h in
        (* g has 2 nodes, h has 3, minus h's dropped root. *)
        check_int "nodes" 4 (Data_graph.n_nodes g');
        check_int "offset" 2 offset;
        (* h's node 1 ("x") becomes a child of g's root. *)
        let x = 1 - 1 + offset in
        check_bool "root -> x" true (Data_graph.has_edge g' 0 x);
        check_string "x label" "x" (Data_graph.label_name g' x);
        check_string "y label" "y" (Data_graph.label_name g' (2 - 1 + offset)));
    test "graft preserves original edges" (fun () ->
        let g = simple_graph () in
        let h = chain_graph [ "z" ] in
        let g', _ = Data_graph.graft g h in
        check_bool "0->1" true (Data_graph.has_edge g' 0 1);
        check_bool "1->3" true (Data_graph.has_edge g' 1 3));
    test "graft does not mutate the inputs" (fun () ->
        let g = simple_graph () in
        let h = chain_graph [ "z" ] in
        let n_g = Data_graph.n_nodes g and n_h = Data_graph.n_nodes h in
        ignore (Data_graph.graft g h);
        check_int "g unchanged" n_g (Data_graph.n_nodes g);
        check_int "h unchanged" n_h (Data_graph.n_nodes h));
    test "graft keeps the result reachable" (fun () ->
        let g = random_graph ~seed:1 ~nodes:50 in
        let h = random_graph ~seed:2 ~nodes:30 in
        let g', _ = Data_graph.graft g h in
        check_int "unreachable" 0 (Data_graph.stats g').Data_graph.unreachable);
  ]

(* ------------------------------------------------------------------ *)
(* Stats and traversal                                                 *)

let traversal_tests =
  [
    test "stats of a chain" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        let s = Data_graph.stats g in
        check_int "depth" 3 s.Data_graph.max_depth;
        check_int "unreachable" 0 s.Data_graph.unreachable;
        check_int "labels" 4 s.Data_graph.labels);
    test "depths" (fun () ->
        let g = simple_graph () in
        let d = Traversal.depths g in
        check_int "root" 0 d.(0);
        check_int "a" 1 d.(1);
        check_int "c" 2 d.(3));
    test "depths marks unreachable nodes" (fun () ->
        let pool = Label.Pool.create () in
        let l n = Label.Pool.intern pool n in
        let g = Data_graph.make ~pool ~labels:[| l "ROOT"; l "a" |] ~edges:[] () in
        check_int "unreachable" (-1) (Traversal.depths g).(1));
    test "bfs_order starts at the root and covers reachable nodes" (fun () ->
        let g = simple_graph () in
        let order = Traversal.bfs_order g in
        check_int "first" 0 order.(0);
        check_int "length" 4 (Array.length order));
    test "reachable is forward-only" (fun () ->
        let g = simple_graph () in
        let r = Traversal.reachable g ~from:1 in
        check_bool "1 itself" true r.(1);
        check_bool "3 below" true r.(3);
        check_bool "2 is a sibling" false r.(2);
        check_bool "root above" false r.(0));
    test "label_path_to walks up to the root" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        let path = Traversal.label_path_to g 3 ~max_len:10 in
        check_string_list "labels"
          [ "ROOT"; "a"; "b"; "c" ]
          (List.map (Label.Pool.name (Data_graph.pool g)) path));
    test "label_path_to respects max_len" (fun () ->
        let g = chain_graph [ "a"; "b"; "c" ] in
        check_int "len" 2 (List.length (Traversal.label_path_to g 3 ~max_len:2)));
    test "label_counts sorted by population" (fun () ->
        let g = chain_graph [ "x"; "x"; "y" ] in
        match Traversal.label_counts g with
        | (top, n) :: _ ->
          check_string "top" "x" top;
          check_int "count" 2 n
        | [] -> Alcotest.fail "empty");
  ]

(* ------------------------------------------------------------------ *)
(* Value payloads                                                      *)

let value_tests =
  [
    test "values attach and read back" (fun () ->
        let b = Builder.create () in
        let x = Builder.add_child b ~parent:0 "x" in
        let v = Builder.add_value ~text:"payload" b ~parent:x in
        let plain = Builder.add_value b ~parent:x in
        let g = Builder.build b in
        check_string "payload" "payload" (Option.get (Data_graph.value g v));
        check_bool "plain VALUE has none" true (Option.is_none (Data_graph.value g plain));
        check_bool "element has none" true (Option.is_none (Data_graph.value g x)));
    test "set_value on an arbitrary node" (fun () ->
        let b = Builder.create () in
        let x = Builder.add_child b ~parent:0 "x" in
        Builder.set_value b x "direct";
        let v = Builder.add_value ~text:"first" b ~parent:x in
        Builder.set_value b v "second";
        Builder.set_value b x "again";
        let g = Builder.build b in
        check_string "direct" "direct" (Option.get (Data_graph.value g x));
        check_string "builder: first payload wins" "first" (Option.get (Data_graph.value g v));
        (* The streaming sink keeps the same rule. *)
        let path = Filename.temp_file "set_value" ".dkg" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let gs = Graph_stream.create ~path () in
        let x = Graph_stream.add_child gs ~parent:0 "x" in
        Graph_stream.set_value gs x "direct";
        let v = Graph_stream.add_value ~text:"first" gs ~parent:x in
        Graph_stream.set_value gs v "second";
        Graph_stream.set_value gs x "again";
        Graph_stream.finish gs;
        let g' = Container.open_graph path in
        check_string "stream: direct" "direct" (Option.get (Data_graph.value g' x));
        check_string "stream: first payload wins" "first" (Option.get (Data_graph.value g' v)));
    test "copy and graft carry values" (fun () ->
        let b = Builder.create () in
        let x = Builder.add_child b ~parent:0 "x" in
        ignore (Builder.add_value ~text:"v" b ~parent:x);
        let g = Builder.build b in
        let g' = Data_graph.copy g in
        check_string "copied" "v" (Option.get (Data_graph.value g' 2));
        let host = chain_graph [ "a" ] in
        let combined, offset = Data_graph.graft host g in
        check_string "grafted" "v" (Option.get (Data_graph.value combined (2 - 1 + offset))));
    test "serialization round-trips values, including newlines" (fun () ->
        let b = Builder.create () in
        let x = Builder.add_child b ~parent:0 "x" in
        ignore (Builder.add_value ~text:"line1\nline2 100% \r" b ~parent:x);
        let g = Builder.build b in
        let g' = Serial.of_string (Serial.to_string g) in
        check_string "payload" "line1\nline2 100% \r" (Option.get (Data_graph.value g' 2)));
    test "legacy v1 serializations still load" (fun () ->
        let v1 = "dkindex-graph 1\nnodes 2\nROOT\na\nedges 1\n0 1\n" in
        let g = Serial.of_string v1 in
        check_int "nodes" 2 (Data_graph.n_nodes g);
        check_bool "no values" true (Option.is_none (Data_graph.value g 1)));
  ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let serial_tests =
  [
    test "round trip preserves structure" (fun () ->
        let g = random_graph ~seed:3 ~nodes:80 in
        let g' = Serial.of_string (Serial.to_string g) in
        check_int "nodes" (Data_graph.n_nodes g) (Data_graph.n_nodes g');
        check_int "edges" (Data_graph.n_edges g) (Data_graph.n_edges g');
        Data_graph.iter_nodes g (fun u ->
            check_string "label" (Data_graph.label_name g u) (Data_graph.label_name g' u);
            check_int_list "children"
              (List.sort compare (Data_graph.children g u))
              (List.sort compare (Data_graph.children g' u))));
    test "bad magic fails" (fun () ->
        check_bool "raises" true
          (match Serial.of_string "nonsense\n" with
          | _ -> false
          | exception Failure _ -> true));
    test "truncated labels fail" (fun () ->
        check_bool "raises" true
          (match Serial.of_string "dkindex-graph 1\nnodes 3\nROOT\n" with
          | _ -> false
          | exception Failure _ -> true));
    test "truncated edges fail" (fun () ->
        check_bool "raises" true
          (match Serial.of_string "dkindex-graph 1\nnodes 1\nROOT\nedges 2\n0 0\n" with
          | _ -> false
          | exception Failure _ -> true));
    test "file save/load" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let path = Filename.temp_file "dkindex" ".graph" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Serial.save path g;
            let g' = Serial.load path in
            check_int "nodes" 3 (Data_graph.n_nodes g')));
  ]

(* ------------------------------------------------------------------ *)
(* Dot and builder                                                     *)

let misc_tests =
  [
    test "dot output mentions every node" (fun () ->
        let g = chain_graph [ "a"; "b" ] in
        let dot = Dot.to_dot g in
        check_bool "has a" true
          (Option.is_some (String.index_opt dot 'a'));
        check_bool "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
        check_bool "edge" true
          (let needle = "n0 -> n1" in
           let rec find i =
             i + String.length needle <= String.length dot
             && (String.sub dot i (String.length needle) = needle || find (i + 1))
           in
           find 0));
    test "dot caps nodes" (fun () ->
        let g = random_graph ~seed:4 ~nodes:100 in
        let dot = Dot.to_dot ~max_nodes:10 g in
        check_bool "mentions elision" true
          (let needle = "elided" in
           let rec find i =
             i + String.length needle <= String.length dot
             && (String.sub dot i (String.length needle) = needle || find (i + 1))
           in
           find 0));
    test "builder wires children and values" (fun () ->
        let b = Builder.create () in
        let a = Builder.add_child b ~parent:(Builder.root b) "a" in
        let v = Builder.add_value b ~parent:a in
        let g = Builder.build b in
        check_string "value label" Label.value_name (Data_graph.label_name g v);
        check_bool "edge" true (Data_graph.has_edge g a v));
    test "builder with custom root label" (fun () ->
        let b = Builder.create_with_root "myroot" in
        let g = Builder.build b in
        check_string "root" "myroot" (Data_graph.label_name g 0));
    test "builder can be rebuilt after more additions" (fun () ->
        let b = Builder.create () in
        ignore (Builder.add_child b ~parent:(Builder.root b) "a");
        let g1 = Builder.build b in
        ignore (Builder.add_child b ~parent:(Builder.root b) "b");
        let g2 = Builder.build b in
        check_int "first" 2 (Data_graph.n_nodes g1);
        check_int "second" 3 (Data_graph.n_nodes g2));
    test "build, add more, build again: the first graph is unchanged" (fun () ->
        let b = Builder.create () in
        let a = Builder.add_child b ~parent:0 "a" in
        ignore (Builder.add_value ~text:"va" b ~parent:a);
        Builder.add_edge b a 0;
        let g1 = Builder.build b in
        let before = Serial.to_string g1 in
        (* Enough additions to grow every vector past its first
           capacity, reusing old labels and wiring edges into old
           nodes. *)
        for i = 1 to 3000 do
          let u = Builder.add_child b ~parent:(i mod 3) (if i mod 2 = 0 then "a" else "b") in
          Builder.add_edge b u a;
          if i mod 500 = 0 then Builder.set_value b u (string_of_int i)
        done;
        Builder.add_edge b a a;
        let g2 = Builder.build b in
        check_string "first graph unchanged" before (Serial.to_string g1);
        check_int "first pool unchanged" 3 (Label.Pool.count (Data_graph.pool g1));
        check_int "second nodes" (3 + 3000) (Data_graph.n_nodes g2);
        check_int "second edges" (3 + (2 * 3000) + 1) (Data_graph.n_edges g2);
        check_string "old payload" "va" (Option.get (Data_graph.value g2 2));
        check_string "new payload" "1500" (Option.get (Data_graph.value g2 (2 + 1500)));
        check_bool "self-loop" true (Data_graph.has_edge g2 a a);
        check_bool "not in the first" false (Data_graph.has_edge g1 a a);
        check_string "label of a late node" "b" (Data_graph.label_name g2 (2 + 2999));
        check_int_list "first graph's children of a" [ 0; 2 ] (Data_graph.children g1 a));
    test "builder: edges range-checked at build" (fun () ->
        let b = Builder.create () in
        Builder.add_edge b 0 5;
        Alcotest.check_raises "out of range"
          (Invalid_argument "Data_graph: edge (0, 5) out of range") (fun () ->
            ignore (Builder.build b)));
    test "builder: add_child allocation is flat" (fun () ->
        (* Label code and both edge endpoints are stores into flat int
           arrays; the [Some code] of the pool's lookup is the only
           allocation (2.001 words measured, the rest is the
           measurement's own).  The window stays below the next capacity
           doubling (131072 slots), so growth is not counted. *)
        let b = Builder.create () in
        for i = 1 to 70_000 do
          ignore (Builder.add_child b ~parent:(i - 1) "x")
        done;
        let n = 50_000 in
        let w0 = allocated_words () in
        for i = 70_001 to 70_000 + n do
          ignore (Builder.add_child b ~parent:(i - 1) "x")
        done;
        let per = (allocated_words () -. w0) /. float_of_int n in
        check_bool (Printf.sprintf "%.3f words per add_child" per) true (per < 2.01));
  ]

let () =
  Alcotest.run "graph"
    [
      ("label", label_tests);
      ("data_graph", graph_tests);
      ("graft", graft_tests);
      ("traversal", traversal_tests);
      ("values", value_tests);
      ("serial", serial_tests);
      ("misc", misc_tests);
    ]
