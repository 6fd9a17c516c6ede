open Dkindex_pathexpr
open Testlib
module Label = Dkindex_graph.Label
module Data_graph = Dkindex_graph.Data_graph

let parse = Path_parser.parse
let ast = Alcotest.testable (Fmt.of_to_string Path_ast.to_string) Path_ast.equal

let parser_tests =
  let open Path_ast in
  [
    test "single label" (fun () -> Alcotest.check ast "a" (Label "a") (parse "a"));
    test "wildcard" (fun () -> Alcotest.check ast "_" Any (parse "_"));
    test "sequence" (fun () ->
        Alcotest.check ast "a.b" (Seq (Label "a", Label "b")) (parse "a.b"));
    test "alternation binds looser than sequence" (fun () ->
        Alcotest.check ast "a.b|c"
          (Alt (Seq (Label "a", Label "b"), Label "c"))
          (parse "a.b|c"));
    test "postfix star" (fun () ->
        Alcotest.check ast "a*" (Star (Label "a")) (parse "a*"));
    test "postfix opt" (fun () -> Alcotest.check ast "a?" (Opt (Label "a")) (parse "a?"));
    test "stacked postfix" (fun () ->
        Alcotest.check ast "a*?" (Opt (Star (Label "a"))) (parse "a*?"));
    test "parentheses group" (fun () ->
        Alcotest.check ast "(a|b).c"
          (Seq (Alt (Label "a", Label "b"), Label "c"))
          (parse "(a|b).c"));
    test "star applies to the atom only" (fun () ->
        Alcotest.check ast "a.b*" (Seq (Label "a", Star (Label "b"))) (parse "a.b*"));
    test "grouped star" (fun () ->
        Alcotest.check ast "(a.b)*" (Star (Seq (Label "a", Label "b"))) (parse "(a.b)*"));
    test "whitespace tolerated" (fun () ->
        Alcotest.check ast "spaces" (Seq (Label "a", Label "b")) (parse " a . b "));
    test "the paper's example expression parses" (fun () ->
        Alcotest.check ast "movieDB"
          (Seq (Label "movieDB", Seq (Opt Any, Seq (Label "movie", Seq (Label "actor", Label "name")))))
          (parse "movieDB.(_)?.movie.actor.name"));
    test "xml-ish names" (fun () ->
        Alcotest.check ast "name" (Label "ns:tag-x") (parse "ns:tag-x"));
    test "unbalanced paren fails" (fun () ->
        check_bool "raises" true
          (match parse "(a.b" with _ -> false | exception Path_parser.Parse_error _ -> true));
    test "trailing garbage fails" (fun () ->
        check_bool "raises" true
          (match parse "a)" with _ -> false | exception Path_parser.Parse_error _ -> true));
    test "empty input fails" (fun () ->
        check_bool "raises" true
          (match parse "" with _ -> false | exception Path_parser.Parse_error _ -> true));
    test "dangling dot fails" (fun () ->
        check_bool "raises" true
          (match parse "a." with _ -> false | exception Path_parser.Parse_error _ -> true));
    test "parse_opt returns None on error" (fun () ->
        check_bool "none" true (Option.is_none (Path_parser.parse_opt "|")));
  ]

let ast_tests =
  let open Path_ast in
  [
    test "seq_of_labels builds a left spine" (fun () ->
        Alcotest.check ast "abc" (Seq (Seq (Label "a", Label "b"), Label "c"))
          (seq_of_labels [ "a"; "b"; "c" ]));
    test "seq_of_labels rejects empty" (fun () ->
        check_bool "raises" true
          (match seq_of_labels [] with _ -> false | exception Invalid_argument _ -> true));
    test "as_label_seq inverts seq_of_labels" (fun () ->
        check_string_list "inverse" [ "a"; "b"; "c" ]
          (Option.get (as_label_seq (seq_of_labels [ "a"; "b"; "c" ]))));
    test "as_label_seq refuses stars and wildcards" (fun () ->
        check_bool "star" true (Option.is_none (as_label_seq (parse "a.b*")));
        check_bool "any" true (Option.is_none (as_label_seq (parse "a._"))));
    test "max_word_length of a plain path" (fun () ->
        check_int "3" 3 (Option.get (max_word_length (parse "a.b.c"))));
    test "max_word_length takes the longer alternative" (fun () ->
        check_int "alt" 2 (Option.get (max_word_length (parse "a|b.c"))));
    test "max_word_length of opt keeps the inner bound" (fun () ->
        check_int "opt" 3 (Option.get (max_word_length (parse "a.b?.c"))));
    test "max_word_length unbounded under star" (fun () ->
        check_bool "none" true (Option.is_none (max_word_length (parse "a.b*"))));
    test "min_word_length" (fun () ->
        check_int "path" 3 (min_word_length (parse "a.b.c"));
        check_int "star free" 1 (min_word_length (parse "a.b*"));
        check_int "alt" 1 (min_word_length (parse "a|b.c")));
    test "labels lists distinct names in order" (fun () ->
        check_string_list "labels" [ "a"; "b"; "c" ] (labels (parse "a.b|a.c*")));
    test "pp / parse round trip" (fun () ->
        List.iter
          (fun s ->
            let e = parse s in
            Alcotest.check ast s e (parse (to_string e)))
          [ "a"; "a.b.c"; "a|b|c"; "(a|b).c*"; "a?.b"; "_.a._"; "movieDB.(_)?.movie" ]);
  ]

let bitset_tests =
  [
    test "add and mem" (fun () ->
        let s = Bitset.create 100 in
        Bitset.add s 0;
        Bitset.add s 63;
        Bitset.add s 99;
        check_bool "0" true (Bitset.mem s 0);
        check_bool "63" true (Bitset.mem s 63);
        check_bool "99" true (Bitset.mem s 99);
        check_bool "50" false (Bitset.mem s 50));
    test "out of range raises" (fun () ->
        let s = Bitset.create 10 in
        check_bool "raises" true
          (match Bitset.add s 10 with _ -> false | exception Invalid_argument _ -> true));
    test "cardinal and is_empty" (fun () ->
        let s = Bitset.create 70 in
        check_bool "empty" true (Bitset.is_empty s);
        Bitset.add s 1;
        Bitset.add s 65;
        check_int "two" 2 (Bitset.cardinal s);
        check_bool "not empty" false (Bitset.is_empty s));
    test "union_into reports change" (fun () ->
        let a = Bitset.create 10 and b = Bitset.create 10 in
        Bitset.add b 3;
        check_bool "changed" true (Bitset.union_into ~dst:a b);
        check_bool "unchanged" false (Bitset.union_into ~dst:a b);
        check_bool "member" true (Bitset.mem a 3));
    test "subset" (fun () ->
        let a = Bitset.create 10 and b = Bitset.create 10 in
        Bitset.add a 1;
        Bitset.add b 1;
        Bitset.add b 2;
        check_bool "a <= b" true (Bitset.subset a b);
        check_bool "b <= a" false (Bitset.subset b a));
    test "inter_nonempty" (fun () ->
        let a = Bitset.create 10 and b = Bitset.create 10 in
        Bitset.add a 4;
        Bitset.add b 5;
        check_bool "disjoint" false (Bitset.inter_nonempty a b);
        Bitset.add b 4;
        check_bool "overlap" true (Bitset.inter_nonempty a b));
    test "iter ascends" (fun () ->
        let s = Bitset.create 80 in
        List.iter (Bitset.add s) [ 70; 3; 41 ];
        let seen = ref [] in
        Bitset.iter s (fun i -> seen := i :: !seen);
        check_int_list "sorted" [ 3; 41; 70 ] (List.rev !seen));
    test "clear and copy" (fun () ->
        let s = Bitset.create 10 in
        Bitset.add s 5;
        let c = Bitset.copy s in
        Bitset.clear s;
        check_bool "cleared" true (Bitset.is_empty s);
        check_bool "copy kept" true (Bitset.mem c 5));
    test "capacity mismatch raises" (fun () ->
        let a = Bitset.create 10 and b = Bitset.create 20 in
        check_bool "raises" true
          (match Bitset.subset a b with _ -> false | exception Invalid_argument _ -> true));
  ]

(* NFA acceptance against the reference word matcher. *)
let nfa_tests =
  let pool = Label.Pool.create () in
  let l name = Label.Pool.intern pool name in
  let a = l "a" and b = l "b" and c = l "c" in
  let accepts expr word = Nfa.accepts_word (Nfa.compile pool (parse expr)) word in
  [
    test "label matches itself only" (fun () ->
        check_bool "a" true (accepts "a" [ a ]);
        check_bool "b" false (accepts "a" [ b ]);
        check_bool "empty" false (accepts "a" []));
    test "sequence order matters" (fun () ->
        check_bool "ab" true (accepts "a.b" [ a; b ]);
        check_bool "ba" false (accepts "a.b" [ b; a ]);
        check_bool "a" false (accepts "a.b" [ a ]));
    test "alternation" (fun () ->
        check_bool "a" true (accepts "a|b" [ a ]);
        check_bool "b" true (accepts "a|b" [ b ]);
        check_bool "c" false (accepts "a|b" [ c ]));
    test "star accepts zero and many" (fun () ->
        check_bool "empty" true (accepts "a*" []);
        check_bool "aaa" true (accepts "a*" [ a; a; a ]);
        check_bool "aab" false (accepts "a*" [ a; a; b ]));
    test "opt" (fun () ->
        check_bool "empty" true (accepts "a?" []);
        check_bool "a" true (accepts "a?" [ a ]);
        check_bool "aa" false (accepts "a?" [ a; a ]));
    test "wildcard matches any label" (fun () ->
        check_bool "a" true (accepts "_" [ a ]);
        check_bool "c" true (accepts "_" [ c ]));
    test "composite expression" (fun () ->
        check_bool "a c b" true (accepts "a.(b|c)*.b" [ a; c; b ]);
        check_bool "a b" true (accepts "a.(b|c)*.b" [ a; b ]);
        check_bool "a" false (accepts "a.(b|c)*.b" [ a ]));
    test "unknown label can never match" (fun () ->
        check_bool "ghost" false (accepts "ghost" [ a ]));
    test "agrees with the reference matcher on an exhaustive word set" (fun () ->
        let exprs =
          List.map parse [ "a"; "a.b"; "a|b"; "a*"; "a?.b"; "(a|b).c"; "a.(b.c)*"; "_.b" ]
        in
        let alphabet = [ ("a", a); ("b", b); ("c", c) ] in
        (* All words of length <= 3. *)
        let words =
          let rec gen n = if n = 0 then [ [] ] else
            List.concat_map (fun w -> List.map (fun s -> s :: w) alphabet) (gen (n - 1))
          in
          List.concat_map gen [ 0; 1; 2; 3 ]
        in
        List.iter
          (fun expr ->
            let nfa = Nfa.compile pool expr in
            List.iter
              (fun word ->
                let names = List.map fst word and codes = List.map snd word in
                check_bool
                  (Printf.sprintf "%s on %s" (Path_ast.to_string expr) (String.concat "." names))
                  (word_in_lang expr names)
                  (Nfa.accepts_word nfa codes))
              words)
          exprs);
  ]

let matcher_tests =
  [
    test "eval_label_path on the movie graph" (fun () ->
        let m = movie_graph () in
        let q = labels_of_strings m.g [ "director"; "movie"; "title" ] in
        let result = Matcher.eval_label_path m.g q ~cost:(Cost.create ()) in
        check_int_list "titles" (List.sort compare [ m.title1; m.title2 ]) result);
    test "eval_label_path crosses reference edges" (fun () ->
        let m = movie_graph () in
        let q = labels_of_strings m.g [ "actor"; "movie"; "title" ] in
        let result = Matcher.eval_label_path m.g q ~cost:(Cost.create ()) in
        check_int_list "titles" (List.sort compare [ m.title1; m.title3 ]) result);
    test "eval_label_path counts visits" (fun () ->
        let m = movie_graph () in
        let cost = Cost.create () in
        ignore (Matcher.eval_label_path m.g (labels_of_strings m.g [ "movie"; "title" ]) ~cost);
        check_bool "visited something" true (cost.Cost.data_visits > 0);
        check_int "no index visits" 0 cost.Cost.index_visits);
    test "eval_nfa agrees with eval_label_path on plain paths" (fun () ->
        let g = random_graph ~seed:12 ~nodes:200 in
        let queries = Dkindex_workload.Query_gen.generate ~seed:12 ~count:15 g in
        let pool = Data_graph.pool g in
        List.iter
          (fun q ->
            let by_path = Matcher.eval_label_path g q ~cost:(Cost.create ()) in
            let names = Array.to_list (Array.map (Label.Pool.name pool) q) in
            let nfa = Nfa.compile pool (Path_ast.seq_of_labels names) in
            let by_nfa = Matcher.eval_nfa g nfa ~cost:(Cost.create ()) in
            check_int_list "same" by_path by_nfa)
          queries);
    test "eval_nfa handles cycles under star" (fun () ->
        let g, a, bb, _c = cyclic_graph () in
        let pool = Data_graph.pool g in
        let nfa = Nfa.compile pool (parse "a.(b.a)*") in
        let result = Matcher.eval_nfa g nfa ~cost:(Cost.create ()) in
        check_bool "a in" true (List.mem a result);
        check_bool "b out" false (List.mem bb result));
    test "path validator accepts true matches and rejects others" (fun () ->
        let m = movie_graph () in
        let q = labels_of_strings m.g [ "director"; "movie"; "title" ] in
        let validator = Matcher.make_path_validator m.g q ~cost:(Cost.create ()) in
        check_bool "title1" true (validator m.title1);
        check_bool "title3 not under a director" false (validator m.title3);
        check_bool "a movie is not a title" false (validator m.movie1));
    test "path validator memoizes across candidates" (fun () ->
        let g = chain_graph [ "a"; "b"; "b" ] in
        let q = labels_of_strings g [ "ROOT"; "a"; "b" ] in
        let cost = Cost.create () in
        let validator = Matcher.make_path_validator g q ~cost in
        ignore (validator 2);
        let after_first = cost.Cost.data_visits in
        ignore (validator 2);
        check_int "no growth on repeat" after_first cost.Cost.data_visits);
    test "node_matches_nfa agrees with full evaluation" (fun () ->
        let g = random_graph ~seed:13 ~nodes:120 in
        let pool = Data_graph.pool g in
        let expr = parse "l0.(l1|l2)._" in
        let nfa = Nfa.compile pool expr in
        let all = Matcher.eval_nfa g nfa ~cost:(Cost.create ()) in
        Data_graph.iter_nodes g (fun u ->
            let expected = List.mem u all in
            let got = Matcher.node_matches_nfa g nfa ~node:u ~cost:(Cost.create ()) in
            check_bool (Printf.sprintf "node %d" u) expected got));
    test "empty query returns nothing" (fun () ->
        let m = movie_graph () in
        check_int_list "empty" [] (Matcher.eval_label_path m.g [||] ~cost:(Cost.create ())));
  ]

let cost_tests =
  [
    test "cost accumulates and totals" (fun () ->
        let c = Cost.create () in
        Cost.visit_index c;
        Cost.visit_data c;
        Cost.visit_data c;
        check_int "total" 3 (Cost.total c);
        let acc = Cost.create () in
        Cost.add acc c;
        Cost.add acc c;
        check_int "acc" 6 (Cost.total acc));
  ]

let () =
  Alcotest.run "pathexpr"
    [
      ("parser", parser_tests);
      ("ast", ast_tests);
      ("bitset", bitset_tests);
      ("nfa", nfa_tests);
      ("matcher", matcher_tests);
      ("cost", cost_tests);
    ]
