(* Out-of-core tier tests: the on-disk container format, mmap-backed
   graphs, streaming datagen byte-identity, the external-memory
   refinement path, and index-container persistence. *)

open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
open Testlib
module Query_gen = Dkindex_workload.Query_gen
module Prng = Dkindex_datagen.Prng

let to_alcotest = QCheck_alcotest.to_alcotest

let with_tmp_dir f =
  let dir = Filename.temp_file "dkcont" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let flip_byte path pos =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let truncate_to path len =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

let expect_error what f =
  match f () with
  | exception Container.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected Container.Error" what

(* --------------------------------------------------------------- *)
(* Round-trip                                                        *)

let graph_params =
  QCheck.make
    ~print:(fun (seed, nodes, extra) ->
      Printf.sprintf "seed=%d nodes=%d extra=%d" seed nodes extra)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 2 150) (int_bound 50))

let prop_roundtrip =
  QCheck.Test.make ~name:"container round-trip preserves the graph exactly" ~count:60
    graph_params (fun (seed, nodes, extra) ->
      let g =
        Dkindex_datagen.Random_graph.graph ~seed ~nodes ~n_labels:5 ~extra_edges:extra
          ~value_fraction:0.3 ()
      in
      with_tmp_dir (fun dir ->
          let path = Filename.concat dir "g.dkc" in
          Container.save_graph g path;
          let g' = Container.open_graph ~verify:true path in
          (* The text serialization is canonical: equal strings iff equal
             graphs (nodes, labels, edges, values). *)
          String.equal (Serial.to_string g) (Serial.to_string g')))

let roundtrip_tests =
  [
    to_alcotest prop_roundtrip;
    test "probe classifies files" (fun () ->
        with_tmp_dir (fun dir ->
            let gp = Filename.concat dir "g.dkc" in
            let g = Dkindex_datagen.Random_graph.graph ~seed:31 ~nodes:40 ~n_labels:3 ~extra_edges:5 () in
            Container.save_graph g gp;
            (match Container.probe gp with
            | Some Container.Graph -> ()
            | _ -> Alcotest.fail "expected Some Graph");
            let ip = Filename.concat dir "i.dkc" in
            Index_serial.save_container ip (Label_split.build g);
            (match Container.probe ip with
            | Some Container.Index -> ()
            | _ -> Alcotest.fail "expected Some Index");
            let tp = Filename.concat dir "t.graph" in
            Serial.save tp g;
            check_bool "text graph is not a container" true (Container.probe tp = None);
            check_bool "missing file" true (Container.probe (Filename.concat dir "nope") = None)));
    test "a mapped graph accepts updates like a heap graph" (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "g.dkc" in
            let g0 = Dkindex_datagen.Xmark.graph ~seed:32 ~scale:8 () in
            Container.save_graph g0 path;
            let g = Container.open_graph path in
            let n = Data_graph.n_nodes g in
            let rng = Prng.create ~seed:33 in
            for _ = 1 to 50 do
              let u = Prng.int rng n and v = 1 + Prng.int rng (n - 1) in
              if not (Data_graph.has_edge g0 u v) then begin
                Data_graph.add_edge g0 u v;
                Data_graph.add_edge g u v
              end
            done;
            check_string "updated graphs equal" (Serial.to_string g0) (Serial.to_string g)));
  ]

(* --------------------------------------------------------------- *)
(* Corruption and truncation                                         *)

let corruption_tests =
  [
    test "bad magic, truncation, header and body corruption are typed errors" (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "g.dkc" in
            let g = Dkindex_datagen.Xmark.graph ~seed:41 ~scale:8 () in
            Container.save_graph g path;
            let bytes = read_file path in
            let len = String.length bytes in
            let restore () =
              let oc = open_out_bin path in
              output_string oc bytes;
              close_out oc
            in
            (* Not a container at all. *)
            let junk = Filename.concat dir "junk" in
            let oc = open_out_bin junk in
            output_string oc (String.init 4096 (fun i -> Char.chr (33 + (i mod 90))));
            close_out oc;
            (match Container.open_graph junk with
            | exception Container.Error Container.Bad_magic -> ()
            | _ -> Alcotest.fail "expected Bad_magic");
            (* Truncations at every interesting boundary are caught at
               open time, before any section is read. *)
            List.iter
              (fun keep ->
                restore ();
                truncate_to path keep;
                expect_error (Printf.sprintf "truncate to %d" keep) (fun () ->
                    Container.open_graph path))
              [ 0; 4; 39; 4095; len / 2; len - 1 ];
            (* A flipped header byte fails the header CRC. *)
            restore ();
            flip_byte path 16;
            (match Container.open_graph path with
            | exception Container.Error _ -> ()
            | _ -> Alcotest.fail "header flip undetected");
            (* A flipped section-body byte fails ~verify.  Sections are
               page-aligned, so the first body byte is at 4096 (the
               label pool, never empty); padding between sections is
               not CRC'd, so flip inside the body proper. *)
            restore ();
            flip_byte path 4100;
            (match Container.open_graph ~verify:true path with
            | exception Container.Error (Container.Crc_mismatch _) -> ()
            | exception Container.Error _ -> ()
            | _ -> Alcotest.fail "body flip undetected under verify");
            (* Kind confusion is typed. *)
            restore ();
            (match Index_serial.load_container path with
            | exception Container.Error (Container.Bad_kind _) -> ()
            | _ -> Alcotest.fail "expected Bad_kind")));
    test "index container corruption is rejected" (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "i.dkc" in
            let g = Dkindex_datagen.Xmark.graph ~seed:42 ~scale:8 () in
            let idx = Dk_index.build g ~reqs:[ ("item", 2) ] in
            Index_serial.save_container path idx;
            let len = (Unix.stat path).Unix.st_size in
            flip_byte path (len / 2);
            match Index_serial.load_container ~verify:true path with
            | exception Container.Error _ -> ()
            | _ -> Alcotest.fail "expected Container.Error"));
  ]

(* --------------------------------------------------------------- *)
(* Streaming byte-identity                                           *)

let streaming_tests =
  let check_identical name saved streamed =
    check_string (name ^ ": streamed container is byte-identical")
      (Digest.to_hex (Digest.file saved))
      (Digest.to_hex (Digest.file streamed));
    check_bool (name ^ ": reopens under full verification") true
      (Serial.to_string (Container.open_graph ~verify:true streamed) <> "")
  in
  [
    test "xmark: stream = materialize + save, spills forced" (fun () ->
        with_tmp_dir (fun dir ->
            let saved = Filename.concat dir "saved.dkc" in
            let streamed = Filename.concat dir "streamed.dkc" in
            Container.save_graph (Dkindex_datagen.Xmark.graph ~seed:51 ~scale:12 ()) saved;
            (* A 4K-word budget forces the external sorter to spill runs
               even at this scale. *)
            ignore
              (Dkindex_datagen.Xmark.stream ~seed:51 ~scale:12 ~mem_budget:(1 lsl 12)
                 ~tmp_dir:dir ~path:streamed ());
            check_identical "xmark" saved streamed));
    test "nasa: stream = materialize + save" (fun () ->
        with_tmp_dir (fun dir ->
            let saved = Filename.concat dir "saved.dkc" in
            let streamed = Filename.concat dir "streamed.dkc" in
            Container.save_graph (Dkindex_datagen.Nasa.graph ~seed:52 ~scale:10 ()) saved;
            ignore
              (Dkindex_datagen.Nasa.stream ~seed:52 ~scale:10 ~mem_budget:(1 lsl 12)
                 ~tmp_dir:dir ~path:streamed ());
            check_identical "nasa" saved streamed));
    test "random: stream = materialize + save" (fun () ->
        with_tmp_dir (fun dir ->
            let saved = Filename.concat dir "saved.dkc" in
            let streamed = Filename.concat dir "streamed.dkc" in
            Container.save_graph
              (Dkindex_datagen.Random_graph.graph ~seed:53 ~nodes:3000 ~n_labels:8
                 ~extra_edges:900 ~value_fraction:0.2 ())
              saved;
            Dkindex_datagen.Random_graph.stream ~seed:53 ~nodes:3000 ~n_labels:8
              ~extra_edges:900 ~value_fraction:0.2 ~mem_budget:(1 lsl 12) ~tmp_dir:dir
              ~path:streamed ();
            check_identical "random" saved streamed));
  ]

(* --------------------------------------------------------------- *)
(* Mapped vs in-RAM equivalence through churn                        *)

let equivalence_tests =
  let run_case name g =
    with_tmp_dir (fun dir ->
        let path = Filename.concat dir "g.dkc" in
        Container.save_graph g path;
        let gm = Container.open_graph path in
        let queries = Query_gen.generate ~seed:61 ~count:30 ~min_len:2 ~max_len:4 g in
        let reqs = Dkindex_workload.Miner.mine g queries in
        let idx_ram = Dk_index.build g ~reqs in
        let idx_map = Dk_index.build gm ~reqs in
        let check_all tag =
          List.iter
            (fun q ->
              let a = Query_eval.eval_path idx_ram q in
              let b = Query_eval.eval_path idx_map q in
              check_int_list
                (Printf.sprintf "%s/%s" name tag)
                a.Query_eval.nodes b.Query_eval.nodes)
            queries
        in
        check_bool (name ^ ": same partition") true
          (Index_graph.partition_signature idx_ram = Index_graph.partition_signature idx_map);
        check_all "fresh";
        (* Identical churn on both sides: the mapped graph migrates to
           its heap overflow layer, answers must stay in lockstep. *)
        let n = Data_graph.n_nodes g in
        let rng = Prng.create ~seed:62 in
        let added = ref [] in
        for _ = 1 to 40 do
          let u = Prng.int rng n and v = 1 + Prng.int rng (n - 1) in
          if not (Data_graph.has_edge g u v) then begin
            Dk_update.add_edge idx_ram u v;
            Dk_update.add_edge idx_map u v;
            added := (u, v) :: !added
          end
        done;
        List.iteri
          (fun i (u, v) ->
            if i mod 2 = 0 then begin
              Dk_update.remove_edge idx_ram u v;
              Dk_update.remove_edge idx_map u v
            end)
          !added;
        check_all "churned";
        Index_graph.check_invariants idx_map)
  in
  [
    test "xmark: mapped index answers = in-RAM through churn" (fun () ->
        run_case "xmark" (Dkindex_datagen.Xmark.graph ~seed:63 ~scale:12 ()));
    test "nasa: mapped index answers = in-RAM through churn" (fun () ->
        run_case "nasa" (Dkindex_datagen.Nasa.graph ~seed:64 ~scale:10 ()));
  ]

(* --------------------------------------------------------------- *)
(* External-memory refinement and index persistence                  *)

let external_tests =
  [
    test "external refine partition = in-RAM on every builder" (fun () ->
        List.iter
          (fun (name, g) ->
            let queries = Query_gen.generate ~seed:71 ~count:25 g in
            let reqs = Dkindex_workload.Miner.mine g queries in
            (* to_string covers the partition, k/req values and the
               full index adjacency, so this also pins the external
               edge projection to the in-RAM CSR bit for bit. *)
            let pairs =
              [
                ( Index_serial.to_string (Dk_index.build ~mode:`In_ram g ~reqs),
                  Index_serial.to_string (Dk_index.build ~mode:`External g ~reqs) );
                ( Index_serial.to_string (A_k_index.build ~mode:`In_ram g ~k:2),
                  Index_serial.to_string (A_k_index.build ~mode:`External g ~k:2) );
                ( Index_serial.to_string (One_index.build ~mode:`In_ram g),
                  Index_serial.to_string (One_index.build ~mode:`External g) );
              ]
            in
            List.iteri
              (fun i (a, b) ->
                check_bool (Printf.sprintf "%s builder %d" name i) true (String.equal a b))
              pairs)
          [
            ("xmark", Dkindex_datagen.Xmark.graph ~seed:72 ~scale:10 ());
            ("random", random_graph ~seed:73 ~nodes:300);
          ]);
    test "index container round-trips partition, k/req and adjacency" (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "i.dkc" in
            let g = Dkindex_datagen.Xmark.graph ~seed:74 ~scale:10 () in
            let queries = Query_gen.generate ~seed:75 ~count:30 g in
            let idx = Dk_index.build g ~reqs:(Dkindex_workload.Miner.mine g queries) in
            Index_serial.save_container path idx;
            let idx' = Index_serial.load_container ~verify:true path in
            Index_graph.check_invariants idx';
            check_int "n_nodes" (Index_graph.n_nodes idx) (Index_graph.n_nodes idx');
            check_int "n_edges" (Index_graph.n_edges idx) (Index_graph.n_edges idx');
            check_bool "partition" true
              (Index_graph.partition_signature idx = Index_graph.partition_signature idx');
            (* Same answers, and the same text serialization as the
               established format. *)
            List.iter
              (fun q ->
                check_int_list "answers"
                  (Query_eval.eval_path idx q).Query_eval.nodes
                  (Query_eval.eval_path idx' q).Query_eval.nodes)
              queries;
            check_string "text form" (Index_serial.to_string idx) (Index_serial.to_string idx')));
    test "a loaded index container takes edge churn like its in-RAM copy" (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "i.dkc" in
            let g = Dkindex_datagen.Xmark.graph ~seed:76 ~scale:10 () in
            let queries = Query_gen.generate ~seed:77 ~count:30 g in
            let reqs = Dkindex_workload.Miner.mine g queries in
            Index_serial.save_container path (Dk_index.build g ~reqs);
            let bytes = read_file path in
            (* The data CSR and the index CSR are both views of the
               mapping; the copy lives on the heap. *)
            let mapped = Index_serial.load_container path in
            let ram = Index_graph.copy mapped in
            let both f =
              f ram;
              f mapped
            in
            let same tag =
              List.iter
                (fun q ->
                  check_int_list tag
                    (Query_eval.eval_path ram q).Query_eval.nodes
                    (Query_eval.eval_path mapped q).Query_eval.nodes)
                queries
            in
            let data = Index_graph.data mapped in
            let n = Data_graph.n_nodes data in
            let rng = Prng.create ~seed:78 in
            let added = ref [] in
            for round = 1 to 90 do
              let u = Prng.int rng n and v = 1 + Prng.int rng (n - 1) in
              (match (round mod 3, !added) with
              | 0, (a, b) :: rest ->
                both (fun idx -> Dk_update.remove_edge idx a b);
                added := rest
              | 1, _ -> (
                (* An edge of the file: a tombstone in the mapped CSR. *)
                match Data_graph.children data u with
                | c :: _ -> both (fun idx -> Dk_update.remove_edge idx u c)
                | [] -> ())
              | _ ->
                if not (Data_graph.has_edge data u v) then begin
                  both (fun idx -> Dk_update.add_edge idx u v);
                  added := (u, v) :: !added
                end);
              if round mod 30 = 0 then same "churned"
            done;
            (* Promotion splits classes: whole CSR runs of the mapped
               index get tombstoned and fresh ids join the overflow. *)
            let before = Index_graph.max_id mapped in
            both Dk_tune.promote_to_requirements;
            check_bool "promotion split classes" true (Index_graph.max_id mapped > before);
            same "promoted";
            Index_graph.check_invariants mapped;
            check_string "same text" (Index_serial.to_string ram) (Index_serial.to_string mapped);
            check_bool "file unchanged" true (String.equal bytes (read_file path))));
  ]

let () =
  Alcotest.run "container"
    [
      ("round-trip", roundtrip_tests);
      ("corruption", corruption_tests);
      ("streaming", streaming_tests);
      ("mmap-vs-ram", equivalence_tests);
      ("external-refine", external_tests);
    ]
