open Dkindex_datagen
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Xml_sax = Dkindex_xml.Xml_sax
module Xml_to_graph = Dkindex_xml.Xml_to_graph

(* [graph] feeds the generator's events straight into the builder; the
   tree route collects the same events into a document ([doc]), replays
   it and converts that.  Both must give the same graph, byte for
   byte. *)
let graph_is_tree_route ~config ~doc ~graph =
  let tree : Dkindex_xml.Xml_ast.doc = doc () in
  let via_tree = (Xml_to_graph.convert ~config (Xml_sax.emit_tree tree.root)).graph in
  check_string "Serial.to_string"
    (Dkindex_graph.Serial.to_string via_tree)
    (Dkindex_graph.Serial.to_string (graph ()))

(* The first 64 draws of [int max_int], [float 1.0] and [bool 0.5] (each
   from a fresh generator) for seeds 1 and 42, recorded from the boxed
   [int64] implementation this one replaced.  Every dataset is a
   function of these streams, so they must not move by a bit. *)
let prng_golden =
  [
    ( 1,
      [|
        2612804094800205616; 3439311302766607129; 4477959822570722647; 2049245188455445058;
        2048809309281742190; 3518229400716132512; 4046056672035966761; 2412221600017015133;
        1316676407973089130; 3661663045011659237; 1863776790465844184; 2792008650874675967;
        2098030787133347696; 2444557901440084130; 2010535538889790954; 770312924007649934;
        2976080737507164888; 3760140885435280060; 3143809294431675003; 4078227225428351298;
        304187700502225361; 375458821562863911; 2286842639562384371; 567739532636373419;
        1323145083568696935; 220905215188921789; 2377415898501913677; 3291686831833972202;
        201753311246218057; 4601300005926624738; 2757106507520767009; 2705192615808197230;
        1831619907909962523; 2024468963466360839; 1168016233937567493; 2443074741615968195;
        2507238978215934013; 3450626404420244720; 3772513647100356422; 3083250903618602191;
        3974481450645818145; 3265900347994376769; 1090020573985382488; 3026352214955393004;
        4007135219679336480; 3870732499490578318; 1496184191253633559; 734085066574227429;
        4122566125614386204; 4209040466995017054; 1392066365408313693; 606828435927674809;
        1501950738515540542; 4335786910169597412; 1815446266559517347; 404587060835679019;
        2799522774030442155; 717013418320700723; 4419526762195327124; 4038062713024508436;
        2427849681724289925; 315300964529434079; 3469608586270031855; 2462946970009318550;
      |],
      [|
        0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1; 0x1.c7061a43b90b2p-2;
        0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1; 0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1;
        0x1.245c6378d5f8ep-2; 0x1.9686b91ce8c2cp-1; 0x1.9dd771dc05592p-2; 0x1.35f9a89a299f1p-1;
        0x1.d1db3e292ea96p-2; 0x1.0f6683ad21af4p-1; 0x1.be6db6b9bd314p-2; 0x1.561670bd2bca4p-3;
        0x1.4a694d4d6ffa1p-1; 0x1.a175a1b4ae575p-1; 0x1.5d086f2c615f1p-1; 0x1.c4c6306ee7decp-1;
        0x1.0e2c46865e98p-4; 0x1.4d7973c5c2a4p-4; 0x1.fbc7f43b45522p-2; 0x1.f8410633ef3p-4;
        0x1.25cc171746aaep-2; 0x1.88680fb82ef6p-5; 0x1.07f2394f0c94ep-1; 0x1.6d735dde1a5bep-1;
        0x1.6662c8a88b79p-5; 0x1.fed8cfd03212ep-1; 0x1.3219ae16258bap-1; 0x1.2c5632cf920f1p-1;
        0x1.96b389a1681cap-2; 0x1.c185bcbd23738p-2; 0x1.035a0938bbcfep-2; 0x1.0f3c5c44adfdfp-1;
        0x1.165c0488bc97cp-1; 0x1.7f18b376006aap-1; 0x1.a2d549652dd73p-1; 0x1.564f42e37cb62p-1;
        0x1.b9418e92c0fc5p-1; 0x1.6a967881103c5p-1; 0x1.e410fdfac884p-3; 0x1.4ffe1a710d0ffp-1;
        0x1.bce1a2033f8ccp-1; 0x1.adbcd59a2590fp-1; 0x1.4c38398463a5ap-2; 0x1.45ffcf51826ccp-3;
        0x1.c9b26064426e6p-1; 0x1.d34c2008c3dbap-1; 0x1.3519cfbddee8p-2; 0x1.0d7c67ea6265cp-3;
        0x1.4d8003d2f5abap-2; 0x1.e15e79c853942p-1; 0x1.931c2c2c316d2p-2; 0x1.67587272751e8p-4;
        0x1.36cf390b359afp-1; 0x1.3e6afcf646348p-3; 0x1.eaaa81657fe0cp-1; 0x1.c050a524b49b9p-1;
        0x1.0d8ba360b9c59p-1; 0x1.180b23a1075bp-4; 0x1.81343502f229fp-1; 0x1.117129c2803dap-1;
      |],
      "0001100010101011000011111100100011100000001000110011101101000100" );
    ( 42,
      [|
        3419864383188818853; 737456523031723072; 1284820937115690964; 1587299515064563941;
        175383196535490812; 4003995281415747265; 1007216178194406231; 3692262831746943977;
        1567655219403120501; 2852245098062667243; 944942912856573551; 2273511335365284911;
        2367621691557777849; 2398138063176555373; 3067506354810381239; 938178849217121532;
        477651854551395997; 2285084233936398215; 430859011926661761; 3177204353049865752;
        4414883413611604218; 336901045567871910; 2766164462476100981; 2858410777199325732;
        342006375497199188; 1280053605451446596; 3421775590846900749; 3622476874840434247;
        4343873076924128065; 3201329013802276752; 3642808914686572125; 3876198108700822295;
        2984197237500362023; 3607059222869762039; 2940084334279340181; 1752546149723282320;
        290651484597720388; 1226952108956874448; 3510439009745065936; 424122776856492001;
        2445365579124836936; 733511304702777934; 1259287423025466211; 3573056492278459332;
        3081965059401924620; 1482155715483493362; 389603431186127146; 657174018759695413;
        2328307289383524059; 4470435784800609083; 1697869165546008272; 869291083978920962;
        711687403797154633; 1476439861303026646; 120262113433714317; 3793122409290085650;
        3153085783426768512; 2563936005725256238; 4035869214914538988; 148774289333654318;
        1195107514079101957; 4449367053021837985; 2810877312636527825; 207010504649485994;
      |],
      [|
        0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2;
        0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1;
        0x1.5c16e1dc2cf5ep-2; 0x1.3ca9ae7052feep-1; 0x1.a3a39253bad8cp-3; 0x1.f8d2283914594p-2;
        0x1.06dbdb12fe7c8p-1; 0x1.0a3f2ee68fdadp-1; 0x1.548fc63805cf1p-1; 0x1.a0a2962a6be18p-3;
        0x1.a83d752f35eb8p-4; 0x1.fb64000fd9fe6p-2; 0x1.7eadff448a868p-4; 0x1.60bd943452e57p-1;
        0x1.ea268896c8ab4p-1; 0x1.2b3a6dd261f68p-4; 0x1.331b1f6201942p-1; 0x1.3d58eba8a8e99p-1;
        0x1.2fc33f229b7b8p-4; 0x1.1c3a9f8de6438p-2; 0x1.7be4b62a0c415p-1; 0x1.922cfc331f733p-1;
        0x1.e2444c639b90dp-1; 0x1.636b3e36a6b0bp-1; 0x1.946edb428427bp-1; 0x1.ae582d24a13a5p-1;
        0x1.4b4ffc9cc749ep-1; 0x1.9076ca047796fp-1; 0x1.466a38ff93498p-1; 0x1.8524b7012bc1ap-2;
        0x1.02267f0f38c5p-4; 0x1.107027142ca76p-2; 0x1.85bcad712c3abp-1; 0x1.78b25ac7ebbd8p-4;
        0x1.0f7d784e0da05p-1; 0x1.45be94a6715b4p-3; 0x1.179e33d3f8ccap-2; 0x1.8cb05f9745495p-1;
        0x1.562ab723fe8ap-1; 0x1.491acc53b3562p-2; 0x1.5a099069c7d6p-4; 0x1.23d80938f9338p-3;
        0x1.027e79267d42bp-1; 0x1.f0516d4981e11p-1; 0x1.7900b02a7756ep-2; 0x1.820af4535f4a8p-3;
        0x1.3c0d7d89ce614p-3; 0x1.47d5e3b3931a2p-2; 0x1.ab41c147277ep-6; 0x1.a51f05e01a79ap-1;
        0x1.5e1016839be4fp-1; 0x1.1ca771b400b3dp-1; 0x1.c0124d5817536p-1; 0x1.0846b6c5b8c9p-5;
        0x1.095dff3bd15c4p-2; 0x1.edfa9e16758bdp-1; 0x1.3811f02f773d2p-1; 0x1.6fb97a853417p-5;
      |],
      "0111101010110001111001001100000000011101011001110011111000011001" );
  ]

let prng_tests =
  [
    test "first 64 int, float and bool draws for seeds 1 and 42" (fun () ->
        List.iter
          (fun (seed, ints, floats, bools) ->
            let draws f = let r = Prng.create ~seed in Array.init 64 (fun _ -> f r) in
            Alcotest.(check (array int)) (Printf.sprintf "seed %d ints" seed) ints
              (draws (fun r -> Prng.int r max_int));
            Alcotest.(check (array (float 0.0))) (Printf.sprintf "seed %d floats" seed) floats
              (draws (fun r -> Prng.float r 1.0));
            Alcotest.(check string) (Printf.sprintf "seed %d bools" seed) bools
              (String.init 64 (let r = Prng.create ~seed in fun _ -> if Prng.bool r 0.5 then '1' else '0')))
          prng_golden);
    test "same seed, same stream" (fun () ->
        let a = Prng.create ~seed:5 and b = Prng.create ~seed:5 in
        for _ = 1 to 50 do
          check_bool "equal" true (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b))
        done);
    test "different seeds diverge" (fun () ->
        let a = Prng.create ~seed:5 and b = Prng.create ~seed:6 in
        check_bool "diverge" false (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)));
    test "copy forks the stream" (fun () ->
        let a = Prng.create ~seed:5 in
        ignore (Prng.next_int64 a);
        let b = Prng.copy a in
        check_bool "same next" true (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)));
    test "int respects its bound" (fun () ->
        let rng = Prng.create ~seed:1 in
        for _ = 1 to 1000 do
          let v = Prng.int rng 7 in
          check_bool "in range" true (v >= 0 && v < 7)
        done);
    test "int hits every residue" (fun () ->
        let rng = Prng.create ~seed:2 in
        let seen = Array.make 5 false in
        for _ = 1 to 500 do
          seen.(Prng.int rng 5) <- true
        done;
        Array.iteri (fun i s -> check_bool (Printf.sprintf "residue %d" i) true s) seen);
    test "int rejects non-positive bounds" (fun () ->
        let rng = Prng.create ~seed:1 in
        check_bool "raises" true
          (match Prng.int rng 0 with _ -> false | exception Invalid_argument _ -> true));
    test "range is inclusive on both ends" (fun () ->
        let rng = Prng.create ~seed:3 in
        let lo = ref max_int and hi = ref min_int in
        for _ = 1 to 500 do
          let v = Prng.range rng 2 4 in
          if v < !lo then lo := v;
          if v > !hi then hi := v;
          check_bool "bounds" true (v >= 2 && v <= 4)
        done;
        check_int "lo" 2 !lo;
        check_int "hi" 4 !hi);
    test "float stays below its bound" (fun () ->
        let rng = Prng.create ~seed:4 in
        for _ = 1 to 500 do
          let v = Prng.float rng 2.5 in
          check_bool "bounds" true (v >= 0.0 && v < 2.5)
        done);
    test "bool at extremes" (fun () ->
        let rng = Prng.create ~seed:5 in
        for _ = 1 to 100 do
          check_bool "never" false (Prng.bool rng 0.0);
          check_bool "always" true (Prng.bool rng 1.0)
        done);
    test "choose only returns members" (fun () ->
        let rng = Prng.create ~seed:6 in
        for _ = 1 to 100 do
          check_bool "member" true (List.mem (Prng.choose rng [| 1; 2; 3 |]) [ 1; 2; 3 ])
        done);
    test "choose_list rejects empty" (fun () ->
        let rng = Prng.create ~seed:6 in
        check_bool "raises" true
          (match Prng.choose_list rng [] with _ -> false | exception Invalid_argument _ -> true));
    test "shuffle permutes" (fun () ->
        let rng = Prng.create ~seed:7 in
        let arr = Array.init 20 Fun.id in
        Prng.shuffle rng arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        check_bool "permutation" true (sorted = Array.init 20 Fun.id));
    test "geometric respects max" (fun () ->
        let rng = Prng.create ~seed:8 in
        for _ = 1 to 200 do
          check_bool "capped" true (Prng.geometric rng ~p:0.1 ~max:3 <= 3)
        done);
  ]

let contains_label g name = Option.is_some (Label.Pool.find_opt (Data_graph.pool g) name)

let ref_edges_exist g pairs =
  let pool = Data_graph.pool g in
  List.iter
    (fun (src, dst) ->
      match (Label.Pool.find_opt pool src, Label.Pool.find_opt pool dst) with
      | Some ls, Some ld ->
        let found = ref false in
        Data_graph.iter_edges g (fun u v ->
            if Label.equal (Data_graph.label g u) ls && Label.equal (Data_graph.label g v) ld
            then found := true);
        check_bool (Printf.sprintf "%s -> %s edge exists" src dst) true !found
      | _ -> Alcotest.failf "labels %s/%s missing" src dst)
    pairs

(* [Xmark.graph] writes the generator's calls straight into the
   builder; the three other routes go through the XML layer or the
   streaming builder.  All four must give the same [Serial] text, over
   seeds and scales 1-60 (scales 1-3 hit [population]'s clamps).  The
   stream's sorter gets the smallest budget (1024 pairs), so scales
   past ~14 spill runs.  A failure prints its seed and scale. *)
let xmark_routes_agree =
  QCheck.Test.make ~count:60 ~name:"xmark: direct graph = events = parsed XML = stream"
    (QCheck.make
       ~print:(fun (seed, scale) -> Printf.sprintf "seed=%d scale=%d" seed scale)
       QCheck.Gen.(
         pair (int_bound 1_000_000) (frequency [ (1, int_range 1 3); (3, int_range 4 60) ])))
    (fun (seed, scale) ->
      let text g = Dkindex_graph.Serial.to_string g in
      let convert events = text (Xml_to_graph.convert ~config:Xmark.config events).graph in
      let direct = text (Xmark.graph ~seed ~scale ()) in
      let xml = Dkindex_xml.Xml_writer.doc_to_string (Xmark.doc ~seed ~scale ()) in
      let path = Filename.temp_file "xmark" ".dkc" in
      let streamed =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            ignore
              (Xmark.stream ~seed ~scale ~mem_budget:(1 lsl 11)
                 ~tmp_dir:(Filename.dirname path) ~path ());
            text (Dkindex_graph.Container.open_graph ~verify:true path))
      in
      List.iter
        (fun (route, got) ->
          if got <> direct then
            QCheck.Test.fail_reportf "seed %d scale %d: %s differs from Xmark.graph" seed scale
              route)
        [
          ("Xml_to_graph.convert (Xmark.events)", convert (Xmark.events ~seed ~scale));
          ("the parsed Xml_writer rendering", convert (Xml_sax.iter (Xml_sax.of_string xml)));
          ("Xmark.stream, reopened", streamed);
        ];
      true)

let xmark_tests =
  [
    test "deterministic for a fixed seed" (fun () ->
        let a = Xmark.doc ~seed:3 ~scale:5 () and b = Xmark.doc ~seed:3 ~scale:5 () in
        check_bool "equal docs" true (Dkindex_xml.Xml_ast.equal_doc a b));
    test "seed changes the document" (fun () ->
        let a = Xmark.doc ~seed:3 ~scale:5 () and b = Xmark.doc ~seed:4 ~scale:5 () in
        check_bool "different" false (Dkindex_xml.Xml_ast.equal_doc a b));
    test "scale grows the graph" (fun () ->
        let small = Xmark.graph ~seed:1 ~scale:10 () and big = Xmark.graph ~seed:1 ~scale:40 () in
        check_bool "monotone" true (Data_graph.n_nodes big > 2 * Data_graph.n_nodes small));
    test "no unresolved references, fully reachable" (fun () ->
        let result = Xml_to_graph.convert ~config:Xmark.config (Xmark.events ~seed:2 ~scale:20) in
        check_int "unresolved" 0 (List.length result.Dkindex_xml.Xml_to_graph.unresolved_refs);
        check_bool "has references" true (result.Dkindex_xml.Xml_to_graph.n_reference_edges > 0);
        check_int "unreachable" 0
          (Data_graph.stats result.Dkindex_xml.Xml_to_graph.graph).Data_graph.unreachable);
    test "schema labels are present" (fun () ->
        let g = Xmark.graph ~seed:2 ~scale:10 () in
        List.iter
          (fun l -> check_bool l true (contains_label g l))
          [ "site"; "regions"; "item"; "person"; "open_auction"; "closed_auction";
            "category"; "bidder"; "itemref"; "VALUE" ]);
    test "every declared ref pair occurs in the data" (fun () ->
        ref_edges_exist (Xmark.graph ~seed:2 ~scale:30 ()) Xmark.ref_pairs);
    test "graph equals the document tree route" (fun () ->
        graph_is_tree_route ~config:Xmark.config
          ~doc:(Xmark.doc ~seed:2 ~scale:20)
          ~graph:(Xmark.graph ~seed:2 ~scale:20));
    QCheck_alcotest.to_alcotest xmark_routes_agree;
    test "graph allocation budget at scale 40" (fun () ->
        (* The hot-read launch generates scale 40; staying small keeps
           it free of collections before listening.  Measured 68,093
           words (the XML-event route this replaced: 191,493); one
           [Printf.sprintf] per ID and IDREF puts it over.  The full
           major runs the finalisers earlier tests left pending (mapped
           containers), which would otherwise allocate inside the
           window; the minor collection at its end flushes the large
           blocks' words into the counters. *)
        Gc.full_major ();
        let w0 = allocated_words () in
        ignore (Sys.opaque_identity (Xmark.graph ~seed:1 ~scale:40 ()));
        Gc.minor ();
        let words = allocated_words () -. w0 in
        check_bool (Printf.sprintf "%.0f words" words) true (words < 75_000.));
  ]

let nasa_tests =
  [
    test "deterministic for a fixed seed" (fun () ->
        let a = Nasa.doc ~seed:3 ~scale:5 () and b = Nasa.doc ~seed:3 ~scale:5 () in
        check_bool "equal docs" true (Dkindex_xml.Xml_ast.equal_doc a b));
    test "no unresolved references, fully reachable" (fun () ->
        let result = Xml_to_graph.convert ~config:Nasa.config (Nasa.events ~seed:2 ~scale:20) in
        check_int "unresolved" 0 (List.length result.Dkindex_xml.Xml_to_graph.unresolved_refs);
        check_int "unreachable" 0
          (Data_graph.stats result.Dkindex_xml.Xml_to_graph.graph).Data_graph.unreachable);
    test "deeper than XMark (the paper's reason for using it)" (fun () ->
        let x = Data_graph.stats (Xmark.graph ~seed:2 ~scale:30 ()) in
        let n = Data_graph.stats (Nasa.graph ~seed:2 ~scale:30 ()) in
        check_bool "deeper" true (n.Data_graph.max_depth > x.Data_graph.max_depth));
    test "exactly 8 reference kinds declared, all occurring" (fun () ->
        check_int "eight" 8 (List.length Nasa.ref_pairs);
        ref_edges_exist (Nasa.graph ~seed:2 ~scale:40 ()) Nasa.ref_pairs);
    test "schema labels are present" (fun () ->
        let g = Nasa.graph ~seed:2 ~scale:10 () in
        List.iter
          (fun l -> check_bool l true (contains_label g l))
          [ "datasets"; "dataset"; "reference"; "source"; "history"; "tableHead";
            "field"; "definition"; "para" ]);
    test "graph equals the document tree route" (fun () ->
        graph_is_tree_route ~config:Nasa.config
          ~doc:(Nasa.doc ~seed:2 ~scale:20)
          ~graph:(Nasa.graph ~seed:2 ~scale:20));
  ]

let treebank_tests =
  [
    test "deterministic and loadable" (fun () ->
        let a = Treebank.doc ~seed:3 ~scale:5 () and b = Treebank.doc ~seed:3 ~scale:5 () in
        check_bool "equal" true (Dkindex_xml.Xml_ast.equal_doc a b);
        let doc = Treebank.doc ~seed:2 ~scale:20 () in
        let result = Xml_to_graph.convert ~config:Treebank.config (Xml_sax.emit_tree doc.root) in
        check_int "unresolved" 0 (List.length result.Dkindex_xml.Xml_to_graph.unresolved_refs);
        check_int "unreachable" 0
          (Data_graph.stats result.Dkindex_xml.Xml_to_graph.graph).Data_graph.unreachable);
    test "deeper than both XMark and NASA" (fun () ->
        let t = Data_graph.stats (Treebank.graph ~seed:2 ~scale:30 ()) in
        let x = Data_graph.stats (Xmark.graph ~seed:2 ~scale:30 ()) in
        let n = Data_graph.stats (Nasa.graph ~seed:2 ~scale:30 ()) in
        check_bool "deepest" true
          (t.Data_graph.max_depth > x.Data_graph.max_depth
          && t.Data_graph.max_depth > n.Data_graph.max_depth));
    test "grammar labels are present" (fun () ->
        let g = Treebank.graph ~seed:2 ~scale:10 () in
        List.iter
          (fun l -> check_bool l true (contains_label g l))
          [ "S"; "NP"; "VP"; "PP"; "SBAR"; "trace"; "VALUE" ]);
    test "the 1-index compresses poorly (the treebank effect)" (fun () ->
        let g = Treebank.graph ~seed:4 ~scale:50 () in
        let one = Dkindex_baselines.One_index.build g in
        let ratio =
          float_of_int (Dkindex_core.Index_graph.n_nodes one)
          /. float_of_int (Data_graph.n_nodes g)
        in
        (* on XMark this ratio is ~0.1; treebank's diversity keeps it high *)
        check_bool "poor compression" true (ratio > 0.25));
    test "trace references resolve to NP/WHNP" (fun () ->
        let g = Treebank.graph ~seed:5 ~scale:40 () in
        let pool = Data_graph.pool g in
        let trace = Option.get (Dkindex_graph.Label.Pool.find_opt pool "trace") in
        let checked = ref 0 in
        List.iter
          (fun t ->
            Data_graph.iter_children g t (fun target ->
                incr checked;
                check_bool "NP or WHNP" true
                  (List.mem (Data_graph.label_name g target) [ "NP"; "WHNP" ])))
          (Data_graph.nodes_with_label g trace);
        check_bool "some traces exist" true (!checked > 0));
  ]

let random_tests =
  [
    test "graph is fully reachable" (fun () ->
        let g = Random_graph.graph ~seed:3 ~nodes:200 ~n_labels:4 ~extra_edges:50 () in
        check_int "nodes" 200 (Data_graph.n_nodes g);
        check_int "unreachable" 0 (Data_graph.stats g).Data_graph.unreachable);
    test "tree has exactly n-1 edges" (fun () ->
        let g = Random_graph.tree ~seed:3 ~nodes:150 ~n_labels:4 () in
        check_int "edges" 149 (Data_graph.n_edges g));
    test "deterministic" (fun () ->
        let a = Random_graph.graph ~seed:9 ~nodes:100 ~n_labels:3 ~extra_edges:20 () in
        let b = Random_graph.graph ~seed:9 ~nodes:100 ~n_labels:3 ~extra_edges:20 () in
        check_string "same serialization" (Dkindex_graph.Serial.to_string a)
          (Dkindex_graph.Serial.to_string b));
    test "rejects zero nodes" (fun () ->
        check_bool "raises" true
          (match Random_graph.graph ~nodes:0 ~n_labels:1 ~extra_edges:0 () with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "datagen"
    [
      ("prng", prng_tests);
      ("xmark", xmark_tests);
      ("nasa", nasa_tests);
      ("treebank", treebank_tests);
      ("random_graph", random_tests);
    ]
