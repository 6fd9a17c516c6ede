(* Reproduction harness: regenerates every table and figure of the
   paper's Section 6, plus the extension experiments listed in
   DESIGN.md.  `--bechamel` additionally runs micro-benchmarks;
   `--xl` runs only the out-of-core scale:xl series (bench/xl.ml). *)

let xmark_scale = ref 300
let nasa_scale = ref 250
let n_queries = ref 100
let n_updates = ref 100
let seed = ref 2003
let run_bechamel = ref false
let quick = ref false
let xl = ref false
let xl_child = ref ""
let xl_dir = ref ""

let spec =
  [
    ("--xmark-scale", Arg.Set_int xmark_scale, "N  XMark scale, items (default 300)");
    ("--nasa-scale", Arg.Set_int nasa_scale, "N  NASA scale, datasets (default 250)");
    ("--queries", Arg.Set_int n_queries, "N  workload size (default 100, as the paper)");
    ("--updates", Arg.Set_int n_updates, "N  edge additions (default 100, as the paper)");
    ("--seed", Arg.Set_int seed, "N  master random seed (default 2003)");
    ("--bechamel", Arg.Set run_bechamel, "   also run Bechamel micro-benchmarks");
    ("--quick", Arg.Set quick, "   small scales for a fast smoke run");
    ("--xl", Arg.Set xl, "   run only the out-of-core scale:xl series, a process per bench");
    ( "--xl-child",
      Arg.Tuple [ Arg.Set_string xl_child; Arg.Set_string xl_dir ],
      "NAME DIR  (internal) run one xl bench in DIR and exit" );
  ]

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench/main.exe";
  if not (String.equal !xl_child "") then begin
    Xl.child !xl_child !xl_dir;
    exit 0
  end;
  if !xl then begin
    Xl.run ();
    exit 0
  end;
  if !quick then begin
    xmark_scale := 60;
    nasa_scale := 50;
    n_updates := 30
  end;
  Printf.printf "D(k)-index reproduction benchmarks\n";
  Printf.printf "scales: xmark=%d nasa=%d, queries=%d, updates=%d, seed=%d\n" !xmark_scale
    !nasa_scale !n_queries !n_updates !seed;
  let xmark = Experiments.make_xmark ~scale:!xmark_scale in
  let nasa = Experiments.make_nasa ~scale:!nasa_scale in
  List.iter
    (fun ds ->
      Printf.printf "%s data graph: %s\n" ds.Experiments.ds_name
        (Format.asprintf "%a" Dkindex_graph.Data_graph.pp_stats
           (Dkindex_graph.Data_graph.stats ds.Experiments.graph)))
    [ xmark; nasa ];
  (* Before updating (Figures 4 and 5). *)
  let comp_x = Experiments.build_competitors xmark ~n_queries:!n_queries ~seed:!seed in
  let comp_n = Experiments.build_competitors nasa ~n_queries:!n_queries ~seed:(!seed + 1) in
  Experiments.figure_before_updating ~fig:4 xmark comp_x;
  Experiments.figure_before_updating ~fig:5 nasa comp_n;
  (* Table 1: update efficiency.  The same competitors keep their
     updated state for Figures 6 and 7. *)
  let timing_x = Experiments.update_timings xmark comp_x ~n_updates:!n_updates ~seed:(!seed + 2) in
  let timing_n = Experiments.update_timings nasa comp_n ~n_updates:!n_updates ~seed:(!seed + 3) in
  Experiments.print_table1 ~n_updates:!n_updates timing_x timing_n;
  (* After updating (Figures 6 and 7). *)
  Experiments.figure_after_updating ~fig:6 xmark comp_x;
  Experiments.figure_after_updating ~fig:7 nasa comp_n;
  (* Extensions. *)
  Experiments.ext_promote xmark comp_x;
  Experiments.ext_promote nasa comp_n;
  Experiments.ext_demote xmark comp_x;
  Experiments.ext_demote nasa comp_n;
  Experiments.ext_subgraph xmark ~seed:(!seed + 4);
  Experiments.ext_sizes xmark;
  Experiments.ext_sizes nasa;
  Experiments.ext_sizes (Experiments.make_treebank ~scale:(!xmark_scale / 2));
  Experiments.ext_mining_ablation xmark comp_x;
  Experiments.ext_fb xmark;
  Experiments.ext_fb nasa;
  Experiments.ext_scaling ~name:"Xmark"
    ~make_graph:(fun ~scale -> Dkindex_datagen.Xmark.graph ~scale ())
    ~scales:(if !quick then [ 25; 50; 100 ] else [ 50; 100; 200; 400 ]);
  Experiments.ext_strategy xmark comp_x;
  Experiments.ext_strategy nasa comp_n;
  Experiments.ext_cracking xmark ~seed:(!seed + 5);
  Experiments.ext_cracking nasa ~seed:(!seed + 6);
  Experiments.ext_access_paths xmark comp_x;
  Experiments.ext_access_paths nasa comp_n;
  Experiments.ext_loading ~scale:(if !quick then 100 else 400);
  if !run_bechamel then Micro.run ()
