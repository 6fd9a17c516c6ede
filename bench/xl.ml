(* The out-of-core scale:xl series (DESIGN.md §13): streamed datagen of
   a 10M-edge random graph, the external-memory D(k) build under a
   512 MiB OCaml heap cap, O(1) container opens, mmap-backed queries
   and the in-memory copy of the mapped index.  Run with
   `bench/main.exe --xl` (`make bench-xl`).

   [run] re-executes this binary once per bench with
   [--xl-child NAME DIR], so each bench's peak RSS (VmHWM) and peak
   OCaml heap are its own instead of the high-water marks of the
   benches before it.  The timed region excludes setup a real consumer
   would amortize (opening an already-built container before querying
   it). *)

open Dkindex_graph
open Dkindex_core

let edges = 10_000_000
let heap_cap_mb = 512

let graph_file dir = Filename.concat dir "xl.dkc"
let index_file dir = Filename.concat dir "xl-idx.dkc"

(* Peak resident set of this process (Linux procfs; 0 elsewhere). *)
let peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0
          | line -> (
            try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb * 1024)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> go ())
        in
        go ())

let peak_heap_bytes () = Gc.((quick_stat ()).top_heap_words) * (Sys.word_size / 8)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e9)

(* Each bench runs against the files in [dir] that the benches before
   it left there and returns its timed ns. *)
let benches =
  [
    ( "xl:datagen-stream",
      fun dir ->
        let nodes = edges / 5 in
        snd
          (timed (fun () ->
               Dkindex_datagen.Random_graph.stream ~seed:77 ~nodes ~n_labels:12
                 ~extra_edges:(edges - (nodes - 1)) ~value_fraction:0.02 ~tmp_dir:dir
                 ~path:(graph_file dir) ())) );
    ( "xl:build-external",
      fun dir ->
        let g = Container.open_graph (graph_file dir) in
        let idx, ns =
          timed (fun () -> Dk_index.build ~mode:`External g ~reqs:[ ("l0", 2); ("l1", 2) ])
        in
        Index_serial.save_container (index_file dir) idx;
        let heap = peak_heap_bytes () in
        if heap > heap_cap_mb * 1048576 then
          failwith
            (Printf.sprintf "peak heap %d MiB exceeds the %d MiB cap" (heap / 1048576)
               heap_cap_mb);
        ns );
    ( "xl:open-mmap",
      fun dir ->
        let g, ns = timed (fun () -> Container.open_graph (graph_file dir)) in
        ignore (Data_graph.n_nodes g);
        ns );
    ( "xl:load-index-mmap",
      fun dir ->
        let idx, ns = timed (fun () -> Index_serial.load_container (index_file dir)) in
        ignore (Index_graph.n_nodes idx);
        ns );
    ( "xl:query-mmap",
      fun dir ->
        let idx = Index_serial.load_container (index_file dir) in
        List.fold_left Float.min infinity
          (List.init 3 (fun _ ->
               snd (timed (fun () -> Query_eval.eval_path_strings idx [ "l0"; "l1" ])))) );
    ( "xl:index-copy",
      fun dir ->
        let idx = Index_serial.load_container (index_file dir) in
        let c, ns = timed (fun () -> Index_graph.copy idx) in
        ignore (Index_graph.n_nodes c);
        ns );
  ]

(* One bench in this process; prints "<ns> <rss bytes> <heap bytes>". *)
let child name dir =
  let ns =
    match List.assoc_opt name benches with
    | Some bench -> bench dir
    | None -> failwith ("unknown xl bench " ^ name)
  in
  Printf.printf "%.0f %d %d\n%!" ns (peak_rss_bytes ()) (peak_heap_bytes ())

let run_child name dir =
  let r, w = Unix.pipe () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--xl-child"; name; dir |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (name ^ ": xl bench child failed"));
  Scanf.sscanf line "%f %d %d" (fun ns rss heap -> (ns, rss, heap))

let run () =
  let dir = Filename.temp_file "dkxl" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let cleanup () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Printf.printf "scale:xl series: ~%d edges, a fresh process per bench\n%!" edges;
      List.iter
        (fun (name, _) ->
          let ns, rss, heap = run_child name dir in
          Printf.printf "  %-20s %14.0f ns   rss %5d MiB   heap %5d MiB\n%!" name ns
            (rss / 1048576) (heap / 1048576))
        benches;
      let g = Container.open_graph (graph_file dir) in
      Printf.printf "  graph: %d nodes, %d edges, %d container bytes; build heap cap %d MiB\n%!"
        (Data_graph.n_nodes g) (Data_graph.n_edges g)
        (Unix.stat (graph_file dir)).Unix.st_size heap_cap_mb)
