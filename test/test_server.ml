(* dkserve tests.

   - Wire codec: encode/decode round-trips for every request/response
     kind; total decoding on random, truncated and mutated bytes
     (fuzz); framing (chunked reads, EOF, oversized frames).
   - Index_serial fidelity: after a random churn of edge additions,
     removals and promotions, a save/load round-trip answers every
     query exactly like the live index.
   - Smoke: a real forked server process on an ephemeral port serving
     mixed query/update traffic from concurrent clients, fuzzed with
     malformed frames, then drained with SIGTERM into a loadable
     snapshot.
   - History: an in-process server on a systhread, whose every read
     sees a prefix of the acknowledged writes; the process forks
     after it.
   - Evloop: readiness, a zero timeout, removal from inside a
     callback, and a descriptor set larger than the poll stub's stack
     array. *)

open Dkindex_core
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Path_ast = Dkindex_pathexpr.Path_ast
module Wire = Dkindex_server.Wire
module Obuf = Dkindex_server.Obuf
module Server = Dkindex_server.Server
module Client = Dkindex_server.Client
module Prng = Dkindex_datagen.Prng

let to_alcotest = QCheck_alcotest.to_alcotest

(* --------------------------------------------------------------- *)
(* Generators                                                        *)

let label_gen = QCheck.Gen.(map (Printf.sprintf "l%d") (int_bound 5))

let expr_gen =
  let open QCheck.Gen in
  let label = map (fun l -> Path_ast.Label l) label_gen in
  sized_size (int_bound 6) (fun n ->
      fix
        (fun self n ->
          if n <= 0 then oneof [ label; return Path_ast.Any ]
          else
            frequency
              [
                (2, label);
                (1, return Path_ast.Any);
                (3, map2 (fun a b -> Path_ast.Seq (a, b)) (self (n / 2)) (self (n / 2)));
                (2, map2 (fun a b -> Path_ast.Alt (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> Path_ast.Opt a) (self (n - 1)));
                (1, map (fun a -> Path_ast.Star a) (self (n - 1)));
              ])
        n)

let flags_gen = QCheck.Gen.(map (fun no_cache -> { Wire.no_cache }) bool)
let labels_gen = QCheck.Gen.(list_size (int_range 1 5) label_gen)
let pairs_gen = QCheck.Gen.(list_size (int_bound 4) (pair label_gen (int_bound 6)))

(* WAL generation numbers: -1 (subscribe-from-scratch sentinel) or a
   plausible generation.  Offsets exercise the full u48 range. *)
let seq_gen = QCheck.Gen.(oneof [ return (-1); int_bound 1_000_000 ])

let offset48_gen =
  QCheck.Gen.(map2 (fun hi lo -> (hi lsl 32) lor lo) (int_bound 0xffff) (int_bound 0xfffffff))

let role_gen = QCheck.Gen.oneofl [ Wire.Primary; Wire.Replica ]

let request_gen : Wire.request QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      return Wire.Ping;
      map2 (fun flags labels -> Wire.Query_path { flags; labels }) flags_gen labels_gen;
      map2 (fun u v -> Wire.Add_edge { u; v }) (int_bound 100000) (int_bound 100000);
      map2 (fun u v -> Wire.Remove_edge { u; v }) (int_bound 100000) (int_bound 100000);
      map2
        (fun graph reqs -> Wire.Add_subgraph { graph; reqs })
        (string_size (int_bound 60))
        pairs_gen;
      map (fun p -> Wire.Promote p) pairs_gen;
      map (fun p -> Wire.Demote p) pairs_gen;
      return Wire.Stats;
      return Wire.Snapshot;
      return Wire.Shutdown;
      (* The version byte is a u8; the codec must round-trip a Hello
         from any version, current or not. *)
      map2 (fun version epoch -> Wire.Hello { version; epoch }) (int_bound 255)
        (int_bound 1_000_000);
      map2
        (fun (replica_id, epoch) (seq, offset) ->
          Wire.Rep_subscribe { replica_id; epoch; seq; offset })
        (pair (int_bound 1000) (int_bound 1_000_000))
        (pair seq_gen offset48_gen);
      return Wire.Promote_primary;
      map2 (fun flags expr -> Wire.Query_planned { flags; expr }) flags_gen expr_gen;
      map (fun expr -> Wire.Explain { expr }) expr_gen;
      map2 (fun u v -> Wire.Has_edge { u; v }) (int_bound 1_000_000) (int_bound 1_000_000);
    ]

let result_gen =
  let open QCheck.Gen in
  map3
    (fun nodes (iv, dv, nc, ns) (generation, age_ms) ->
      {
        Wire.nodes = Array.of_list nodes;
        index_visits = iv;
        data_visits = dv;
        n_candidates = nc;
        n_certain = ns;
        generation;
        age_ms;
      })
    (list_size (int_bound 20) (int_bound 1_000_000))
    (quad (int_bound 1000) (int_bound 1000) (int_bound 1000) (int_bound 1000))
    (pair (int_bound 1_000_000) (int_bound 1_000_000))

let response_gen : Wire.response QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      return Wire.Pong;
      map (fun r -> Wire.Result r) result_gen;
      map2
        (fun generation epoch -> Wire.Ok_reply { generation; epoch })
        (int_bound 1_000_000) (int_bound 1_000_000);
      map
        (fun kvs -> Wire.Stats_reply kvs)
        (list_size (int_bound 5) (pair (string_size (int_bound 10)) (string_size (int_bound 10))));
      map2
        (fun code message -> Wire.Error_reply { code; message })
        (oneofl [ `Protocol; `App; `Deadline; `Shutting_down; `Version; `Stale ])
        (string_size (int_bound 40));
      return Wire.Overloaded;
      return Wire.Read_only;
      map3
        (fun version epoch role -> Wire.Hello_reply { version; epoch; role })
        (int_bound 255) (int_bound 1_000_000) role_gen;
      map3
        (fun epoch (seq, offset) data -> Wire.Rep_records { epoch; seq; offset; data })
        (int_bound 1_000_000)
        (pair seq_gen offset48_gen)
        (string_size (int_bound 80));
      map3
        (fun epoch seq checkpoint -> Wire.Rep_snapshot { epoch; seq; checkpoint })
        (int_bound 1_000_000) seq_gen
        (string_size (int_bound 80));
      map3
        (fun epoch seq offset -> Wire.Rep_heartbeat { epoch; seq; offset })
        (int_bound 1_000_000) seq_gen offset48_gen;
      map2 (fun host port -> Wire.Not_primary { host; port }) (string_size (int_bound 20))
        (int_bound 0xffff);
      map (fun epoch -> Wire.Fenced { epoch }) (int_bound 1_000_000);
      map2
        (fun plan result -> Wire.Planned_result { plan; result })
        (string_size (int_bound 60))
        result_gen;
      map
        (fun lines -> Wire.Explain_reply lines)
        (list_size (int_bound 6) (string_size (int_bound 40)));
      map2
        (fun present (generation, age_ms) ->
          Wire.Edge_reply { present; generation; age_ms })
        bool
        (pair (int_bound 1_000_000) (int_bound 1_000_000));
    ]

let request_arb = QCheck.make request_gen
let response_arb = QCheck.make response_gen

let payload_of_frame frame = String.sub frame 4 (String.length frame - 4)

let encode_request_payload ~id req =
  let buf = Obuf.create 64 in
  Wire.encode_request buf ~id req;
  payload_of_frame (Obuf.contents buf)

let encode_response_payload ~id resp =
  let buf = Obuf.create 64 in
  Wire.encode_response buf ~id resp;
  payload_of_frame (Obuf.contents buf)

(* --------------------------------------------------------------- *)
(* Codec round-trips                                                 *)

let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: request round-trip" request_arb (fun req ->
      match Wire.decode_request (encode_request_payload ~id:7 req) with
      | Ok { id; msg } -> id = 7 && msg = req
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: response round-trip" response_arb (fun resp ->
      match Wire.decode_response (encode_response_payload ~id:123456 resp) with
      | Ok { id; msg } -> id = 123456 && msg = resp
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* An expression travels as an [Explain] body: the payload is the
   6-byte header, then the expression and nothing else. *)
let prop_expr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: path expression round-trip"
    (QCheck.make ~print:Path_ast.to_string expr_gen) (fun expr ->
      match Wire.decode_request (encode_request_payload ~id:1 (Wire.Explain { expr })) with
      | Ok { msg = Wire.Explain { expr = expr' }; _ } -> Path_ast.equal expr expr'
      | Ok _ -> QCheck.Test.fail_reportf "decoded to another request"
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* --------------------------------------------------------------- *)
(* Fuzz: decoders are total                                          *)

let no_exn f =
  match f () with
  | (_ : (_, string) result) -> true
  | exception e -> QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)

let prop_fuzz_random_bytes =
  QCheck.Test.make ~count:2000 ~name:"wire: random bytes never crash decoders"
    QCheck.(make Gen.(string_size (int_bound 200)))
    (fun s ->
      no_exn (fun () -> Wire.decode_request s)
      && no_exn (fun () -> Wire.decode_response s)
      && no_exn (fun () ->
             (* the bytes as an Explain request's expression *)
             Wire.decode_request (Printf.sprintf "%c\x11\000\000\000\001%s" (Char.chr Wire.version) s)))

let prop_fuzz_truncated =
  QCheck.Test.make ~count:500 ~name:"wire: strict prefixes are rejected, not crashed"
    QCheck.(pair request_arb (make Gen.(int_bound 1000)))
    (fun (req, cut) ->
      let payload = encode_request_payload ~id:1 req in
      let cut = cut mod max 1 (String.length payload) in
      if cut = String.length payload then true
      else
        match Wire.decode_request (String.sub payload 0 cut) with
        | Ok _ -> QCheck.Test.fail_reportf "strict prefix decoded successfully"
        | Error _ -> true
        | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let prop_fuzz_mutated =
  QCheck.Test.make ~count:1000 ~name:"wire: byte flips never crash the request decoder"
    QCheck.(triple request_arb (make Gen.(int_bound 10_000)) (make Gen.(int_bound 255)))
    (fun (req, pos, byte) ->
      let payload = Bytes.of_string (encode_request_payload ~id:1 req) in
      Bytes.set payload (pos mod Bytes.length payload) (Char.chr byte);
      no_exn (fun () -> Wire.decode_request (Bytes.to_string payload)))

(* --------------------------------------------------------------- *)
(* Framing                                                           *)

let string_reader ?(chunk = max_int) s =
  let pos = ref 0 in
  fun buf off len ->
    let n = min (min len chunk) (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

let test_read_frame_chunked () =
  let payloads = [ "alpha"; ""; String.make 1000 'x' ] in
  let stream =
    String.concat "" (List.map Wire.frame_of_payload payloads)
  in
  List.iter
    (fun chunk ->
      let read = string_reader ~chunk stream in
      List.iter
        (fun expect ->
          match Wire.read_frame ~read () with
          | `Frame got -> Alcotest.(check string) "frame" expect got
          | _ -> Alcotest.fail "expected a frame")
        payloads;
      match Wire.read_frame ~read () with
      | `Eof -> ()
      | _ -> Alcotest.fail "expected EOF")
    [ 1; 3; max_int ]

let test_read_frame_oversized () =
  let stream = Wire.frame_of_payload (String.make 100 'y') in
  match Wire.read_frame ~max_frame:50 ~read:(string_reader stream) () with
  | `Oversized 100 -> ()
  | _ -> Alcotest.fail "expected `Oversized 100"

let test_read_frame_torn () =
  let stream = Wire.frame_of_payload "hello" in
  let torn = String.sub stream 0 (String.length stream - 2) in
  match Wire.read_frame ~read:(string_reader torn) () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on a torn frame"

(* Zero-copy framing: decoding a frame that sits inside a large
   connection buffer allocates a small constant, whatever its position
   and the buffer's size (no per-frame copy of the buffer; 13 words
   measured), and encoding replies into a reused [Obuf] allocates no
   fresh buffer per frame (6 words). *)
let test_framing_allocation () =
  let payload = encode_request_payload ~id:7 Wire.Ping in
  let payload_len = String.length payload in
  let big = Bytes.make (1 lsl 20) '\xAA' in
  let pos = 123_457 in
  Bytes.blit_string payload 0 big pos payload_len;
  let big = Bytes.unsafe_to_string big in
  let decode_once () =
    match Wire.decode_request_at big ~pos ~len:payload_len with
    | Ok { Wire.id = 7; msg = Wire.Ping } -> ()
    | Ok _ -> Alcotest.fail "in-place decode returned the wrong frame"
    | Error e -> Alcotest.fail ("in-place decode failed: " ^ e)
  in
  decode_once ();
  let n = 10_000 in
  let before = Testlib.allocated_words () in
  for _ = 1 to n do
    decode_once ()
  done;
  let per_decode = (Testlib.allocated_words () -. before) /. float_of_int n in
  let reply = Obuf.create 256 in
  Wire.encode_response reply ~id:0 Wire.Pong;
  let before = Testlib.allocated_words () in
  for i = 1 to n do
    Obuf.clear reply;
    Wire.encode_response reply ~id:i Wire.Pong
  done;
  let per_encode = (Testlib.allocated_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per in-place decode (budget 64)" per_decode)
    true (per_decode <= 64.0);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per reused-Obuf encode (budget 16)" per_encode)
    true (per_encode <= 16.0)

(* --------------------------------------------------------------- *)
(* WAL: replay recovers exactly the longest valid record prefix      *)

module Wal = Dkindex_server.Wal

let mutation_gen : Wal.mutation QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun u v -> Wal.Add_edge { u; v }) (int_bound 100000) (int_bound 100000);
      map2 (fun u v -> Wal.Remove_edge { u; v }) (int_bound 100000) (int_bound 100000);
      map2
        (fun graph reqs -> Wal.Add_subgraph { graph; reqs })
        (string_size (int_bound 60))
        pairs_gen;
      map (fun p -> Wal.Promote p) pairs_gen;
      map (fun p -> Wal.Demote p) pairs_gen;
    ]

let encode_stream muts =
  let buf = Obuf.create 256 in
  (* [ends.(i)] is the byte offset one past record i. *)
  let ends =
    List.map
      (fun m ->
        Wal.encode_mutation buf m;
        Obuf.length buf)
      muts
  in
  (Obuf.contents buf, ends)

(* The records wholly contained in the first [cut] bytes. *)
let expect_prefix muts ends cut =
  List.combine muts ends |> List.filter (fun (_, e) -> e <= cut) |> List.map fst

let stream_arb =
  QCheck.make
    ~print:(fun muts -> Printf.sprintf "<%d mutations>" (List.length muts))
    QCheck.Gen.(list_size (int_bound 20) mutation_gen)

let prop_wal_roundtrip =
  QCheck.Test.make ~count:300 ~name:"wal: encode/replay round-trip" stream_arb (fun muts ->
      let s, ends = encode_stream muts in
      let r = Wal.replay_string s in
      r.Wal.mutations = muts
      && r.ends = ends
      && r.valid_bytes = String.length s
      && r.torn_bytes = 0)

let prop_wal_truncation =
  QCheck.Test.make ~count:500
    ~name:"wal: any byte-level truncation recovers the longest valid prefix"
    QCheck.(pair stream_arb (make Gen.(int_bound 100_000)))
    (fun (muts, cut) ->
      let s, ends = encode_stream muts in
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let expected = expect_prefix muts ends cut in
      let r = Wal.replay_string (String.sub s 0 cut) in
      let valid_end = List.fold_left (fun acc e -> if e <= cut then e else acc) 0 ends in
      r.Wal.mutations = expected
      && r.valid_bytes = valid_end
      && r.torn_bytes = cut - valid_end)

let prop_wal_bitflip =
  QCheck.Test.make ~count:500
    ~name:"wal: a bit flip invalidates its record, keeps the prefix before it"
    QCheck.(
      triple
        (QCheck.make
           ~print:(fun muts -> Printf.sprintf "<%d mutations>" (List.length muts))
           Gen.(list_size (int_range 1 20) mutation_gen))
        (make Gen.(int_bound 100_000))
        (make Gen.(int_bound 7)))
    (fun (muts, pos, bit) ->
      let s, ends = encode_stream muts in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      (* Everything strictly before the record containing [pos] must
         survive; the flipped record and everything after it is gone
         (replay cannot resynchronize past a bad record). *)
      let expected = expect_prefix muts ends pos in
      let r = Wal.replay_string (Bytes.to_string b) in
      r.Wal.mutations = expected)

let prop_wal_fuzz =
  QCheck.Test.make ~count:1000 ~name:"wal: replay of random bytes is total and canonical"
    QCheck.(make Gen.(string_size (int_bound 300)))
    (fun s ->
      match Wal.replay_string s with
      | r ->
        (* Whatever replay accepted must re-encode to exactly the
           bytes it consumed: the valid prefix is canonical. *)
        let buf = Obuf.create 64 in
        List.iter (Wal.encode_mutation buf) r.Wal.mutations;
        r.valid_bytes + r.torn_bytes = String.length s
        && Obuf.contents buf = String.sub s 0 r.valid_bytes
      | exception e -> QCheck.Test.fail_reportf "replay raised %s" (Printexc.to_string e))

(* A mutation's WAL payload after its kind byte is byte for byte its
   wire request's body after the 6-byte header. *)
let wire_request_of_mutation : Wal.mutation -> Wire.request = function
  | Wal.Add_edge { u; v } -> Wire.Add_edge { u; v }
  | Wal.Remove_edge { u; v } -> Wire.Remove_edge { u; v }
  | Wal.Add_subgraph { graph; reqs } -> Wire.Add_subgraph { graph; reqs }
  | Wal.Promote p -> Wire.Promote p
  | Wal.Demote p -> Wire.Demote p

let prop_wal_body_is_wire_body =
  QCheck.Test.make ~count:500 ~name:"wal: a record's body is its wire request's body"
    (QCheck.make mutation_gen) (fun m ->
      let s, _ = encode_stream [ m ] in
      let wal_body = String.sub s 9 (String.length s - 9) in
      let req = wire_request_of_mutation m in
      let payload = encode_request_payload ~id:1 req in
      let wire_body = String.sub payload 6 (String.length payload - 6) in
      wal_body = wire_body && Wire.mutation req = Some m)

(* --------------------------------------------------------------- *)
(* Index_serial round-trip fidelity under churn                      *)

let churn_queries =
  [ [ "l0" ]; [ "l1"; "l2" ]; [ "l0"; "l1" ]; [ "l2"; "l3"; "l0" ]; [ "l3"; "l3" ] ]

let check_same_answers ~what idx idx' =
  List.iter
    (fun q ->
      let a = Query_eval.eval_path_strings idx q in
      let b = Query_eval.eval_path_strings idx' q in
      let name = what ^ " " ^ String.concat "." q in
      Alcotest.(check (list int)) (name ^ ": nodes") a.Query_eval.nodes b.Query_eval.nodes;
      Alcotest.(check int) (name ^ ": n_candidates") a.n_candidates b.n_candidates;
      Alcotest.(check int) (name ^ ": n_certain") a.n_certain b.n_certain)
    churn_queries

let prop_serial_roundtrip_after_churn =
  QCheck.Test.make ~count:60 ~name:"index_serial: save/load after churn answers identically"
    QCheck.(
      make
        ~print:(fun (seed, nodes, ops) ->
          Printf.sprintf "seed=%d nodes=%d ops=%d" seed nodes ops)
        Gen.(triple (int_bound 10_000) (int_range 3 60) (int_bound 30)))
    (fun (seed, nodes, ops) ->
      let g =
        Dkindex_datagen.Random_graph.graph ~seed ~nodes ~n_labels:4
          ~extra_edges:(nodes / 3) ()
      in
      let idx = Dk_index.build g ~reqs:[ ("l0", 2); ("l1", 3) ] in
      let rng = Prng.create ~seed:(seed + 1) in
      let added = ref [] in
      for i = 1 to ops do
        match Prng.int rng 4 with
        | 0 | 1 ->
          let u = Prng.int rng nodes and v = Prng.int rng nodes in
          if u <> v && not (Data_graph.has_edge (Index_graph.data idx) u v) then begin
            Dk_update.add_edge idx u v;
            added := (u, v) :: !added
          end
        | 2 -> (
          match !added with
          | [] -> ()
          | (u, v) :: rest ->
            added := rest;
            Dk_update.remove_edge idx u v)
        | _ -> Dk_tune.promote_labels idx [ (Printf.sprintf "l%d" (i mod 4), 1 + (i mod 3)) ]
      done;
      let s = Index_serial.to_string idx in
      let idx' = Index_serial.of_string s in
      Index_graph.check_invariants idx';
      check_same_answers ~what:"churned" idx idx';
      (* A second trip is bit-stable: of_string normalizes to the
         canonical dense form that to_string emits. *)
      String.equal (Index_serial.to_string idx') s
      || QCheck.Test.fail_reportf "to_string/of_string not stable")

(* --------------------------------------------------------------- *)
(* Smoke: a real server process, real sockets                        *)

let build_smoke_dataset () =
  let g = Dkindex_datagen.Random_graph.graph ~seed:11 ~nodes:400 ~n_labels:5 ~extra_edges:160 () in
  let idx = Dk_index.build g ~reqs:[ ("l0", 2); ("l1", 3); ("l2", 2) ] in
  (g, idx)

let read_port_line fd =
  let buf = Buffer.create 16 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> failwith "server died before reporting its port"
    | _ -> if Bytes.get b 0 = '\n' then Buffer.contents buf else (Buffer.add_char buf (Bytes.get b 0); go ())
  in
  int_of_string (go ())

let expect_result = function
  | Wire.Result r | Wire.Planned_result { result = r; _ } -> r
  | Wire.Error_reply { message; _ } -> Alcotest.fail ("server error: " ^ message)
  | _ -> Alcotest.fail "expected Result"

let check_against_local idx client labels =
  let want = Query_eval.eval_path_strings idx labels in
  let got =
    expect_result (Client.call client (Wire.Query_path { flags = { no_cache = true }; labels }))
  in
  Alcotest.(check (list int)) ("query " ^ String.concat "." labels ^ ": nodes")
    want.Query_eval.nodes (Array.to_list got.Wire.nodes);
  Alcotest.(check int) "index_visits" want.cost.Dkindex_pathexpr.Cost.index_visits got.index_visits;
  Alcotest.(check int) "data_visits" want.cost.data_visits got.data_visits

let smoke_queries = [ [ "l0" ]; [ "l1"; "l2" ]; [ "l0"; "l1"; "l3" ]; [ "l4"; "l0" ] ]

(* Fork a server on an ephemeral port; returns its pid and port.  The
   child exits 0 iff [Server.run] returns [Ok]. *)
let fork_server ?(config = Server.default_config) ?launch idx =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let status =
      try
        match
          Server.run
            ~on_ready:(fun port ->
              let line = string_of_int port ^ "\n" in
              ignore (Unix.write_substring w line 0 (String.length line));
              Unix.close w)
            ?launch { config with port = 0 } idx
        with
        | Ok () -> 0
        | Error _ -> 1
      with _ -> 1
    in
    Unix._exit status
  | pid ->
    Unix.close w;
    let port = read_port_line r in
    Unix.close r;
    (pid, port)

(* Run [f pid port] against a forked server.  [f] ends by shutting the
   server down; if it raises first, the server is killed so a failed
   check never leaves it running. *)
let with_server ?config ?launch idx f =
  let pid, port = fork_server ?config ?launch idx in
  match f pid port with
  | () -> ()
  | exception e ->
    (try
       Unix.kill pid Sys.sigkill;
       ignore (Unix.waitpid [] pid)
     with Unix.Unix_error _ -> ());
    raise e

let shutdown_server pid c =
  (match Client.call c Wire.Shutdown with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected Ok_reply for Shutdown");
  let _, status = Unix.waitpid [] pid in
  Client.close c;
  Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0)

let test_smoke () =
  let g, idx = build_smoke_dataset () in
  let snapshot = Filename.temp_file "dkserve_smoke" ".index" in
  let config =
    {
      Server.default_config with
      queue_depth = 64;
      idle_timeout_s = 30.0;
      snapshot_path = Some snapshot;
    }
  in
  with_server ~config idx @@ fun pid port ->
  let c1 = Client.connect ~port () in
  let c2 = Client.connect ~port () in
  (* Basic liveness and read traffic on two concurrent connections. *)
  (match Client.call c1 Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "expected Pong");
  List.iter (check_against_local idx c1) smoke_queries;
  List.iter (check_against_local idx c2) smoke_queries;
  (* A general path expression through the same socket. *)
  let expr = Path_ast.(Seq (Label "l1", Star (Label "l2"))) in
  let got =
    expect_result (Client.call c2 (Wire.Query_planned { flags = { no_cache = true }; expr }))
  in
  let want = Query_eval.eval_expr idx expr in
  Alcotest.(check (list int)) "expr nodes" want.Query_eval.nodes (Array.to_list got.Wire.nodes);
  (* The planned read path: same answers, plan reported; EXPLAIN is
     read-only and returns the plan list. *)
  List.iter
    (fun labels ->
      let expr = Path_ast.seq_of_labels labels in
      let plan, got =
        match Client.call c1 (Wire.Query_planned { flags = { no_cache = true }; expr }) with
        | Wire.Planned_result { plan; result } -> (plan, result)
        | _ -> Alcotest.fail "expected Planned_result"
      in
      Alcotest.(check bool) "plan described" true (String.length plan > 0);
      let want = Query_eval.eval_path_strings idx labels in
      Alcotest.(check (list int))
        ("planned " ^ String.concat "." labels)
        want.Query_eval.nodes (Array.to_list got.Wire.nodes))
    smoke_queries;
  (match Client.call c2 (Wire.Explain { expr }) with
  | Wire.Explain_reply (header :: plans) ->
    Alcotest.(check bool) "explain has plans" true (List.length plans >= 1);
    Alcotest.(check bool) "explain header" true (String.length header > 0)
  | _ -> Alcotest.fail "expected Explain_reply");
  (match Client.call c1 Wire.Stats with
  | Wire.Stats_reply kvs ->
    (* the expression read above, then one per smoke query *)
    Alcotest.(check string) "planned_queries counted"
      (string_of_int (1 + List.length smoke_queries))
      (Option.value (List.assoc_opt "planned_queries" kvs) ~default:"missing");
    Alcotest.(check string) "explain counted" "1"
      (Option.value (List.assoc_opt "explain_queries" kvs) ~default:"missing");
    Alcotest.(check bool) "vcache counters exported" true
      (List.mem_assoc "vcache_hits" kvs)
  | _ -> Alcotest.fail "expected Stats_reply");
  (* Updates through the write path, replayed locally. *)
  let n = Data_graph.n_nodes g in
  let rng = Prng.create ~seed:99 in
  let applied = ref 0 in
  while !applied < 12 do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (Data_graph.has_edge g u v) then begin
      (match Client.call c1 (Wire.Add_edge { u; v }) with
      | Wire.Ok_reply _ -> ()
      | _ -> Alcotest.fail "expected Ok_reply");
      Dk_update.add_edge idx u v;
      incr applied
    end
  done;
  Index_graph.prepare_serving idx;
  List.iter (check_against_local idx c1) smoke_queries;
  List.iter (check_against_local idx c2) smoke_queries;
  (* An app-level error: out-of-range node. *)
  (match Client.call c2 (Wire.Add_edge { u = n + 50; v = 0 }) with
  | Wire.Error_reply { code = `App; _ } -> ()
  | _ -> Alcotest.fail "expected `App error");
  (* Stats. *)
  (match Client.call c1 Wire.Stats with
  | Wire.Stats_reply kvs ->
    Alcotest.(check bool) "stats has generation" true (List.mem_assoc "generation" kvs)
  | _ -> Alcotest.fail "expected Stats_reply");
  Client.close c2;
  (* SIGTERM: graceful drain, final snapshot, clean exit. *)
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "server exited cleanly" true (status = Unix.WEXITED 0);
  Client.close c1;
  let reloaded = Index_serial.load snapshot in
  Index_graph.check_invariants reloaded;
  List.iter
    (fun q ->
      let a = Query_eval.eval_path_strings idx q in
      let b = Query_eval.eval_path_strings reloaded q in
      Alcotest.(check (list int)) ("snapshot query " ^ String.concat "." q) a.Query_eval.nodes
        b.Query_eval.nodes)
    smoke_queries;
  Sys.remove snapshot

(* Malformed frames against a live server: every payload is answered
   with a protocol error (or the oversized frame closes the
   connection); the server stays alive throughout. *)
let test_smoke_protocol_errors () =
  let _g, idx = build_smoke_dataset () in
  with_server ~config:{ Server.default_config with max_frame = 4096 } idx @@ fun pid port ->
  (* Well-framed junk payloads: Error_reply `Protocol, connection
     stays usable. *)
  let c = Client.connect ~port () in
  let junk_conn = Client.connect ~port () in
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 50 do
    let len = Prng.int rng 64 in
    let payload = String.init len (fun _ -> Char.chr (Prng.int rng 256)) in
    match Wire.decode_request payload with
    | Ok _ -> () (* a miracle frame; the server would serve it *)
    | Error _ -> (
      Client.send_raw_frame junk_conn payload;
      match Client.recv junk_conn with
      | { msg = Wire.Error_reply { code = `Protocol; _ }; _ } -> ()
      | _ -> Alcotest.fail "expected a protocol error")
  done;
  Client.close junk_conn;
  (* The server is still healthy. *)
  (match Client.call c Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "expected Pong after junk barrage");
  (* Version negotiation: a Hello from another protocol version is
     refused with a typed error, not a decode failure, and the
     connection survives. *)
  let hello_v9 = encode_request_payload ~id:7777 (Wire.Hello { version = 9; epoch = 0 }) in
  Client.send_raw_frame c hello_v9;
  (match Client.recv c with
  | { Wire.id = 7777; msg = Wire.Error_reply { code = `Version; _ } } -> ()
  | _ -> Alcotest.fail "expected a `Version error for a mismatched Hello");
  (* A current-version Hello gets epoch and role back. *)
  (match Client.call c (Wire.Hello { version = Wire.version; epoch = 0 }) with
  | Wire.Hello_reply { version; epoch = 0; role = Wire.Primary } ->
    Alcotest.(check int) "hello echoes our version" Wire.version version
  | _ -> Alcotest.fail "expected Hello_reply");
  (* An oversized frame closes that connection but not the server. *)
  let big = Client.connect ~port () in
  Client.send_raw_frame big (String.make 10_000 'z');
  (match Client.recv big with
  | { msg = Wire.Error_reply { code = `Protocol; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected protocol error for oversized frame"
  | exception Failure _ -> ());
  (match Client.recv big with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the oversized connection to be closed");
  Client.close big;
  (match Client.call c Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "expected Pong after oversized frame");
  (* Shutdown over the wire this time. *)
  (match Client.call c Wire.Shutdown with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected Ok_reply for Shutdown");
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "server exited cleanly" true (status = Unix.WEXITED 0);
  Client.close c

(* --------------------------------------------------------------- *)
(* Evloop: the server's poll(2) readiness loop                       *)

module Evloop = Dkindex_server.Evloop

let with_pipes n f =
  let pipes = List.init n (fun _ -> Unix.pipe ()) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (r, w) ->
          Unix.close r;
          Unix.close w)
        pipes)
    (fun () -> f pipes)

let poke w = ignore (Unix.write_substring w "x" 0 1)

(* Every (fd, mask) one [wait] reports, in report order. *)
let wait_all ev ~timeout_ms =
  let seen = ref [] in
  let n = Evloop.wait ev ~timeout_ms (fun fd mask -> seen := (fd, mask) :: !seen) in
  (n, List.rev !seen)

let test_evloop_readable () =
  with_pipes 2 @@ function
  | [ (r1, w1); (r2, _) ] ->
    let ev = Evloop.create () in
    Evloop.add ev r1 Evloop.rd;
    Evloop.add ev r2 Evloop.rd;
    poke w1;
    let n, seen = wait_all ev ~timeout_ms:1000 in
    Alcotest.(check int) "one ready" 1 n;
    (match seen with
    | [ (fd, mask) ] ->
      Alcotest.(check bool) "the written pipe" true (fd = r1);
      Alcotest.(check bool) "reported readable" true (mask land Evloop.rd <> 0)
    | _ -> Alcotest.fail "expected exactly one callback")
  | _ -> assert false

let test_evloop_timeout_zero () =
  with_pipes 1 @@ function
  | [ (r, _) ] ->
    let ev = Evloop.create () in
    Evloop.add ev r Evloop.rd;
    let n, seen = wait_all ev ~timeout_ms:0 in
    Alcotest.(check int) "nothing ready" 0 n;
    Alcotest.(check int) "no callback" 0 (List.length seen)
  | _ -> assert false

(* Both pipes are ready; whichever callback runs first removes both
   fds, so the other must not be reported, and neither is on the next
   wait. *)
let test_evloop_remove_in_callback () =
  with_pipes 2 @@ function
  | [ (r1, w1); (r2, w2) ] ->
    let ev = Evloop.create () in
    Evloop.add ev r1 Evloop.rd;
    Evloop.add ev r2 Evloop.rd;
    poke w1;
    poke w2;
    let calls = ref 0 in
    ignore
      (Evloop.wait ev ~timeout_ms:1000 (fun _ _ ->
           incr calls;
           Evloop.remove ev r1;
           Evloop.remove ev r2));
    Alcotest.(check int) "a removed fd is not reported" 1 !calls;
    let n, _ = wait_all ev ~timeout_ms:0 in
    Alcotest.(check int) "no fd left registered" 0 n
  | _ -> assert false

(* Both ends of 150 pipes are registered, 300 descriptors: more than
   the stub's on-stack poll array holds, so this runs its heap
   branch. *)
let test_evloop_many_fds () =
  with_pipes 150 @@ fun pipes ->
  let ev = Evloop.create () in
  List.iter
    (fun (r, w) ->
      Evloop.add ev r Evloop.rd;
      Evloop.add ev w Evloop.rd;
      poke w)
    pipes;
  let n, seen = wait_all ev ~timeout_ms:1000 in
  Alcotest.(check int) "every pipe ready" 150 n;
  let reported = List.map fst seen in
  List.iter
    (fun (r, _) -> Alcotest.(check bool) "read end reported" true (List.mem r reported))
    pipes

(* --------------------------------------------------------------- *)
(* Bqueue: the server's bounded MPMC queue                           *)

module Bqueue = Dkindex_server.Bqueue

let prop_bqueue_no_loss_no_dup =
  QCheck.Test.make ~count:15
    ~name:"bqueue: concurrent push/pop neither loses nor duplicates"
    QCheck.(
      make
        ~print:(fun (p, n) -> Printf.sprintf "producers=%d per_producer=%d" p n)
        Gen.(pair (int_range 1 3) (int_range 1 150)))
    (fun (nprod, per_prod) ->
      let q = Bqueue.create 8 in
      let total = nprod * per_prod in
      let popped = Array.make total (-1) in
      let pop_count = Atomic.make 0 in
      let consumers =
        Array.init 2 (fun _ ->
            Thread.create
              (fun () ->
                let rec go () =
                  match Bqueue.pop q with
                  | Some v ->
                    popped.(Atomic.fetch_and_add pop_count 1) <- v;
                    go ()
                  | None -> ()
                in
                go ())
              ())
      in
      let producers =
        Array.init nprod (fun p ->
            Thread.create
              (fun () ->
                for i = 0 to per_prod - 1 do
                  Bqueue.push q ((p * per_prod) + i)
                done)
              ())
      in
      Array.iter Thread.join producers;
      Bqueue.close q;
      Array.iter Thread.join consumers;
      (* Multiset equality with what was pushed: 0 .. total-1, each
         exactly once. *)
      if Atomic.get pop_count <> total then
        QCheck.Test.fail_reportf "popped %d of %d" (Atomic.get pop_count) total
      else begin
        let seen = Array.make total false in
        Array.for_all
          (fun v -> v >= 0 && v < total && not seen.(v) && (seen.(v) <- true; true))
          popped
      end)

let test_bqueue_sheds_at_capacity () =
  let q = Bqueue.create 2 in
  (match Bqueue.try_pop q with None -> () | Some _ -> Alcotest.fail "empty: try_pop is None");
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2);
  Alcotest.(check bool) "full: shed" false (Bqueue.try_push q 3);
  Alcotest.(check int) "length" 2 (Bqueue.length q);
  (match Bqueue.try_pop q with Some 1 -> () | _ -> Alcotest.fail "expected FIFO head 1");
  Alcotest.(check bool) "room again" true (Bqueue.try_push q 3);
  Bqueue.close q;
  Alcotest.(check bool) "closed: shed" false (Bqueue.try_push q 4);
  (match Bqueue.try_pop q with Some 2 -> () | _ -> Alcotest.fail "drain 2 without blocking");
  (match Bqueue.pop q with Some 3 -> () | _ -> Alcotest.fail "drain 3");
  (match Bqueue.try_pop q with
  | None -> ()
  | Some _ -> Alcotest.fail "closed+empty must try_pop None");
  match Bqueue.pop q with
  | None -> ()
  | Some _ -> Alcotest.fail "closed+empty must pop None"

(* Deadline expiry on the job list: a write that outlasts the deadline
   goes first (grafting a 60,000-node subgraph), and the write sent
   behind it in the same [write] call is decoded in the same frame
   batch, so it has waited longer than the deadline by the time the
   loop reaches it: it must be answered `Deadline (never silently
   dropped or applied) and counted in [deadline_expired].  If
   scheduling is so slow that the plug itself expires, the victim has
   aged just as much, so the assertion holds on either path.  Writes
   are answered in queue order. *)
let test_deadline_expiry () =
  let g, idx = build_smoke_dataset () in
  with_server ~config:{ Server.default_config with deadline_s = 0.02 } idx @@ fun pid port ->
  let c = Client.connect ~port () in
  let h =
    Dkindex_datagen.Random_graph.graph ~seed:12 ~nodes:60_000 ~n_labels:5 ~extra_edges:24_000 ()
  in
  let plug = Wire.Add_subgraph { graph = Dkindex_graph.Serial.to_string h; reqs = [] } in
  let rec absent v = if Data_graph.has_edge g 1 v then absent (v + 1) else v in
  let victim = Wire.Add_edge { u = 1; v = absent 2 } in
  let plug_id = 1 and victim_id = 2 in
  let burst =
    Bytes.of_string
      (Wire.frame_of_payload (encode_request_payload ~id:plug_id plug)
      ^ Wire.frame_of_payload (encode_request_payload ~id:victim_id victim))
  in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  ignore (Unix.write fd burst 0 (Bytes.length burst));
  let recv () =
    match Wire.read_frame ~read:(Unix.read fd) () with
    | `Frame payload -> (
      match Wire.decode_response payload with
      | Ok d -> d
      | Error msg -> Alcotest.fail ("undecodable reply: " ^ msg))
    | `Eof | `Oversized _ -> Alcotest.fail "expected a reply frame"
  in
  let r1 = recv () in
  let r2 = recv () in
  Alcotest.(check (list int)) "writes answered in queue order" [ plug_id; victim_id ]
    [ r1.Wire.id; r2.Wire.id ];
  let deadline_hits = ref 0 in
  let handle = function
    | Wire.Error_reply { code = `Deadline; _ } -> incr deadline_hits
    | Wire.Ok_reply _ -> ()
    | _ -> Alcotest.fail "unexpected response kind"
  in
  handle r1.Wire.msg;
  handle r2.Wire.msg;
  (match r2.Wire.msg with
  | Wire.Error_reply { code = `Deadline; _ } -> ()
  | _ -> Alcotest.fail "the queued second write must expire");
  (match Client.call c Wire.Stats with
  | Wire.Stats_reply kvs ->
    Alcotest.(check string) "stats count the expiries" (string_of_int !deadline_hits)
      (Option.value (List.assoc_opt "deadline_expired" kvs) ~default:"missing")
  | _ -> Alcotest.fail "expected Stats_reply");
  shutdown_server pid c

(* A pipelined read's answer equals local evaluation of its path bit
   for bit: nodes, both visit counts, candidates and certain answers. *)
let check_answer idx i labels (got : Wire.query_result) =
  let want = Query_eval.eval_path_strings idx labels in
  let field what a b =
    if a <> b then
      Alcotest.failf "read %d %s: %s expected %d, got %d" i (String.concat "." labels) what a b
  in
  if want.Query_eval.nodes <> Array.to_list got.Wire.nodes then
    Alcotest.failf "read %d %s: nodes differ" i (String.concat "." labels);
  field "index_visits" want.cost.Dkindex_pathexpr.Cost.index_visits got.index_visits;
  field "data_visits" want.cost.data_visits got.data_visits;
  field "n_candidates" want.n_candidates got.n_candidates;
  field "n_certain" want.n_certain got.n_certain

(* Send every path as a [Query_path] frame, then a Ping, before reading
   any reply; the replies must come back in send order, the reads equal
   to local evaluation and the Pong last. *)
let check_pipelined_then_ping idx c paths =
  let ids =
    List.map
      (fun labels -> Client.send c (Wire.Query_path { flags = { no_cache = true }; labels }))
      paths
  in
  let ping_id = Client.send c Wire.Ping in
  List.iteri
    (fun i (labels, id) ->
      let d = Client.recv c in
      if d.Wire.id <> id then Alcotest.failf "reply %d: id %d, expected %d" i d.Wire.id id;
      match d.Wire.msg with
      | Wire.Result r -> check_answer idx i labels r
      | _ -> Alcotest.failf "reply %d: expected Result" i)
    (List.combine paths ids);
  let d = Client.recv c in
  Alcotest.(check int) "the Ping's reply comes last" ping_id d.Wire.id;
  match d.Wire.msg with Wire.Pong -> () | _ -> Alcotest.fail "expected Pong last"

(* Pipelining over a real socket: one connection, many requests in
   flight.  Codifies the response-ordering contract that
   dkindex-loadgen --pipeline relies on: every read is answered on the
   event loop in send order, and every reply carries its request's
   frame id. *)
let test_pipelined_ordering () =
  let _g, idx = build_smoke_dataset () in
  with_server ~config:{ Server.default_config with deadline_s = 0.0 } idx @@ fun pid port ->
  let c = Client.connect ~port () in
  (* Phase 1: a pipeline of 8 queries is answered in send order,
     every answer bit-for-bit against the local oracle. *)
  let qs = smoke_queries @ smoke_queries in
  let ids =
    List.map
      (fun labels -> Client.send c (Wire.Query_path { flags = { no_cache = true }; labels }))
      qs
  in
  let rs = List.map (fun _ -> Client.recv c) ids in
  Alcotest.(check (list int)) "query pipeline is FIFO" ids (List.map (fun d -> d.Wire.id) rs);
  List.iter2
    (fun labels d ->
      let want = Query_eval.eval_path_strings idx labels in
      match d.Wire.msg with
      | Wire.Result r ->
        Alcotest.(check (list int))
          ("pipelined " ^ String.concat "." labels ^ ": nodes")
          want.Query_eval.nodes (Array.to_list r.Wire.nodes)
      | _ -> Alcotest.fail "expected Result")
    qs rs;
  (* Phase 2: 64 reads and a Ping behind them, all sent before any
     reply is read, come back in send order, bit-for-bit. *)
  check_pipelined_then_ping idx c (List.init 64 (fun i -> List.nth smoke_queries (i mod 4)));
  shutdown_server pid c

(* Every read is answered on the event loop, so a Ping pipelined
   behind a batch of 8,000 reads comes back after all of them, and
   each read equals local evaluation bit for bit. *)
let test_batch_in_send_order () =
  let _g, idx = build_smoke_dataset () in
  with_server idx @@ fun pid port ->
  let c = Client.connect ~port () in
  let labels = [| "l0"; "l1"; "l2"; "l3"; "l4" |] in
  let path i = List.init (1 + (i mod 4)) (fun j -> labels.(((i / 4) + (j * (i + 1))) mod 5)) in
  check_pipelined_then_ping idx c (List.init 8000 path);
  shutdown_server pid c

(* A launch's stages are timed once each and reported in [Stats]; a
   stage the launch skipped reads 0.  The uptime counts from the
   launch's start, so the stages sum to at most it. *)
let test_launch_stages () =
  let launch = Server.launch () in
  let g =
    Server.stage launch Datagen (fun () -> Dkindex_datagen.Xmark.graph ~seed:1 ~scale:20 ())
  in
  let idx = Server.stage launch Index_build (fun () -> Dkindex_server.Dataset.build g) in
  with_server ~launch idx @@ fun pid port ->
  let c = Client.connect ~port () in
  let kvs =
    match Client.call c Wire.Stats with
    | Wire.Stats_reply kvs -> kvs
    | _ -> Alcotest.fail "expected Stats_reply"
  in
  let get key =
    match Option.bind (List.assoc_opt key kvs) float_of_string_opt with
    | Some v when v >= 0.0 -> v
    | _ -> Alcotest.failf "%s missing or not a non-negative number" key
  in
  let stages =
    List.map
      (fun key -> (key, get ("launch_" ^ key ^ "_ms")))
      [ "datagen"; "index_build"; "recover"; "checkpoint"; "prepare" ]
  in
  let ms key = List.assoc key stages in
  Alcotest.(check bool) "datagen timed" true (ms "datagen" > 0.0);
  Alcotest.(check bool) "index build timed" true (ms "index_build" > 0.0);
  Alcotest.(check (float 0.0)) "no recovery" 0.0 (ms "recover");
  Alcotest.(check (float 0.0)) "no checkpoint" 0.0 (ms "checkpoint");
  let sum_s = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 stages /. 1000.0 in
  let uptime = get "uptime_s" in
  if sum_s > uptime then Alcotest.failf "stages sum to %.4f s, uptime is %.3f s" sum_s uptime;
  (* What the process had collected and allocated at ready: whole
     numbers, and the launch above allocated. *)
  let gc key =
    match Option.bind (List.assoc_opt key kvs) int_of_string_opt with
    | Some v when v >= 0 -> v
    | _ -> Alcotest.failf "%s missing or not a non-negative integer" key
  in
  ignore (gc "launch_minor_gcs" + gc "launch_major_gcs");
  Alcotest.(check bool) "launch_alloc_words counts the launch" true (gc "launch_alloc_words" > 0);
  shutdown_server pid c

(* The launch path (datagen, D(k) build, prepare) at the pinned scale
   400, measured in words: minor allocations from [Gc.minor_words],
   direct major allocations (large arrays) as major minus promoted
   words.  The runtime folds direct allocations into its counters one
   collection late, so each reading runs two minor collections first:
   without them, allocations made before the test leaked into the
   window (27k words after the other smoke tests).  The budgets sit about 20% above the measured values
   (OCaml 5.1.1); the boxed PRNG state, the per-node closures of
   [Data_graph.iter_edges], the launch-time label table and one fresh
   class array per refinement round each took the launch past them. *)
let test_launch_allocation () =
  let reading () =
    Gc.minor ();
    Gc.minor ();
    let s = Gc.quick_stat () in
    (Gc.minor_words (), s.Gc.major_words -. s.Gc.promoted_words)
  in
  let minor0, direct0 = reading () in
  let g = Dkindex_datagen.Xmark.graph ~seed:1 ~scale:400 () in
  let idx = Dkindex_server.Dataset.build g in
  Index_graph.prepare_serving idx;
  let minor1, direct1 = reading () in
  let minor = minor1 -. minor0 and direct = direct1 -. direct0 in
  Printf.printf "launch at scale 400: %.0f minor words, %.0f direct major words\n%!" minor direct;
  if minor > 372_000. then Alcotest.failf "%.0f minor words (budget 372,000)" minor;
  if direct > 350_000. then Alcotest.failf "%.0f direct major words (budget 350,000)" direct

(* The server keeps one copy of the index, so a write that fails must
   fail before it changes anything.  One rejected write of each kind —
   an out-of-range edge addition and removal, the removal of a missing
   edge, an unparsable subgraph, and a subgraph whose root label is not
   unique in it (refused by [Dk_update.add_subgraph] after the graft) —
   each between valid writes.  After each, the served answers equal a
   local Dk_update oracle that saw only the valid writes, and the
   [Snapshot] file holds exactly the oracle's [Index_serial] text. *)
let test_failed_writes_untouched () =
  let g, idx = build_smoke_dataset () in
  let dir = Filename.temp_file "dkserve_failed" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "served.index" in
  with_server ~config:{ Server.default_config with snapshot_path = Some path } idx
  @@ fun pid port ->
  let c = Client.connect ~port () in
  let n = Data_graph.n_nodes g in
  let rng = Prng.create ~seed:31 in
  let added = ref [] in
  let write req =
    match Client.call c req with
    | Wire.Ok_reply _ -> ()
    | _ -> Alcotest.fail "expected Ok_reply"
  in
  let add_some k =
    let applied = ref 0 in
    while !applied < k do
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v && not (Data_graph.has_edge g u v) then begin
        write (Wire.Add_edge { u; v });
        Dk_update.add_edge idx u v;
        added := (u, v) :: !added;
        incr applied
      end
    done
  in
  let labels = List.init 5 (Printf.sprintf "l%d") in
  let paths = List.concat_map (fun a -> [ a ] :: List.map (fun b -> [ a; b ]) labels) labels in
  let check_all what =
    Index_graph.prepare_serving idx;
    List.iter
      (fun path ->
        let want = Query_eval.eval_path_strings idx path in
        let got =
          expect_result
            (Client.call c (Wire.Query_path { flags = { no_cache = true }; labels = path }))
        in
        Alcotest.(check (list int))
          (what ^ " " ^ String.concat "." path)
          want.Query_eval.nodes (Array.to_list got.Wire.nodes);
        Alcotest.(check int) (what ^ " index_visits") want.cost.Dkindex_pathexpr.Cost.index_visits
          got.index_visits)
      paths;
    write Wire.Snapshot;
    let served = In_channel.with_open_bin path In_channel.input_all in
    let { Index_serial.bytes; off; len } = Index_serial.encode_compact idx in
    if not (String.equal served (Bytes.sub_string bytes off len)) then
      Alcotest.failf "%s: the snapshot differs from the oracle's compact body" what
  in
  let reject what req =
    (match Client.call c req with
    | Wire.Error_reply { code = `App; _ } -> ()
    | _ -> Alcotest.failf "%s: expected an `App error" what);
    check_all ("after " ^ what)
  in
  let root_label_twice =
    let pool = Label.Pool.create () in
    let r = Label.Pool.intern pool "l0" in
    Data_graph.make ~pool ~labels:[| r; r |] ~edges:[ (0, 1) ] ()
  in
  check_all "read-only";
  add_some 3;
  reject "an out-of-range Add_edge" (Wire.Add_edge { u = n + 7; v = 0 });
  add_some 2;
  reject "an out-of-range Remove_edge" (Wire.Remove_edge { u = 0; v = n + 7 });
  (match !added with
  | (u, v) :: rest ->
    write (Wire.Remove_edge { u; v });
    Dk_update.remove_edge idx u v;
    added := rest
  | [] -> ());
  (* A missing edge into a node whose class has k > 0: removing it
     would lower that k if the update ran before the edge check. *)
  let missing =
    let rec find v =
      let nd = Index_graph.node idx (Index_graph.cls idx v) in
      if nd.Index_graph.k > 0 && not (Data_graph.has_edge g 0 v) then (0, v) else find (v + 1)
    in
    find 1
  in
  reject "a Remove_edge of a missing edge"
    (Wire.Remove_edge { u = fst missing; v = snd missing });
  add_some 2;
  reject "an unparsable Add_subgraph" (Wire.Add_subgraph { graph = "not a graph"; reqs = [] });
  add_some 2;
  reject "an Add_subgraph whose root label is not unique"
    (Wire.Add_subgraph { graph = Dkindex_graph.Serial.to_string root_label_twice; reqs = [] });
  add_some 2;
  check_all "after the last valid writes";
  shutdown_server pid c;
  Sys.remove path;
  Unix.rmdir dir

(* The served index is never flattened after a write, yet its reads
   see every adjacency in fold order ([Index_graph.keep_sorted]): after
   the pinned update stream, every query of the pinned workload equals
   a flattened local copy's answer bit for bit, visit counts included —
   the dkindex-loadgen --check contract, at XMark scale 10. *)
let test_reads_in_fold_order () =
  let ds = Dkindex_server.Dataset.make ~scale:10 () in
  with_server ds.index @@ fun pid port ->
  let c = Client.connect ~port () in
  List.iter
    (fun (u, v) ->
      if not (Data_graph.has_edge ds.graph u v) then begin
        (match Client.call c (Wire.Add_edge { u; v }) with
        | Wire.Ok_reply _ -> ()
        | _ -> Alcotest.fail "expected Ok_reply");
        Dk_update.add_edge ds.index u v
      end)
    ds.update_edges;
  Index_graph.prepare_serving ds.index;
  List.iter (check_against_local ds.index c) ds.queries;
  shutdown_server pid c

(* One generation clock on the wire: every write's ack carries a higher
   generation than the last, a Demote that returns a new index object
   included, and the read sent right after it (and Stats) report the
   same one. *)
let test_one_generation_clock () =
  let g, idx = build_smoke_dataset () in
  with_server idx @@ fun pid port ->
  let c = Client.connect ~port () in
  let rec absent u v = if v = u || Data_graph.has_edge g u v then absent u (v + 1) else v in
  let last = ref (-1) in
  List.iter
    (fun (what, req) ->
      let acked =
        match Client.call c req with
        | Wire.Ok_reply { generation; _ } -> generation
        | _ -> Alcotest.failf "%s: expected Ok_reply" what
      in
      if acked <= !last then Alcotest.failf "%s: ack generation %d after %d" what acked !last;
      last := acked;
      let read =
        expect_result
          (Client.call c (Wire.Query_path { flags = { no_cache = true }; labels = [ "l0" ] }))
      in
      Alcotest.(check int) (what ^ ": the next read's generation") acked read.Wire.generation)
    [
      ("Add_edge", Wire.Add_edge { u = 1; v = absent 1 0 });
      ("Demote", Wire.Demote [ ("l1", 1) ]);
      ("Add_edge", Wire.Add_edge { u = 3; v = absent 3 0 });
    ];
  (match Client.call c Wire.Stats with
  | Wire.Stats_reply kvs ->
    Alcotest.(check (option string)) "Stats generation" (Some (string_of_int !last))
      (List.assoc_opt "generation" kvs)
  | _ -> Alcotest.fail "expected Stats_reply");
  shutdown_server pid c

(* Failed and valid writes alternate with cached reads.  The server
   keeps one index and so at most one validation cache, and the
   exported hits and misses never go backwards (a cache dropped with a
   replaced index moves its counters into retired totals). *)
let test_vcache_retirement () =
  let g, idx = build_smoke_dataset () in
  with_server idx @@ fun pid port ->
  let c = Client.connect ~port () in
  let n = Data_graph.n_nodes g in
  let rng = Prng.create ~seed:41 in
  let added = Hashtbl.create 64 in
  let rec fresh_edge () =
    let u = Prng.int rng n and v = Prng.int rng n in
    if u = v || Data_graph.has_edge g u v || Hashtbl.mem added (u, v) then fresh_edge ()
    else begin
      Hashtbl.add added (u, v) ();
      (u, v)
    end
  in
  let stat kvs key =
    match List.assoc_opt key kvs with
    | Some v -> int_of_string v
    | None -> Alcotest.failf "Stats lacks %s" key
  in
  let expr = Path_ast.(Seq (Label "l1", Star (Label "l2"))) in
  let last_probes = ref 0 in
  for round = 1 to 30 do
    (match Client.call c (Wire.Add_edge { u = n + 7; v = 0 }) with
    | Wire.Error_reply { code = `App; _ } -> ()
    | _ -> Alcotest.fail "expected `App error for an out-of-range node");
    let u, v = fresh_edge () in
    (match Client.call c (Wire.Add_edge { u; v }) with
    | Wire.Ok_reply _ -> ()
    | _ -> Alcotest.fail "expected Ok_reply");
    (* A regex read compiles its automaton through the cache. *)
    for _ = 0 to round mod 3 do
      ignore
        (expect_result (Client.call c (Wire.Query_planned { flags = { no_cache = false }; expr })))
    done;
    match Client.call c Wire.Stats with
    | Wire.Stats_reply kvs ->
      let instances = stat kvs "vcache_instances" in
      if instances > 1 then Alcotest.failf "round %d: %d validation caches" round instances;
      let probes = stat kvs "vcache_hits" + stat kvs "vcache_misses" in
      if probes < !last_probes then
        Alcotest.failf "round %d: vcache hits + misses fell from %d to %d" round !last_probes
          probes;
      last_probes := probes
    | _ -> Alcotest.fail "expected Stats_reply"
  done;
  Alcotest.(check bool) "the reads probed the caches" true (!last_probes > 0);
  shutdown_server pid c

(* [Snapshot] is acknowledged only once the file is in place: it loads,
   answers like the served index, and no temp file is left behind —
   for the explicit request and for the final snapshot of the drain. *)
let test_snapshot_durable () =
  let _g, idx = build_smoke_dataset () in
  let dir = Filename.temp_file "dkserve_snap" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "served.index" in
  with_server ~config:{ Server.default_config with snapshot_path = Some path } idx @@ fun pid port ->
  let c = Client.connect ~port () in
  let check_file what =
    Alcotest.(check (list string)) (what ^ ": only the snapshot in its directory")
      [ "served.index" ]
      (List.sort compare (Array.to_list (Sys.readdir dir)));
    let loaded = Index_serial.load path in
    Index_graph.check_invariants loaded;
    check_same_answers ~what idx loaded
  in
  (match Client.call c Wire.Snapshot with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected Ok_reply for Snapshot");
  check_file "acknowledged snapshot";
  Sys.remove path;
  shutdown_server pid c;
  check_file "drain snapshot";
  Sys.remove path;
  Unix.rmdir dir

(* A history check on an in-process server: [Server.run] on a
   systhread, one client streaming edge additions while two reader
   threads query.  Each answer — nodes and validation costs — must
   equal the oracle after some prefix of the stream that includes every
   write acknowledged before the read was sent and none not yet sent
   when its answer arrived: a read sees whole writes, in order, never a
   half-applied one.  The server spawns no domain, so after it shuts
   down this process can still fork. *)
let test_snapshot_churn () =
  let g, idx = build_smoke_dataset () in
  (* A fixed stream of valid edge additions. *)
  let n = Data_graph.n_nodes g in
  let rng = Prng.create ~seed:7 in
  let updates = ref [] in
  while List.length !updates < 16 do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && (not (Data_graph.has_edge g u v)) && not (List.mem (u, v) !updates) then
      updates := !updates @ [ (u, v) ]
  done;
  let updates = !updates in
  (* Oracle signatures: for each query, the prefix lengths whose state
     answers with each signature. *)
  let signature nodes iv dv nc ns =
    Printf.sprintf "%s|%d|%d|%d|%d" (String.concat "," (List.map string_of_int nodes)) iv dv nc ns
  in
  let allowed = List.map (fun q -> (q, Hashtbl.create 32)) smoke_queries in
  let record prefix =
    Index_graph.prepare_serving idx;
    List.iter
      (fun (q, tbl) ->
        let r = Query_eval.eval_path_strings idx q in
        Hashtbl.add tbl
          (signature r.Query_eval.nodes r.cost.Dkindex_pathexpr.Cost.index_visits
             r.cost.data_visits r.n_candidates r.n_certain)
          prefix)
      allowed
  in
  record 0;
  List.iteri
    (fun i (u, v) ->
      Dk_update.add_edge idx u v;
      record (i + 1))
    updates;
  let _, fresh_idx = build_smoke_dataset () in
  let port = Atomic.make 0 in
  let outcome = ref (Error "server never returned") in
  let server =
    Thread.create
      (fun () ->
        outcome :=
          Server.run ~handle_signals:false
            ~on_ready:(Atomic.set port)
            { Server.default_config with port = 0; deadline_s = 0.0 }
            fresh_idx)
      ()
  in
  while Atomic.get port = 0 do
    Thread.delay 0.001
  done;
  let port = Atomic.get port in
  let sent = Atomic.make 0 and acked = Atomic.make 0 and stop = Atomic.make false in
  let tallies = Array.make 2 (0, []) in
  let reader d =
    let c = Client.connect ~port () in
    let served = ref 0 and bad = ref [] and i = ref d in
    while not (Atomic.get stop) do
      let q, tbl = List.nth allowed (!i mod List.length allowed) in
      let lo = Atomic.get acked in
      let reply = Client.call c (Wire.Query_path { flags = { no_cache = true }; labels = q }) in
      let hi = Atomic.get sent in
      (match reply with
      | Wire.Result r ->
        let got =
          signature (Array.to_list r.Wire.nodes) r.Wire.index_visits r.Wire.data_visits
            r.Wire.n_candidates r.Wire.n_certain
        in
        if not (List.exists (fun p -> lo <= p && p <= hi) (Hashtbl.find_all tbl got)) then
          bad := Printf.sprintf "query %s after %d..%d writes got %s" (String.concat "." q) lo hi got
                 :: !bad
      | _ -> bad := "non-Result reply" :: !bad);
      incr served;
      incr i
    done;
    Client.close c;
    tallies.(d) <- (!served, !bad)
  in
  let readers = List.init 2 (Thread.create reader) in
  let cw = Client.connect ~port () in
  List.iter
    (fun (u, v) ->
      Atomic.incr sent;
      (match Client.call cw (Wire.Add_edge { u; v }) with
      | Wire.Ok_reply _ -> ()
      | _ -> Alcotest.fail "expected Ok_reply for the churn update");
      Atomic.incr acked;
      (* Let readers land between writes so many prefixes get
         observed. *)
      Thread.delay 0.005)
    updates;
  Thread.delay 0.02;
  Atomic.set stop true;
  List.iter Thread.join readers;
  let total = Array.fold_left (fun a (s, _) -> a + s) 0 tallies in
  (match List.concat_map snd (Array.to_list tallies) with
  | [] -> ()
  | first :: _ as bad ->
    Alcotest.failf "%d answer(s) match no allowed prefix; first: %s" (List.length bad) first);
  Alcotest.(check bool) "readers made progress during churn" true (total > 20);
  (* Converged: the post-stream server answers equal the full-prefix
     oracle exactly. *)
  List.iter (check_against_local idx cw) smoke_queries;
  (match Client.call cw Wire.Shutdown with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected Ok_reply for Shutdown");
  Client.close cw;
  Thread.join server;
  (match !outcome with Ok () -> () | Error e -> Alcotest.failf "server: %s" e);
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | child ->
    let _, status = Unix.waitpid [] child in
    Alcotest.(check bool) "fork after an in-process server" true (status = Unix.WEXITED 0)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          to_alcotest prop_request_roundtrip;
          to_alcotest prop_response_roundtrip;
          to_alcotest prop_expr_roundtrip;
          to_alcotest prop_fuzz_random_bytes;
          to_alcotest prop_fuzz_truncated;
          to_alcotest prop_fuzz_mutated;
          Alcotest.test_case "read_frame: chunked reads" `Quick test_read_frame_chunked;
          Alcotest.test_case "read_frame: oversized" `Quick test_read_frame_oversized;
          Alcotest.test_case "read_frame: torn stream" `Quick test_read_frame_torn;
          Alcotest.test_case "framing allocation is constant" `Quick test_framing_allocation;
        ] );
      ( "wal",
        [
          to_alcotest prop_wal_roundtrip;
          to_alcotest prop_wal_truncation;
          to_alcotest prop_wal_bitflip;
          to_alcotest prop_wal_fuzz;
          to_alcotest prop_wal_body_is_wire_body;
        ] );
      ("index_serial", [ to_alcotest prop_serial_roundtrip_after_churn ]);
      ( "smoke",
        [
          Alcotest.test_case "mixed traffic, SIGTERM drain, snapshot" `Quick test_smoke;
          Alcotest.test_case "malformed frames, wire shutdown" `Quick test_smoke_protocol_errors;
          Alcotest.test_case "queued requests expire against the deadline" `Quick
            test_deadline_expiry;
          Alcotest.test_case "pipelined requests: FIFO inline, id-matched, batches in send order"
            `Quick test_pipelined_ordering;
          Alcotest.test_case "a batch and a Ping behind it: replies in send order" `Quick
            test_batch_in_send_order;
          Alcotest.test_case "rejected writes leave the one index untouched" `Quick
            test_failed_writes_untouched;
          Alcotest.test_case "launch stages timed, within the uptime" `Quick test_launch_stages;
          Alcotest.test_case "a scale-400 launch allocates within its budget" `Quick
            test_launch_allocation;
          Alcotest.test_case "reads after writes equal a flattened oracle, visits included" `Quick
            test_reads_in_fold_order;
          Alcotest.test_case "acks, reads and Stats share one write generation" `Quick
            test_one_generation_clock;
          Alcotest.test_case "failed writes: dropped validation caches retire" `Quick
            test_vcache_retirement;
          Alcotest.test_case "snapshot durable and loadable when acknowledged" `Quick
            test_snapshot_durable;
          Alcotest.test_case "no torn reads under snapshot churn" `Quick test_snapshot_churn;
        ] );
      ( "queue",
        [
          to_alcotest prop_bqueue_no_loss_no_dup;
          Alcotest.test_case "try_push sheds at capacity; close drains" `Quick
            test_bqueue_sheds_at_capacity;
        ] );
      ( "evloop",
        [
          Alcotest.test_case "a written pipe is reported readable" `Quick test_evloop_readable;
          Alcotest.test_case "timeout 0 with nothing ready returns 0" `Quick
            test_evloop_timeout_zero;
          Alcotest.test_case "a callback removes its own fd and another" `Quick
            test_evloop_remove_in_callback;
          Alcotest.test_case "300 descriptors, all reported ready" `Quick test_evloop_many_fds;
        ] );
    ]
