(* The index codecs and the shared CRC-32 against fixed bytes and
   against their reference implementations (Ref_codec).

   - Goldens: the MD5 of Index_serial.to_string for the Golden_inputs
     indexes, recorded from earlier codecs ((a)-(c) from the
     line-splitting one, (d) from the Buffer encoder now in Ref_codec),
     so the format cannot drift even if encoder and decoder drift
     together.  A committed checkpoint directory written by the first
     (snapshot, CRC sidecar, WAL) must recover, and a version-1
     document must load.
   - Differential encoding: random indexes must encode to the bytes
     the reference encoders write.  A failure prints its seed.
   - Differential decoding: random indexes and random edits of their
     text (truncation, digit replacement, deleted, duplicated and
     swapped lines) must be accepted or rejected alike by the decoders
     and their references, and what both accept must re-encode to the
     same bytes.  A failure prints its seed.
   - The compact body: MD5 goldens of encode_compact for the same
     inputs; every body decodes to its index's text (the goldens, and
     random indexes in a seeded property); every truncation of a small
     body is refused and every one-byte change loads or is refused
     with the decoder's Failure, never another exception; a body
     declaring 2^40 nodes is refused before anything is allocated.  A
     data directory written before the compact body (a headered text
     checkpoint and its WAL) recovers, and checkpoints compact next.
   - CRC-32 (slicing-by-8): the standard check value, and agreement
     with the byte-at-a-time reference on random substrings, whole and
     fed to [Crc32.update] in chunks split at random points.
   - Text_buf: integers and lines as Buffer writes them, growth from
     any starting size, and the gap [prepend] fills.
   - Cursor.varint: LEB128 as a reference writer spells it, and
     overlong encodings refused. *)

open Dkindex_core
open Dkindex_baselines
open Testlib
module Data_graph = Dkindex_graph.Data_graph
module Builder = Dkindex_graph.Builder
module Serial = Dkindex_graph.Serial
module Prng = Dkindex_datagen.Prng
module Checkpoint = Dkindex_server.Checkpoint
module Wal = Dkindex_server.Wal

let digest s = Digest.to_hex (Digest.string s)

(* ----------------------------------------------------------------- *)
(* Goldens *)

let golden name build expected =
  test name (fun () ->
      check_string "digest of to_string" expected (digest (Index_serial.to_string (build ()))))

let v1_as_v2 =
  "dkindex-index 2\ncounts 4 4 3\ngraph 68\ndkindex-graph 2\nnodes 4\nROOT\na\nb\na\nedges 4\n\
   0 1\n0 3\n1 2\n3 2\nvalues 0\ncls\n0\n1\n2\n1\nclasses 3\n-1 -1\n1 2\n0 0\n"

(* The committed checkpoint directory test/golden, found from the
   executable rather than the working directory: [dune runtest] copies
   it beside the executable, and otherwise the source copy is three
   levels up from _build/default/test. *)
let fixture_dir =
  let here = Filename.dirname Sys.executable_name in
  let beside = Filename.concat here "golden" in
  if Sys.file_exists beside then beside
  else List.fold_left Filename.concat here [ ".."; ".."; ".."; "test"; "golden" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden_tests =
  [
    golden "(a) pinned scale-40 index" Golden_inputs.pinned "6f64fd0b5f474fc311b0a8d52fcd1f86";
    golden "(b) edited index, overflow unflattened" Golden_inputs.edited
      "0a9db3416fc567318ce2e12b655c5699";
    golden "(c) escaped payloads, k = infinity" Golden_inputs.escapes
      "4f3faf75a8c4501f87f7cbda62924cac";
    golden "(d) pinned scale-2000 index, 6-digit ids" Golden_inputs.pinned_2000
      "1b39e029eea2e2079ddf19bca2b7b83f";
    test "(b) keeps overflow additions and tombstones" (fun () ->
        let idx = Golden_inputs.edited () in
        let extra, deleted = Data_graph.overflow (Index_graph.data idx) in
        check_bool "overflow additions" true (extra > 0);
        check_bool "tombstones" true (deleted > 0);
        (* The canonical order is the flat order: flattening a copy
           changes no byte. *)
        let flat = Index_graph.copy idx in
        Data_graph.flatten (Index_graph.data flat);
        check_string "flattened copy" (Index_serial.to_string idx) (Index_serial.to_string flat));
    test "(c) payloads and labels survive the round trip" (fun () ->
        let idx = Golden_inputs.escapes () in
        let back = Index_serial.of_string (Index_serial.to_string idx) in
        let g = Index_graph.data idx and g' = Index_graph.data back in
        for u = 0 to Data_graph.n_nodes g - 1 do
          check_string "label" (Data_graph.label_name g u) (Data_graph.label_name g' u);
          check_bool "payload" true (Data_graph.value g u = Data_graph.value g' u)
        done;
        check_bool "every payload present" true
          (List.for_all
             (fun p ->
               let found = ref false in
               Data_graph.iter_values g' (fun _ q -> if String.equal p q then found := true);
               !found)
             Golden_inputs.payloads));
    test "version-1 document loads" (fun () ->
        check_string "re-encoded as v2" v1_as_v2
          (Index_serial.to_string (Index_serial.of_string Golden_inputs.v1_document)));
    test "committed checkpoint re-encodes byte for byte" (fun () ->
        let s = read_file (Checkpoint.checkpoint_file ~dir:fixture_dir ~seq:0) in
        (* A pre-header generation: its sidecar checks it, and
           contradicts a copy with one label letter changed, which
           still parses. *)
        check_bool "sidecar accepts it" true
          (Checkpoint.body ~generation:(fixture_dir, 0) s = Ok s);
        let flipped = Bytes.of_string s in
        let i = String.index_from s (String.index s '\n') 'R' in
        Bytes.set flipped i 'Q';
        let flipped = Bytes.to_string flipped in
        ignore (Index_serial.of_string flipped);
        check_bool "sidecar refuses a parseable flip" true
          (Result.is_error (Checkpoint.body ~generation:(fixture_dir, 0) flipped));
        check_string "fixture is the base index"
          (Index_serial.to_string (Golden_inputs.fixture_base ()))
          s;
        check_string "decode then encode" s (Index_serial.to_string (Index_serial.of_string s)));
    test "a pre-header directory ships with a header and upgrades" (fun () ->
        let fixture = read_file (Checkpoint.checkpoint_file ~dir:fixture_dir ~seq:0) in
        (match Checkpoint.newest_checkpoint ~dir:fixture_dir with
        | Some (0, file) ->
          check_bool "shipped with a header over the same document" true
            (Checkpoint.body file = Ok fixture)
        | _ -> Alcotest.fail "no checkpoint to ship");
        let dir = Filename.temp_file "dkcodec" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        Fun.protect ~finally:(fun () ->
            Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
            Unix.rmdir dir)
        @@ fun () ->
        Array.iter
          (fun n ->
            Out_channel.with_open_bin (Filename.concat dir n) (fun oc ->
                Out_channel.output_string oc (read_file (Filename.concat fixture_dir n))))
          (Sys.readdir fixture_dir);
        let r = Checkpoint.recover ~dir () in
        let idx = Option.get r.Checkpoint.index in
        let d = Checkpoint.start ~recovery:r (Checkpoint.default_config ~dir) idx in
        (match Checkpoint.checkpoint_now d idx with Ok () -> () | Error e -> Alcotest.fail e);
        (match Checkpoint.close d idx with Ok () -> () | Error e -> Alcotest.fail e);
        check_bool "the sidecar went with its pruned generation" false
          (Array.exists (fun n -> Filename.check_suffix n ".crc") (Sys.readdir dir));
        let r' = Checkpoint.recover ~dir () in
        check_int "recovered from a new generation" 2 r'.Checkpoint.checkpoint_seq;
        check_string "same state" (Index_serial.to_string idx)
          (Index_serial.to_string (Option.get r'.Checkpoint.index)));
    test "committed checkpoint directory recovers" (fun () ->
        let r = Checkpoint.recover ~dir:fixture_dir () in
        check_int "checkpoint generation" 0 r.Checkpoint.checkpoint_seq;
        check_int "replayed the logged records" (List.length (Golden_inputs.fixture_log ()))
          r.Checkpoint.replayed_records;
        check_int "no fallback" 0 r.Checkpoint.fallback_checkpoints;
        check_int "no replay errors" 0 r.Checkpoint.replay_errors;
        let idx =
          match r.Checkpoint.index with Some i -> i | None -> Alcotest.fail "nothing recovered"
        in
        check_string "recovered state" "2ecbe27fc5af4bd8e853ba3a238663e9"
          (digest (Index_serial.to_string idx));
        let oracle =
          List.fold_left Checkpoint.apply_mutation (Golden_inputs.fixture_base ())
            (Golden_inputs.fixture_log ())
        in
        check_string "equals the logged state" (Index_serial.to_string oracle)
          (Index_serial.to_string idx));
  ]

(* ----------------------------------------------------------------- *)
(* Differential decoding *)

type verdict = Accepted of string | Rejected of string

let verdict decode encode s =
  match decode s with
  | x -> Accepted (encode x)
  | exception e -> Rejected (Printexc.to_string e)

let show = function Accepted _ -> "accepted" | Rejected e -> "rejected: " ^ e

(* [None] if the decoders agree, else what each did. *)
let disagreement ~decode ~reference ~encode s =
  match (verdict decode encode s, verdict reference encode s) with
  | Accepted a, Accepted b when String.equal a b -> None
  | Rejected _, Rejected _ -> None
  | Accepted _, Accepted _ -> Some "both accept, re-encodings differ"
  | got, want -> Some (Printf.sprintf "decoder %s, reference %s" (show got) (show want))

let index_disagreement =
  disagreement ~decode:Index_serial.of_string ~reference:Ref_codec.index_of_string
    ~encode:Index_serial.to_string

let graph_disagreement =
  disagreement ~decode:Serial.of_string ~reference:Ref_codec.serial_of_string
    ~encode:Serial.to_string

let labels = [| "a"; "b"; "c"; "a b"; "x%y"; "VALUE" |]
let payload_chars = "ab %\n\r0AD25 "

let random_payload rng =
  String.init (Prng.int rng 6) (fun _ -> payload_chars.[Prng.int rng (String.length payload_chars)])

(* A random index over a random graph with awkward labels and
   payloads (none at all in one graph of five, and some set out of
   node order or twice); a D(k)-index is sometimes left with
   unflattened edge updates, additions and tombstones (Dk_update
   maintains D(k) only), and a 1-index has k = infinity throughout. *)
let random_index rng =
  let b = Builder.create () in
  let n = Prng.range rng 2 60 in
  let p_value = if Prng.bool rng 0.2 then 0.0 else 0.3 in
  for i = 1 to n - 1 do
    let u = Builder.add_child b ~parent:(Prng.int rng i) (Prng.choose rng labels) in
    if Prng.bool rng p_value then Builder.set_value b u (random_payload rng)
  done;
  if p_value > 0.0 then
    for _ = 1 to Prng.int rng 4 do
      Builder.set_value b (Prng.int rng n) (random_payload rng)
    done;
  for _ = 1 to Prng.int rng n do
    Builder.add_edge b (Prng.int rng n) (Prng.int rng n)
  done;
  let g = Builder.build b in
  match Prng.int rng 3 with
  | 0 -> Label_split.build g
  | 1 -> One_index.build g
  | _ ->
    let idx =
      Dk_index.build g ~reqs:(List.map (fun l -> (l, Prng.int rng 4)) [ "a"; "b"; "c"; "a b" ])
    in
    if Prng.bool rng 0.5 then
      for _ = 1 to Prng.int rng 6 do
        let u = Prng.int rng n and v = Prng.int rng n in
        if Data_graph.has_edge g u v then Dk_update.remove_edge idx u v
        else Dk_update.add_edge idx u v
      done;
    idx

let edit rng s =
  let lines () = Array.of_list (String.split_on_char '\n' s) in
  let join a = String.concat "\n" (Array.to_list a) in
  match Prng.int rng 5 with
  | 0 ->
    let at = Prng.int rng (String.length s + 1) in
    (Printf.sprintf "truncate at %d" at, String.sub s 0 at)
  | 1 -> (
    let digits =
      List.filter (fun i -> s.[i] >= '0' && s.[i] <= '9') (List.init (String.length s) Fun.id)
    in
    match digits with
    | [] -> ("no digit to replace", s)
    | _ ->
      let at = Prng.choose_list rng digits and d = Char.chr (48 + Prng.int rng 10) in
      (Printf.sprintf "digit at %d -> %c" at d, String.mapi (fun i c -> if i = at then d else c) s))
  | 2 ->
    let a = lines () in
    let i = Prng.int rng (Array.length a) in
    ( Printf.sprintf "delete line %d" i,
      join (Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list a))) )
  | 3 ->
    let a = lines () in
    let i = Prng.int rng (Array.length a) in
    ( Printf.sprintf "duplicate line %d" i,
      join (Array.concat [ Array.sub a 0 (i + 1); Array.sub a i (Array.length a - i) ]) )
  | _ ->
    let a = lines () in
    let i = Prng.int rng (Array.length a) and j = Prng.int rng (Array.length a) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    (Printf.sprintf "swap lines %d and %d" i j, join a)

(* One to three edits in a row, and what they were. *)
let edits rng s =
  let rec go k acc s =
    if k = 0 then (List.rev acc, s)
    else
      let what, s = edit rng s in
      go (k - 1) (what :: acc) s
  in
  go (Prng.range rng 1 3) [] s

let differential_prop =
  QCheck.Test.make ~count:300 ~name:"decoders agree with the references on edited documents"
    (QCheck.make ~print:(Printf.sprintf "seed=%d") QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create ~seed in
      let idx = random_index rng in
      let itext = Index_serial.to_string idx and gtext = Serial.to_string (Index_graph.data idx) in
      let check kind disagree original =
        (match disagree original with
        | Some why -> QCheck.Test.fail_reportf "seed %d: unedited %s: %s" seed kind why
        | None -> ());
        for _ = 1 to 4 do
          let what, s = edits rng original in
          match disagree s with
          | Some why ->
            QCheck.Test.fail_reportf "seed %d: %s after [%s]: %s" seed kind
              (String.concat "; " what) why
          | None -> ()
        done
      in
      check "index" index_disagreement itext;
      check "graph" graph_disagreement gtext;
      true)

let encoder_prop =
  QCheck.Test.make ~count:300 ~name:"encoders write the reference encoders' bytes"
    (QCheck.make ~print:(Printf.sprintf "seed=%d") QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create ~seed in
      let idx = random_index rng in
      let g = Index_graph.data idx in
      let { Index_serial.bytes; off; len } = Index_serial.encode idx in
      if not (String.equal (Bytes.sub_string bytes off len) (Ref_codec.index_to_string idx)) then
        QCheck.Test.fail_reportf "seed %d: index documents differ" seed;
      if not (String.equal (Serial.to_string g) (Ref_codec.serial_to_string g)) then
        QCheck.Test.fail_reportf "seed %d: graph documents differ" seed;
      true)

(* Hand edits the random ones rarely produce: leading zeros, signs,
   base prefixes, underscores, negative k/req, blanks and CRs. *)
let hand_edits =
  [
    ("counts 23 23 5", "counts 023 23 5");
    ("counts 23 23 5", "counts +23 23 0x5");
    ("counts 23 23 5", "counts 23 23 5 ");
    ("counts 23 23 5", "counts  23 23 5");
    ("graph 399", "graph 0399");
    ("graph 399", "graph 399\r");
    ("nodes 23", "nodes 0_23");
    ("nodes 23", "nodes -23");
    ("edges 23", "edges 023");
    ("\n0 1\n", "\n00 01\n");
    ("\n0 1\n", "\n0 +1\n");
    ("\n0 1\n", "\n0  1\n");
    ("\n0 1\n", "\n-0 1\n");
    ("values 10", "values 010");
    ("values 10\n3 ", "values 10\n03 ");
    ("\ncls\n0\n", "\ncls\n00\n");
    ("\ncls\n0\n", "\ncls\n-0\n");
    ("\ncls\n0\n", "\ncls\n0x0\n");
    ("classes 5", "classes 05");
    ("classes 5", "classes 0");
    ("-1 -1\n-1 -1\n", "-7 -0\n-1 -1\n");
    ("-1 -1\n-1 -1\n", "3 -99999999999999999999\n-1 -1\n");
    ("-1 -1\n-1 -1\n", "0x7 0o7\n-1 -1\n");
    ("-1 -1\n-1 -1\n", "-1\n-1 -1\n");
    ("dkindex-graph 2", "dkindex-graph 1");
    ("dkindex-index 2", "dkindex-index 1");
  ]

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  | None -> Alcotest.failf "%S not in the document" sub

let int_tokens =
  [ ""; "-"; "+"; "0"; "-0"; "007"; "+5"; "-5"; "1_000"; "_1"; "0x1F"; "0b101"; "0o17"; "0u9";
    "1e3"; " 5"; "5 "; "5\r"; "--5"; "999999999999999999"; "-999999999999999999";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "-4611686018427387905"; "99999999999999999999" ]

let differential_tests =
  [
    test "golden inputs encode as the reference encoder writes them" (fun () ->
        List.iter
          (fun build ->
            let idx = build () in
            check_string "index document" (Ref_codec.index_to_string idx)
              (Index_serial.to_string idx))
          [ Golden_inputs.pinned; Golden_inputs.edited; Golden_inputs.escapes ]);
    QCheck_alcotest.to_alcotest encoder_prop;
    test "hand-edited documents" (fun () ->
        let text = Index_serial.to_string (Golden_inputs.escapes ()) in
        List.iter
          (fun (sub, by) ->
            match index_disagreement (replace_first ~sub ~by text) with
            | Some why -> Alcotest.failf "%S -> %S: %s" sub by why
            | None -> ())
          hand_edits);
    test "int_of_sub is int_of_string_opt" (fun () ->
        List.iter
          (fun tok ->
            let s = "<" ^ tok ^ ">" in
            check_bool tok true
              (Serial.int_of_sub s 1 (String.length s - 1) = int_of_string_opt tok))
          int_tokens);
    QCheck_alcotest.to_alcotest differential_prop;
  ]

(* ----------------------------------------------------------------- *)
(* The compact body *)

module Cursor = Dkindex_graph.Cursor
module Crc32 = Dkindex_graph.Crc32

let compact idx =
  let { Index_serial.bytes; off; len } = Index_serial.encode_compact idx in
  Bytes.sub_string bytes off len

(* What a decoded body re-encodes to as text: the text golden's bytes
   when the body is right. *)
let compact_text idx = Index_serial.to_string (Index_serial.decode (compact idx))

let compact_golden name build expected =
  test name (fun () ->
      check_string "digest of encode_compact" expected (digest (compact (build ()))))

(* Unsigned LEB128, one Buffer byte at a time: the reference the
   compact body's varints are read against. *)
let varints ns =
  let b = Buffer.create 16 in
  let rec add n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
      add (n lsr 7)
    end
  in
  List.iter add ns;
  Buffer.contents b

(* Decode [s]: [Some true] if it loads, [Some false] if the decoder
   refuses it with its own error, [None] (with the exception) for
   anything else. *)
let outcome s =
  match Index_serial.decode s with
  | _ -> Ok true
  | exception Failure _ -> Ok false
  | exception e -> Error (Printexc.to_string e)

let compact_golden_tests =
  [
    compact_golden "(a) pinned scale-40 index" Golden_inputs.pinned
      "b8ae554b00b6ee092a67b325bcf67f6a";
    compact_golden "(b) edited index, overflow unflattened" Golden_inputs.edited
      "42e7202138878a77e6e7b5f058ebe336";
    compact_golden "(c) escaped payloads, k = infinity" Golden_inputs.escapes
      "e02f794d2d10fc4cf1ca5dc9822426a9";
    compact_golden "(d) pinned scale-2000 index, 6-digit ids" Golden_inputs.pinned_2000
      "2458ad9fd7efdd0e03aa35ded79d1d85";
    test "(a)-(d) decode to their text goldens" (fun () ->
        List.iter
          (fun build ->
            let idx = build () in
            check_string "decoded, as text" (Index_serial.to_string idx) (compact_text idx))
          [ Golden_inputs.pinned; Golden_inputs.edited; Golden_inputs.escapes;
            Golden_inputs.pinned_2000 ]);
    test "(b) the canonical order: a flattened copy encodes the same bytes" (fun () ->
        let idx = Golden_inputs.edited () in
        let flat = Index_graph.copy idx in
        Data_graph.flatten (Index_graph.data flat);
        check_string "flattened copy" (compact idx) (compact flat));
    test "(d) is under 1.7 MB, and under half the text" (fun () ->
        let idx = Golden_inputs.pinned_2000 () in
        let n = String.length (compact idx) in
        check_bool (Printf.sprintf "%d bytes <= 1,700,000" n) true (n <= 1_700_000);
        check_bool "under half the text" true (2 * n < String.length (Index_serial.to_string idx)));
  ]

(* Random indexes (random_index: overflow additions and tombstones,
   payloads with '\n', '%' and empty ones, k = infinity under the
   1-index) decode from their compact body to the same text. *)
let compact_prop =
  QCheck.Test.make ~count:300 ~name:"decode (encode_compact i) has i's text"
    (QCheck.make ~print:(Printf.sprintf "seed=%d") QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create ~seed in
      let idx = random_index rng in
      String.equal (compact_text idx) (Index_serial.to_string idx)
      || QCheck.Test.fail_reportf "seed %d: the decoded body's text differs" seed)

let malformed_tests =
  [
    test "every truncation is refused" (fun () ->
        let body = compact (Golden_inputs.escapes ()) in
        for len = 0 to String.length body - 1 do
          match outcome (String.sub body 0 len) with
          | Ok false -> ()
          | Ok true -> Alcotest.failf "a %d-byte prefix loaded" len
          | Error e -> Alcotest.failf "a %d-byte prefix raised %s" len e
        done);
    test "every single-byte change loads or is refused, nothing else" (fun () ->
        (* No checksum in the body (the checkpoint header has it): a
           changed payload byte still loads.  The decoder may load or
           refuse a change, but never raise Invalid_argument,
           Out_of_memory or anything but its own Failure. *)
        let body = compact (Golden_inputs.escapes ()) in
        let refused = ref 0 in
        String.iteri
          (fun i c ->
            for v = 0 to 255 do
              if v <> Char.code c then begin
                let b = Bytes.of_string body in
                Bytes.set b i (Char.chr v);
                match outcome (Bytes.to_string b) with
                | Ok true -> ()
                | Ok false -> incr refused
                | Error e -> Alcotest.failf "byte %d set to 0x%02x: %s" i v e
              end
            done)
          body;
        check_bool "most changes are refused" true (!refused > 128 * String.length body));
    test "2^40 declared nodes are refused before any allocation" (fun () ->
        let body =
          Index_serial.compact_magic ^ varints [ 1 lsl 40; 0; 1; 1; 0 ] ^ String.make 64 '\000'
        in
        let before = Gc.allocated_bytes () in
        (match outcome body with
        | Ok false -> ()
        | Ok true -> Alcotest.fail "loaded"
        | Error e -> Alcotest.fail e);
        let allocated = Gc.allocated_bytes () -. before in
        check_bool (Printf.sprintf "%.0f bytes allocated" allocated) true (allocated < 16384.));
  ]

(* A data directory written before the compact body: a headered text
   checkpoint and its WAL. *)
let back_compat_tests =
  [
    test "a headered text checkpoint and its WAL recover; the next checkpoint is compact"
      (fun () ->
        let dir = Filename.temp_file "dkcodec" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        Fun.protect ~finally:(fun () ->
            Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
            Unix.rmdir dir)
        @@ fun () ->
        let doc = Index_serial.to_string (Golden_inputs.fixture_base ()) in
        let len = String.length doc in
        Out_channel.with_open_bin (Checkpoint.checkpoint_file ~dir ~seq:0) (fun oc ->
            Printf.fprintf oc "dkindex-checkpoint 1 %08x %012d\n%s" (Crc32.string doc 0 len) len
              doc);
        let log = Golden_inputs.fixture_log () in
        let w = Wal.create ~sync:Wal.Never (Checkpoint.wal_file ~dir ~seq:0) in
        List.iter (Wal.append w) log;
        Wal.close w;
        let oracle =
          Index_serial.to_string
            (List.fold_left Checkpoint.apply_mutation (Golden_inputs.fixture_base ()) log)
        in
        let r = Checkpoint.recover ~dir () in
        check_int "replayed the log" (List.length log) r.Checkpoint.replayed_records;
        let idx = Option.get r.Checkpoint.index in
        check_string "recovered text" oracle (Index_serial.to_string idx);
        let d = Checkpoint.start ~recovery:r (Checkpoint.default_config ~dir) idx in
        (match Checkpoint.close d idx with Ok () -> () | Error e -> Alcotest.fail e);
        let file = read_file (Checkpoint.checkpoint_file ~dir ~seq:1) in
        (match Checkpoint.body file with
        | Ok body ->
          check_bool "the new generation is compact" true
            (String.starts_with ~prefix:Index_serial.compact_magic body)
        | Error e -> Alcotest.fail e);
        let r' = Checkpoint.recover ~dir () in
        check_int "recovered from the compact generation" 1 r'.Checkpoint.checkpoint_seq;
        check_string "same text" oracle (Index_serial.to_string (Option.get r'.Checkpoint.index)));
  ]

(* ----------------------------------------------------------------- *)
(* CRC-32 *)

(* The CRC of [s]'s window [off, off + len) chained through
   [Crc32.update] over the consecutive chunks that [cuts] (offsets into
   the window, any order, any multiplicity) split it into. *)
let chunked_crc s off len cuts =
  let b = Bytes.of_string s in
  let cuts = List.sort_uniq Int.compare (List.map (fun c -> c mod (len + 1)) cuts) in
  let crc, last =
    List.fold_left
      (fun (crc, from) cut -> (Crc32.update crc b (off + from) (cut - from), cut))
      (0, 0) cuts
  in
  Crc32.update crc b (off + last) (len - last)

let crc_prop =
  QCheck.Test.make ~count:500 ~name:"slicing-by-8 CRC = byte-at-a-time CRC"
    QCheck.(quad string small_nat small_nat (small_list small_nat))
    (fun (s, a, b, cuts) ->
      let off = a mod (String.length s + 1) in
      let len = b mod (String.length s - off + 1) in
      let reference = Ref_codec.crc32 s off len in
      Crc32.string s off len = reference && chunked_crc s off len cuts = reference)

let crc_tests =
  [
    test "check value" (fun () ->
        check_int "crc32 \"123456789\"" 0xCBF43926 (Crc32.string "123456789" 0 9);
        check_int "empty" 0 (Crc32.string "" 0 0);
        check_int "window" (Ref_codec.crc32 "xx123456789yy" 2 9) (Crc32.string "xx123456789yy" 2 9);
        check_int "two chunks" 0xCBF43926
          (Crc32.update (Crc32.string "1234" 0 4) (Bytes.of_string "56789") 0 5));
    test "out-of-range windows are rejected" (fun () ->
        List.iter
          (fun (off, len) ->
            check_bool (Printf.sprintf "off %d len %d" off len) true
              (match Crc32.string "abcdef" off len with
              | _ -> false
              | exception Invalid_argument _ -> true))
          [ (-1, 2); (5, 2); (0, 7); (7, 1) ]);
    QCheck_alcotest.to_alcotest crc_prop;
  ]

(* ----------------------------------------------------------------- *)
(* Text_buf *)

module Text_buf = Dkindex_graph.Text_buf

let cursor_tests =
  [
    test "Cursor.varint reads LEB128; overlong encodings are refused" (fun () ->
        let ns = [ 0; 1; 127; 128; 300; 16383; 16384; 1 lsl 35; (1 lsl 56) - 1; 1 lsl 56; max_int ] in
        let s = varints ns in
        let c = Cursor.make s ~pos:0 ~len:(String.length s) in
        List.iter (fun n -> check_int "varint" n (Cursor.varint c)) ns;
        Cursor.expect_end c "varints";
        check_int "one byte below 128" 1 (String.length (varints [ 127 ]));
        check_int "nine bytes for max_int" 9 (String.length (varints [ max_int ]));
        List.iter
          (fun bad ->
            check_bool (String.escaped bad) true
              (match Cursor.varint (Cursor.make bad ~pos:0 ~len:(String.length bad)) with
              | _ -> false
              | exception Cursor.Bad _ -> true))
          [ ""; "\x80"; String.make 8 '\xff' ^ "\x40"; String.make 9 '\xff' ^ "\x01" ]);
  ]

let text_buf_tests =
  [
    test "writes what Buffer and string_of_int write, growing from any hint" (fun () ->
        let ints =
          [ 0; 1; 9; 10; 99; 100; 101; 999999; 1000000; 123456789; -1; -10; -100; max_int;
            min_int; min_int + 1 ]
        in
        List.iter
          (fun hint ->
            let t = Text_buf.create ~gap:0 hint and b = Buffer.create 16 in
            List.iter
              (fun n ->
                Text_buf.add_int t n;
                Text_buf.add_char t ';';
                Text_buf.add_int_line t n;
                Text_buf.add_int_pair_line t n (-n);
                Text_buf.add_line t "line";
                Text_buf.add_string t "s";
                Printf.bprintf b "%d;%d\n%d %d\nline\ns" n n n (-n))
              ints;
            check_string (Printf.sprintf "hint %d" hint) (Buffer.contents b) (Text_buf.contents t))
          [ 0; 1; 7; 100; 10_000 ]);
    test "prepend fills the gap and no more" (fun () ->
        let t = Text_buf.create ~gap:4 0 in
        Text_buf.add_string t "body";
        Text_buf.prepend t "he";
        Text_buf.prepend t "ad";
        check_string "contents" "adhebody" (Text_buf.contents t);
        check_int "start" 0 (Text_buf.start t);
        check_string "slice"
          "adhebody"
          (Bytes.sub_string (Text_buf.bytes t) (Text_buf.start t) (Text_buf.length t));
        Alcotest.check_raises "no gap left"
          (Invalid_argument "Text_buf.prepend: larger than the gap left") (fun () ->
            Text_buf.prepend t "x"));
  ]

(* Alcotest shortens each test name by the width of the longest group
   name, so a group name longer than "differential" changes how every
   test in this file is listed. *)
let () =
  Alcotest.run "codec"
    [
      ("golden", golden_tests);
      ("compact", compact_golden_tests @ [ QCheck_alcotest.to_alcotest compact_prop ]);
      ("malformed", malformed_tests);
      ("back_compat", back_compat_tests);
      ("differential", differential_tests);
      ("crc32", crc_tests);
      ("text_buf", text_buf_tests);
      ("cursor", cursor_tests);
    ]
