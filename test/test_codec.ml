(* The text index codec and the shared CRC-32 against fixed bytes and
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
   - CRC-32 (slicing-by-8): the standard check value, and agreement
     with the byte-at-a-time reference on random substrings, whole and
     fed to [Crc32.update] in chunks split at random points.
   - Text_buf: integers and lines as Buffer writes them, growth from
     any starting size, and the gap [prepend] fills. *)

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
(* CRC-32 *)

module Crc32 = Dkindex_graph.Crc32

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

let () =
  Alcotest.run "codec"
    [
      ("golden", golden_tests);
      ("differential", differential_tests);
      ("crc32", crc_tests);
      ("text_buf", text_buf_tests);
    ]
