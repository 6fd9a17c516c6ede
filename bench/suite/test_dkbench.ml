(* Unit tests for dkbench's statistics, span recorder and JSON. *)

let close = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  Alcotest.check close "p0" 10.0 (Stats.percentile_sorted a 0.0);
  Alcotest.check close "p50" 30.0 (Stats.percentile_sorted a 0.5);
  Alcotest.check close "p100" 50.0 (Stats.percentile_sorted a 1.0);
  Alcotest.check close "interpolated" 12.0 (Stats.percentile_sorted a 0.05)

let test_tail_rule () =
  Alcotest.(check bool) "p99 of 1000 has 10 beyond" true (Stats.tail_ok ~n:1000 0.99);
  Alcotest.(check bool) "p99 of 999 is withheld" false (Stats.tail_ok ~n:999 0.99);
  Alcotest.(check bool) "p50 of 20" true (Stats.tail_ok ~n:20 0.5);
  Alcotest.(check bool) "p50 of 19 is withheld" false (Stats.tail_ok ~n:19 0.5)

(* Expected values from Python: statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q2 of 1..10" 5.5 q2;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [| 3.0; 1.0; 2.0 |] in
  Alcotest.check close "q1 of 1..3" 1.0 q1;
  Alcotest.check close "q2 of 1..3" 2.0 q2;
  Alcotest.check close "q3 of 1..3" 3.0 q3;
  let s = Stats.summarize [| 4.0; 1.0; 2.0; 3.0 |] in
  Alcotest.check close "median" 2.5 s.median;
  Alcotest.check close "spread" ((3.75 -. 1.25) /. 2.5 *. 100.0) s.spread_pct

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Stats.verdict_to_string v))
    ( = )

let test_verdicts () =
  let base = Array.init 10 (fun i -> 100.0 +. float_of_int i) in
  let shift d = Array.map (fun x -> x +. d) base in
  let v ?(better = Stats.Higher) ?(bound = 0.1) head = Stats.verdict ~better ~bound ~base ~head in
  Alcotest.check verdict "wins every pair by more than the IQR" Stats.Improved (v (shift 20.0));
  Alcotest.check verdict "wins every pair, gap inside the IQR" Stats.Within_bound (v (shift 3.0));
  Alcotest.check verdict "worse by 30%" Stats.Regressed (v (shift (-33.0)));
  Alcotest.check verdict "lower is better" Stats.Improved (v ~better:Stats.Lower (shift (-20.0)));
  Alcotest.check verdict "fewer than ten pairs claim no gain" Stats.Within_bound
    (Stats.verdict ~better:Stats.Higher ~bound:0.1 ~base:(Array.sub base 0 5) ~head:(Array.sub (shift 5.0) 0 5));
  let noisy = [| 50.0; 150.0; 60.0; 140.0; 70.0; 130.0; 104.0; 106.0; 100.0; 110.0 |] in
  Alcotest.check verdict "spread beyond the bound" Stats.Unresolved (v noisy);
  let zero = Array.make 10 0.0 in
  Alcotest.check verdict "bound 0: any increase regresses" Stats.Regressed
    (Stats.verdict ~better:Stats.Lower ~bound:0.0 ~base:zero ~head:(Array.make 10 0.01))

(* ------------------------------------------------------------------ *)
(* Spans *)

(* root [0, 100] holds a [10, 30] and b [40, 90]; b holds c [50, 60]. *)
let synthetic () =
  let t = Spans.create ~capacity:8 () in
  let root = Spans.name t "root" and a = Spans.name t "a" and b = Spans.name t "b" and c = Spans.name t "c" in
  let r = Spans.open_at t root 0 in
  let ha = Spans.open_at t a 10 in
  Spans.close_at t ha 30;
  let hb = Spans.open_at t b 40 in
  let hc = Spans.open_at t c 50 in
  Spans.close_at t hc 60;
  Spans.close_at t hb 90;
  Spans.close_at t r 100;
  t

let test_self_time () =
  let t = synthetic () in
  Alcotest.(check (array int)) "self times" [| 30; 20; 40; 10 |] (Spans.self_times t);
  let aggs = Spans.aggregate t in
  Alcotest.(check int) "aggregated self of b" 40 (Spans.find_agg aggs "b").self_ns;
  Alcotest.(check int) "count of c" 1 (Spans.find_agg aggs "c").count;
  Alcotest.(check int) "unknown name" 0 (Spans.find_agg aggs "zzz").count

let test_trace_json () =
  let json = Json.of_string (Json.to_string (Spans.to_trace_json (synthetic ()))) in
  let events = Json.to_list (Option.get (Json.member "traceEvents" json)) in
  let complete = List.filter (fun e -> Json.member "ph" e = Some (Json.Str "X")) events in
  Alcotest.(check int) "one complete event per span" 4 (List.length complete);
  let c = List.find (fun e -> Json.member "name" e = Some (Json.Str "c")) complete in
  Alcotest.(check (option (float 1e-9))) "ts in microseconds" (Some 0.05) (Option.bind (Json.member "ts" c) Json.to_float);
  Alcotest.(check (option (float 1e-9))) "dur in microseconds" (Some 0.01) (Option.bind (Json.member "dur" c) Json.to_float);
  List.iter
    (fun k -> Alcotest.(check bool) ("has " ^ k) true (Json.member k c <> None))
    [ "pid"; "tid"; "args"; "cat" ]

(* The shape one replayed read records: a root plus five stages. *)
let record_read t root stage =
  let h = Spans.enter2 t root stage in
  let h = Spans.next t h stage in
  let h = Spans.next t h stage in
  let h = Spans.next t h stage in
  let h = Spans.next t h stage in
  Spans.leave2 t h

(* Chained stages share their boundary instants and nest under the
   root, so the root's self time is zero. *)
let test_chained () =
  let t = Spans.create ~capacity:16 () in
  let root = Spans.name t "root" and stage = Spans.name t "stage" in
  record_read t root stage;
  Alcotest.(check int) "spans" 6 (Spans.length t);
  Alcotest.(check int) "root self time" 0 (Spans.self_times t).(0);
  for i = 1 to 4 do
    Alcotest.(check int) "stage ends where the next begins" (Spans.stop_ns t i) (Spans.start_ns t (i + 1))
  done;
  Alcotest.(check int) "root ends with the last stage" (Spans.stop_ns t 5) (Spans.stop_ns t 0);
  Alcotest.(check int) "stages are the root's children" 0 (Spans.parent t 3);
  let full = Spans.create ~capacity:1 () in
  let nm = Spans.name full "x" in
  Spans.leave2 full (Spans.enter2 full nm nm);
  Alcotest.(check (pair int int)) "no half-open pair past capacity" (0, 2) (Spans.length full, Spans.dropped full)

let test_no_allocation () =
  let n = 10_000 in
  let t = Spans.create ~capacity:(6 * n) () in
  let root = Spans.name t "request" and stage = Spans.name t "stage" in
  record_read t root stage;
  Spans.clear t;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Spans.set_request t i;
    record_read t root stage
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "spans recorded" (6 * n) (Spans.length t);
  (* Only the boxed float Gc.minor_words returns, never per span. *)
  Alcotest.(check bool) (Printf.sprintf "%.0f words for %d spans" words (6 * n)) true (words < 16.0)

let test_capacity_and_disabled () =
  let t = Spans.create ~capacity:3 () in
  let nm = Spans.name t "x" in
  for _ = 1 to 5 do
    Spans.leave t (Spans.enter t nm)
  done;
  Alcotest.(check int) "kept" 3 (Spans.length t);
  Alcotest.(check int) "dropped" 2 (Spans.dropped t);
  let off = Spans.create ~enabled:false ~capacity:10 () in
  let nm = Spans.name off "x" in
  Spans.leave2 off (Spans.enter2 off nm nm);
  Alcotest.(check int) "disabled records nothing" 0 (Spans.length off)

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("n", Json.Num 0.1);
        ("tiny", Json.Num 1.2345678901234e-9);
        ("int", Json.int 123456789);
        ("s", Json.Str "a \"quoted\"\nline\\");
        ("l", Json.Arr [ Json.Bool true; Json.Null; Json.Num (-2.5) ]);
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check string) "integers print bare" "42" (Json.to_string (Json.int 42));
  Alcotest.(check string) "non-finite is null" "null" (Json.to_string (Json.Num Float.nan))

let () =
  Alcotest.run "dkbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond a percentile" `Quick test_tail_rule;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "chained stages" `Quick test_chained;
          Alcotest.test_case "trace-event JSON shape" `Quick test_trace_json;
          Alcotest.test_case "no allocation per span" `Quick test_no_allocation;
          Alcotest.test_case "capacity and disabled recorder" `Quick test_capacity_and_disabled;
        ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json_round_trip ]);
    ]
