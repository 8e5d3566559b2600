(* Tests for Orion_obs.Metrics: registry semantics (replace on name
   collision), counters/gauges, histogram quantile estimates, span
   nesting with the slow-op sink, and the Stats_reply wire codec. *)

module Obs = Orion_obs.Metrics
module Message = Orion_protocol.Message

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_counters_and_gauges () =
  let registry = Obs.create_registry () in
  let c = Obs.counter ~registry "t.count" in
  Obs.incr c;
  Obs.incr c ~by:4;
  Alcotest.(check int) "value" 5 (Obs.counter_value c);
  let live = ref 7 in
  Obs.gauge ~registry "t.gauge" (fun () -> !live);
  let snap = Obs.snapshot ~registry () in
  Alcotest.(check (option int)) "counter in snapshot" (Some 5)
    (Obs.find_counter snap "t.count");
  Alcotest.(check (option int)) "gauge read at snapshot time" (Some 7)
    (Obs.find_gauge snap "t.gauge");
  live := 3;
  Alcotest.(check (option int)) "gauge is a live callback" (Some 3)
    (Obs.find_gauge (Obs.snapshot ~registry ()) "t.gauge");
  Obs.reset_counter c;
  Alcotest.(check int) "reset" 0 (Obs.counter_value c)

(* A second instrument under a taken name re-points the registration;
   the first owner keeps its private state. *)
let test_registry_replaces_on_collision () =
  let registry = Obs.create_registry () in
  let old = Obs.counter ~registry "t.count" in
  Obs.incr old ~by:10;
  let fresh = Obs.counter ~registry "t.count" in
  Obs.incr fresh ~by:2;
  Alcotest.(check (option int)) "snapshot reads the newest instance" (Some 2)
    (Obs.find_counter (Obs.snapshot ~registry ()) "t.count");
  Alcotest.(check int) "old owner's private view intact" 10
    (Obs.counter_value old);
  Alcotest.(check int) "only one registration survives" 1
    (List.length (Obs.snapshot ~registry ()).Obs.counters)

let test_histogram_quantiles () =
  let registry = Obs.create_registry () in
  let h = Obs.histogram ~registry "t.seconds" in
  (* 90 fast ops at ~1ms, 10 slow ones at ~1s. *)
  for _ = 1 to 90 do
    Obs.observe h 0.001
  done;
  for _ = 1 to 10 do
    Obs.observe h 1.0
  done;
  Alcotest.(check int) "count" 100 (Obs.histogram_count h);
  match Obs.find_histogram (Obs.snapshot ~registry ()) "t.seconds" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
      Alcotest.(check int) "summary count" 100 s.Obs.count;
      Alcotest.(check bool) "sum ~ 10.09s" true (s.Obs.sum > 10.0 && s.Obs.sum < 10.2);
      Alcotest.(check bool) "max >= 1s" true (s.Obs.max >= 1.0);
      (* Bucket-estimated quantiles: p50 lands in a ~1ms bucket, p95
         and p99 in a >= 1s bucket. *)
      Alcotest.(check bool) "p50 is fast" true (s.Obs.p50 < 0.01);
      Alcotest.(check bool) "p95 is slow" true (s.Obs.p95 >= 1.0);
      Alcotest.(check bool) "p99 >= p95 >= p50" true
        (s.Obs.p99 >= s.Obs.p95 && s.Obs.p95 >= s.Obs.p50);
      Obs.reset_histogram h;
      Alcotest.(check int) "reset" 0 (Obs.histogram_count h)

let test_span_slow_op_breakdown () =
  let lines = ref [] in
  Obs.Span.set_slow_sink (fun l -> lines := l :: !lines);
  Obs.Span.set_slow_threshold (Some 0.0);
  let before = Obs.Span.slow_ops_reported () in
  let result =
    Obs.Span.time "outer" (fun () ->
        Obs.Span.time "inner" (fun () -> Thread.delay 0.002);
        17)
  in
  Obs.Span.set_slow_threshold None;
  Obs.Span.set_slow_sink prerr_endline;
  Alcotest.(check int) "thunk result propagates" 17 result;
  (* Only the ROOT span reports; the nested one becomes its breakdown. *)
  Alcotest.(check int) "one slow-op line" 1 (Obs.Span.slow_ops_reported () - before);
  match !lines with
  | [ line ] ->
      Alcotest.(check bool) "names the root" true (contains_sub line "outer");
      Alcotest.(check bool) "breakdown names the child" true
        (contains_sub line "inner")
  | l -> Alcotest.failf "expected one sink line, got %d" (List.length l)

let test_span_closes_on_exception () =
  Obs.Span.set_slow_threshold None;
  (try Obs.Span.time "boom" (fun () -> failwith "expected") with Failure _ -> ());
  (* A later root span must not see "boom" still on the stack: if it
     did, it would be treated as nested and never report.  Reported
     count moving proves the stack unwound. *)
  let lines = ref [] in
  Obs.Span.set_slow_sink (fun l -> lines := l :: !lines);
  Obs.Span.set_slow_threshold (Some 0.0);
  Obs.Span.time "after" (fun () -> Thread.delay 0.001);
  Obs.Span.set_slow_threshold None;
  Obs.Span.set_slow_sink prerr_endline;
  Alcotest.(check int) "root span after exception still reports" 1
    (List.length !lines)

(* The Stats wire codec: a snapshot survives encode/decode of the
   server frame byte-for-byte in structure. *)
let test_stats_reply_roundtrip () =
  let registry = Obs.create_registry () in
  Obs.incr (Obs.counter ~registry "a.count") ~by:42;
  Obs.gauge ~registry "b.gauge" (fun () -> -3);
  let h = Obs.histogram ~registry "c.seconds" in
  Obs.observe h 0.004;
  Obs.observe h 0.25;
  Obs.observe (Obs.histogram ~registry ~unit:Obs.Count "d.batch_size") 3.;
  let snap = Obs.snapshot ~registry () in
  let decoded =
    match Message.decode_server (Message.encode_server (Message.Reply (Message.Stats_reply snap))) with
    | Message.Reply (Message.Stats_reply s) -> s
    | _ -> Alcotest.fail "decoded to a different message"
  in
  Alcotest.(check (list (pair string int))) "counters" snap.Obs.counters
    decoded.Obs.counters;
  Alcotest.(check (list (pair string int))) "gauges" snap.Obs.gauges
    decoded.Obs.gauges;
  Alcotest.(check int) "histogram list length"
    (List.length snap.Obs.histograms)
    (List.length decoded.Obs.histograms);
  List.iter2
    (fun (name, (s : Obs.histogram_summary)) (name', (d : Obs.histogram_summary)) ->
      Alcotest.(check string) "histogram name" name name';
      Alcotest.(check bool) "unit" true (s.Obs.unit = d.Obs.unit);
      Alcotest.(check int) "count" s.Obs.count d.Obs.count;
      let close a b = Float.abs (a -. b) < 1e-9 in
      Alcotest.(check bool) "floats survive" true
        (close s.Obs.sum d.Obs.sum && close s.Obs.max d.Obs.max
        && close s.Obs.p50 d.Obs.p50 && close s.Obs.p95 d.Obs.p95
        && close s.Obs.p99 d.Obs.p99))
    snap.Obs.histograms decoded.Obs.histograms;
  (* An empty snapshot round-trips too. *)
  let empty = Obs.snapshot ~registry:(Obs.create_registry ()) () in
  match Message.decode_server (Message.encode_server (Message.Reply (Message.Stats_reply empty))) with
  | Message.Reply (Message.Stats_reply s) ->
      Alcotest.(check bool) "empty snapshot" true
        (s.Obs.counters = [] && s.Obs.gauges = [] && s.Obs.histograms = [])
  | _ -> Alcotest.fail "empty snapshot decoded to a different message"

(* A histogram of counts prints its values as counts: one batch of one
   commit reads 1, not 1000ms.  Durations still print in milliseconds. *)
let test_pp_count_histogram () =
  let registry = Obs.create_registry () in
  Obs.observe (Obs.histogram ~registry ~unit:Obs.Count "t.batch_size") 1.;
  Obs.observe (Obs.histogram ~registry "t.seconds") 0.002;
  let rendered = Format.asprintf "%a" Obs.pp_snapshot (Obs.snapshot ~registry ()) in
  let line name =
    List.find
      (fun l -> contains_sub l name)
      (String.split_on_char '\n' rendered)
  in
  Alcotest.(check string) "count histogram unscaled"
    (Printf.sprintf "%-32s n=1 p50=1 p95=1 p99=1 max=1" "t.batch_size")
    (line "t.batch_size");
  Alcotest.(check bool) "its buckets unscaled too" true
    (contains_sub rendered "buckets: <=1:1");
  Alcotest.(check string) "seconds histogram in milliseconds"
    (Printf.sprintf "%-32s n=1 p50=2.000ms p95=2.000ms p99=2.000ms max=2.000ms"
       "t.seconds")
    (line "t.seconds ")

let test_one_line_and_pp () =
  let registry = Obs.create_registry () in
  Obs.incr (Obs.counter ~registry "server.requests") ~by:9;
  let snap = Obs.snapshot ~registry () in
  let line = Obs.one_line snap in
  Alcotest.(check bool) "one_line is one line" true
    (String.length line > 0 && not (String.contains line '\n'));
  let rendered = Format.asprintf "%a" Obs.pp_snapshot snap in
  Alcotest.(check bool) "pp names the counter" true
    (contains_sub rendered "server.requests")

let test_labels () =
  Alcotest.(check string) "labeled builds name{key=value}"
    "lock.blocks{class=Widget}"
    (Obs.labeled "lock.blocks" ("class", "Widget"));
  Alcotest.(check (option string)) "label_value parses it back" (Some "Widget")
    (Obs.label_value "lock.blocks{class=Widget}" ~base:"lock.blocks"
       ~key:"class");
  Alcotest.(check (option string)) "wrong base" None
    (Obs.label_value "lock.blocks{class=Widget}" ~base:"lock.waits"
       ~key:"class");
  Alcotest.(check (option string)) "unlabeled name" None
    (Obs.label_value "lock.blocks" ~base:"lock.blocks" ~key:"class")

(* rates diffs two snapshots: changed counters and histograms as
   per-second deltas, unchanged instruments omitted. *)
let test_rates () =
  let registry = Obs.create_registry () in
  let c = Obs.counter ~registry "t.count" in
  let _idle = Obs.counter ~registry "t.idle" in
  let h = Obs.histogram ~registry "t.seconds" in
  Obs.incr c ~by:3;
  let before = Obs.snapshot ~registry () in
  Obs.incr c ~by:10;
  Obs.observe h 0.01;
  Obs.observe h 0.02;
  let after = Obs.snapshot ~registry () in
  let r = Obs.rates ~before ~after ~dt:2.0 in
  Alcotest.(check (list (pair string (float 1e-6))))
    "only the changed counter, delta/dt"
    [ ("t.count", 5.0) ]
    r.Obs.counter_rates;
  (match r.Obs.histogram_rates with
  | [ (name, rate, summary) ] ->
      Alcotest.(check string) "histogram name" "t.seconds" name;
      Alcotest.(check (float 1e-6)) "observations per second" 1.0 rate;
      Alcotest.(check int) "carries the later summary" 2 summary.Obs.count
  | l -> Alcotest.failf "expected one histogram rate, got %d" (List.length l));
  let rendered = Format.asprintf "%a" Obs.pp_rates r in
  Alcotest.(check bool) "pp_rates names the changed counter" true
    (contains_sub rendered "t.count");
  Alcotest.(check bool) "pp_rates omits the idle counter" true
    (not (contains_sub rendered "t.idle"))

let () =
  (* ORION_LOCKDEP=1: watch this suite's real lock traffic; install's
     exit hook fails the run on any discipline violation. *)
  Orion_analysis.Lockdep.install_from_env ();
  Alcotest.run "orion_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "replace on collision" `Quick
            test_registry_replaces_on_collision;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "one_line and pp" `Quick test_one_line_and_pp;
          Alcotest.test_case "count histogram unscaled" `Quick
            test_pp_count_histogram;
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "rates" `Quick test_rates;
        ] );
      ( "spans",
        [
          Alcotest.test_case "slow-op breakdown" `Quick test_span_slow_op_breakdown;
          Alcotest.test_case "closes on exception" `Quick
            test_span_closes_on_exception;
        ] );
      ( "wire",
        [
          Alcotest.test_case "Stats_reply roundtrip" `Quick
            test_stats_reply_roundtrip;
        ] );
    ]
