(* The lock-discipline checker, tested the way it is built: the engine
   core on synthesized event streams (each test plays a deterministic
   cross-thread interleaving under explicit thread keys), then real
   Omutex traffic through a private engine, then the trace
   record/replay round-trip.  No test installs the global engine — the
   suites that exercise it live run under ORION_LOCKDEP=1 in CI, where
   install's exit hook turns any violation into a red build. *)

module Omutex = Orion_util.Omutex
module Lockdep = Orion_analysis.Lockdep
module SA = Orion_analysis.Schema_analysis

(* Private classes for order-graph tests: equal ranks (so only the
   may-precede graph, not the rank check, can object) and a rank well
   above the engine hierarchy.  Declared once per process. *)
let alpha =
  Omutex.declare ~doc:"test: order-graph node" ~name:"test.alpha" ~rank:100 ()

let beta =
  Omutex.declare ~doc:"test: order-graph node" ~name:"test.beta" ~rank:100 ()

let gamma =
  Omutex.declare ~doc:"test: nesting-free class" ~name:"test.gamma" ~rank:110 ()

(* An outermost class, ranked below every engine class, so taking it
   under the engine's wal.log is a rank inversion. *)
let core = Omutex.declare ~doc:"test: outermost class" ~name:"test.core" ~rank:10 ()

let acq ?(inst = 0) ~site cls = Omutex.Acquire { cls; inst; site }
let rel ?(inst = 0) cls = Omutex.Release { cls; inst }

let feed eng key evs = List.iter (fun ev -> Lockdep.handle eng ~key ev) evs

let codes eng =
  List.map (fun f -> f.SA.code) (Lockdep.engine_findings eng)

let find_code eng code =
  List.find_opt
    (fun f -> String.equal f.SA.code code)
    (Lockdep.engine_findings eng)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let detail_mentions f needle = contains f.SA.detail needle

(* Respecting the hierarchy — including two instances of one class
   taken one after the other, never both at once — produces nothing. *)
let test_clean_run () =
  let eng = Lockdep.create_engine () in
  feed eng "t1"
    [
      acq ~site:"a.ml:1" core;
      acq ~site:"a.ml:2" Omutex.wal_log;
      rel Omutex.wal_log;
      rel core;
      acq ~inst:0 ~site:"a.ml:3" Omutex.shard_inbox;
      rel ~inst:0 Omutex.shard_inbox;
      acq ~inst:1 ~site:"a.ml:4" Omutex.shard_inbox;
      rel ~inst:1 Omutex.shard_inbox;
    ];
  (* Another thread taking the same classes in the same order adds
     edges, never findings. *)
  feed eng "t2"
    [
      acq ~site:"b.ml:1" core;
      acq ~site:"b.ml:2" Omutex.wal_log;
      rel Omutex.wal_log;
      rel core;
    ];
  Alcotest.(check (list string)) "no findings" [] (codes eng);
  Alcotest.(check bool) "edges observed" true (Lockdep.edge_count eng >= 1)

let test_rank_inversion () =
  let eng = Lockdep.create_engine () in
  feed eng "t1"
    [ acq ~site:"w.ml:10" Omutex.wal_log; acq ~site:"c.ml:20" core ];
  match find_code eng "rank-inversion" with
  | None -> Alcotest.fail "rank inversion missed"
  | Some f ->
      Alcotest.(check bool) "severity error" true (f.SA.severity = SA.Error);
      Alcotest.(check bool) "outer site in witness" true
        (detail_mentions f "w.ml:10");
      Alcotest.(check bool) "inner site in witness" true
        (detail_mentions f "c.ml:20")

(* The flagship detector: neither order deadlocks on its own; only the
   pair of observations — on two different threads, at four distinct
   sites — is contradictory, and the witness names all four. *)
let test_lock_order_inversion () =
  let eng = Lockdep.create_engine () in
  feed eng "t1"
    [
      acq ~site:"x.ml:1" alpha;
      acq ~site:"x.ml:2" beta;
      rel beta;
      rel alpha;
    ];
  Alcotest.(check (list string)) "first order is fine" [] (codes eng);
  feed eng "t2"
    [ acq ~site:"y.ml:8" beta; acq ~site:"y.ml:9" alpha ];
  match find_code eng "lock-order-inversion" with
  | None -> Alcotest.fail "order inversion missed"
  | Some f ->
      Alcotest.(check bool) "severity error" true (f.SA.severity = SA.Error);
      List.iter
        (fun site ->
          Alcotest.(check bool)
            (Printf.sprintf "witness names %s" site)
            true (detail_mentions f site))
        [ "x.ml:1"; "x.ml:2"; "y.ml:8"; "y.ml:9" ]

let test_recursive_lock () =
  let eng = Lockdep.create_engine () in
  feed eng "t1"
    [ acq ~inst:3 ~site:"r.ml:1" gamma; acq ~inst:3 ~site:"r.ml:2" gamma ];
  match find_code eng "recursive-lock" with
  | None -> Alcotest.fail "recursive lock missed"
  | Some f ->
      Alcotest.(check bool) "both sites named" true
        (detail_mentions f "r.ml:1" && detail_mentions f "r.ml:2")

let test_same_class_nesting () =
  let eng = Lockdep.create_engine () in
  feed eng "t1"
    [ acq ~inst:0 ~site:"n.ml:1" gamma; acq ~inst:1 ~site:"n.ml:2" gamma ];
  Alcotest.(check bool) "nesting flagged" true
    (find_code eng "same-class-nesting" <> None)

(* Findings dedup: the same inverted pair observed a thousand times is
   one finding; exit codes follow the worst severity. *)
let test_dedup_and_ordering () =
  let eng = Lockdep.create_engine () in
  for _ = 1 to 1000 do
    feed eng "t2"
      [
        acq ~site:"w.ml:1" Omutex.wal_log;
        acq ~site:"c.ml:2" core;
        rel core;
        rel Omutex.wal_log;
      ]
  done;
  let fs = Lockdep.engine_findings eng in
  Alcotest.(check int) "one error" 1 (List.length fs);
  Alcotest.(check bool) "it is an error" true
    ((List.hd fs).SA.severity = SA.Error);
  Alcotest.(check int) "exit code is 2" 2 (Lockdep.exit_code fs);
  let with_severity severity = { (List.hd fs) with SA.severity } in
  Alcotest.(check int) "warning alone is 1" 1
    (Lockdep.exit_code [ with_severity SA.Warning ]);
  Alcotest.(check int) "info alone is 0" 0
    (Lockdep.exit_code [ with_severity SA.Info ]);
  Alcotest.(check int) "clean is 0" 0 (Lockdep.exit_code []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "sexp parses" true
        (match Orion_util.Sexp.parse (SA.finding_to_sexp f) with
        | _ -> true
        | exception _ -> false))
    fs

(* The one-thread finding: a class shared by two threads is not named;
   one taken only ever by a single thread is, as an info finding that
   fails nothing.  Instances are per process: two processes each taking
   their own mutex of a class from one thread still name it. *)
let test_single_thread_class () =
  let eng = Lockdep.create_engine () in
  feed eng "7.0.1" [ acq ~site:"a.ml:1" alpha; rel alpha ];
  feed eng "7.0.2" [ acq ~site:"a.ml:2" alpha; rel alpha ];
  feed eng "7.0.1" [ acq ~site:"g.ml:1" gamma; rel gamma ];
  feed eng "7.0.1" [ acq ~site:"g.ml:2" gamma; rel gamma ];
  feed eng "8.0.1" [ acq ~site:"b.ml:1" beta; rel beta ];
  feed eng "9.0.5" [ acq ~site:"b.ml:1" beta; rel beta ];
  Alcotest.(check (list string)) "no detector finding" [] (codes eng);
  let fs = Lockdep.single_thread_findings eng in
  Alcotest.(check (list string)) "the single-thread classes"
    [ "test.beta"; "test.gamma" ]
    (List.map (fun f -> f.SA.cls) fs);
  List.iter
    (fun f ->
      Alcotest.(check string) "code" "single-thread-class" f.SA.code;
      Alcotest.(check bool) "info" true (f.SA.severity = SA.Info))
    fs;
  Alcotest.(check int) "never fails a run" 0 (Lockdep.exit_code fs)

(* Real Omutex traffic: a private engine watches actual lock/unlock
   calls through set_tracer, including the site capture.  The global
   tracer (installed when the suite runs under ORION_LOCKDEP=1) is
   saved and restored around the deliberate inversion. *)
let with_private_engine f =
  let eng = Lockdep.create_engine () in
  Omutex.set_tracer (Some (Lockdep.tracer_of eng));
  Fun.protect
    ~finally:(fun () ->
      match Lockdep.installed () with
      | Some global -> Omutex.set_tracer (Some (Lockdep.tracer_of global))
      | None -> Omutex.set_tracer None)
    (fun () -> f eng)

let test_live_traffic () =
  with_private_engine (fun eng ->
      let core = Omutex.create core in
      let wal = Omutex.create Omutex.wal_log in
      (* Clean direction. *)
      Omutex.with_lock core (fun () -> Omutex.with_lock wal (fun () -> ()));
      Alcotest.(check (list string)) "clean direction" [] (codes eng);
      (* Seeded inversion: wal then core. *)
      Omutex.with_lock wal (fun () -> Omutex.with_lock core (fun () -> ()));
      match find_code eng "rank-inversion" with
      | None -> Alcotest.fail "live inversion missed"
      | Some f ->
          (* Site capture names this file (with debug info compiled in;
             "?" would mean the backtrace machinery regressed). *)
          Alcotest.(check bool) "witness names this file" true
            (detail_mentions f "test_lockdep.ml"))

let test_live_try_lock_and_wait () =
  with_private_engine (fun eng ->
      let core = Omutex.create core in
      (* try_lock failure must NOT enter the held-set: a successful
         re-lock afterwards would otherwise be a false recursive-lock. *)
      Omutex.lock core;
      let self_blocked = Omutex.try_lock core in
      Alcotest.(check bool) "self try_lock fails" false self_blocked;
      Omutex.unlock core;
      Alcotest.(check (list string)) "failed try_lock leaves no residue" []
        (codes eng);
      Alcotest.(check bool) "relock is clean" true (Omutex.try_lock core);
      Omutex.unlock core;
      (* wait releases and re-acquires through the wrapper: holding the
         lock across a wait plus a second acquisition elsewhere must
         not look recursive. *)
      let cond = Condition.create () in
      let m = Omutex.create Omutex.group_commit in
      let woken = ref false in
      let waiter =
        Thread.create
          (fun () ->
            Omutex.with_lock m (fun () ->
                while not !woken do
                  Omutex.wait cond m
                done))
          ()
      in
      Thread.delay 0.05;
      Omutex.with_lock m (fun () ->
          woken := true;
          Condition.signal cond);
      Thread.join waiter;
      Alcotest.(check (list string)) "wait round-trip is clean" [] (codes eng))

(* Record through a private engine, replay through check_trace: the
   replayed findings are the recorded run's. *)
let test_trace_roundtrip () =
  let path = Filename.temp_file "lockdep" ".trace" in
  Sys.remove path;
  let eng = Lockdep.create_engine ~trace:path () in
  feed eng "7.0.1"
    [
      acq ~site:"x.ml:1" alpha;
      acq ~site:"x.ml:2" beta;
      rel beta;
      rel alpha;
    ];
  feed eng "7.0.2" [ acq ~site:"y.ml:8" beta; acq ~site:"y.ml:9" alpha ];
  feed eng "7.0.1" [ acq ~site:"c.ml:1" core; rel core ];
  Lockdep.flush_trace eng;
  let live = Lockdep.engine_findings eng @ Lockdep.single_thread_findings eng in
  Alcotest.(check bool) "the replay covers the one-thread finding" true
    (List.exists (fun f -> f.SA.code = "single-thread-class") live);
  let replayed = Lockdep.check_trace path in
  Alcotest.(check (list string)) "same findings, same order"
    (List.map (fun f -> f.SA.code) live)
    (List.map (fun f -> f.SA.code) replayed);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same witness" a.SA.detail b.SA.detail)
    live replayed;
  Sys.remove path

let test_trace_rejects_garbage () =
  let path = Filename.temp_file "lockdep" ".trace" in
  let oc = open_out path in
  output_string oc "A 1.0.1 wal.log 0 w.ml:1\n";
  close_out oc;
  (* An A line for a class with no C header is a malformed trace, not
     an empty finding list. *)
  (match Lockdep.check_trace path with
  | _ -> Alcotest.fail "headerless trace accepted"
  | exception Failure msg ->
      Alcotest.(check bool) "names file and line" true (contains msg ":1:"));
  let oc = open_out path in
  output_string oc "Z what is this\n";
  close_out oc;
  (match Lockdep.check_trace path with
  | _ -> Alcotest.fail "garbage line accepted"
  | exception Failure _ -> ());
  Sys.remove path

let () =
  Lockdep.install_from_env ();
  Alcotest.run "orion_lockdep"
    [
      ( "engine",
        [
          Alcotest.test_case "clean run" `Quick test_clean_run;
          Alcotest.test_case "rank inversion" `Quick test_rank_inversion;
          Alcotest.test_case "lock-order inversion" `Quick
            test_lock_order_inversion;
          Alcotest.test_case "recursive lock" `Quick test_recursive_lock;
          Alcotest.test_case "same-class nesting" `Quick
            test_same_class_nesting;
          Alcotest.test_case "dedup, ordering, exit codes" `Quick
            test_dedup_and_ordering;
          Alcotest.test_case "single-thread class" `Quick
            test_single_thread_class;
        ] );
      ( "live",
        [
          Alcotest.test_case "real traffic witnessed" `Quick test_live_traffic;
          Alcotest.test_case "try_lock and wait" `Quick
            test_live_try_lock_and_wait;
        ] );
      ( "trace",
        [
          Alcotest.test_case "record/replay round-trip" `Quick
            test_trace_roundtrip;
          Alcotest.test_case "malformed trace rejected" `Quick
            test_trace_rejects_garbage;
        ] );
    ]
