(* orion_bench: the end-to-end benchmark of the durable server path.

     orion_bench run [--workload W]... [--seed N] [--seconds S] [--quick]
                     [--trace DIR] [--json PATH] [--orion PATH] [--workdir DIR]
     orion_bench compare [--benchmark PATH] BASE.json... [--] NEW.json...

   [run] measures each workload in [rounds] rounds.  A round sets up a
   seeded dataset and a real `orion serve --wal` child, drives it from
   2 client threads (one connection each), then SIGKILLs the server and
   checks that `orion recover`, `orion fsck` and the reopened store
   agree with every acknowledged commit.  Each metric is the median of
   its rounds.  [run] prints every end-to-end metric with its unit and
   sample count and writes a JSON result.  [--trace DIR] repeats each
   workload with client spans on, runs the in-process engine pass and
   reports the per-layer metrics.  With a single workload the last
   stdout line is a one-object summary: the end-to-end metrics, or the
   per-layer ones when tracing.  An op that fails for good fails a gate.
   Exit codes: 0 every gate passed, 1 a gate failed, 2 usage or a fatal
   error.

   [compare] prints each end-to-end metric's relative change per
   workload against its bound in BENCHMARK.json, and the failed share
   of ops against a bound of +0, and exits 1 on a breach.  With several
   result files a side it compares medians and names every metric whose
   spread on either side exceeds its bound. *)

module Client = Orion_client
module Addr = Orion_protocol.Addr
module Obs = Orion_obs.Metrics
module W = Workload

let server_flags = [ "--wal"; "--group-commit-window"; "500" ]
let rounds = 5

type config = {
  orion : string;
  workdir : string;
  seed : int;
  seconds : float;
  quick : bool;
  trace_dir : string option;
}

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;
  per_round : float list;  (* the values a median came from *)
}

let metric name unit_ value samples = { name; unit_; value; samples; per_round = [] }

let fdiv a b = if b = 0. then 0. else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)
let secs_since t0 = float_of_int (Trace.now_ns () - t0) /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted_ms ns =
  let a = Array.map (fun x -> float_of_int x /. 1e6) ns in
  Array.sort compare a;
  a

(* Per-round metric lists merged by name: the median value and the
   summed sample count. *)
let combine lists =
  let names =
    List.fold_left
      (fun acc ms ->
        List.fold_left (fun acc m -> if List.mem m.name acc then acc else m.name :: acc) acc ms)
      [] lists
  in
  List.rev_map
    (fun name ->
      let ms = List.filter_map (List.find_opt (fun m -> m.name = name)) lists in
      {
        (List.hd ms) with
        value = median (List.map (fun m -> m.value) ms);
        samples = List.fold_left (fun n m -> n + m.samples) 0 ms;
        per_round = List.map (fun m -> m.value) ms;
      })
    names

(* {1 Machine speed}

   On a shared 2-vCPU VM the CPU speed drifts by up to a third over
   minutes — a fixed CPU loop takes 67 ms in one phase and 90 ms in the
   next — and every timing of a run moves with it.  So each round times
   a fixed probe, integer hashing into a table and memory copies on both
   cores at once, before its server starts and after it is killed, and
   every time the round reports is scaled to the speed at which the
   probe takes [probe_ref_ms]: times are divided by
   [probe / probe_ref_ms] and rates multiplied by it.  No server process
   exists while the probe runs, so the program under test cannot slow
   it.  The probe follows the drift over minutes, not the noise from
   one second to the next.  On that VM, over two sets of 10 runs of
   each workload, the scaling narrowed the spread of 39 of the 40
   workload-metric pairs and about halved the mean spread, from 17% to
   9%.  The raw probe times are reported as [bench.probe_ms], so the
   unscaled values can be recovered from a result file. *)

let probe_ref_ms = 4.4

(* The probe, one domain per core and neither allocating: the mean of
   each domain's fastest of 5 runs, in ms. *)
let probe_ms () =
  let one () =
    let table = Array.make 16_384 0 in
    let src = Bytes.make 1_000_000 'x' and dst = Bytes.create 1_000_000 in
    let once () =
      let t0 = Trace.now_ns () in
      let x = ref 1 in
      for i = 1 to 2_000_000 do
        x := ((!x * 1_103_515_245) + 12_345) land 0x3FFFFFFF;
        let j = !x land 16_383 in
        table.(j) <- table.(j) + i
      done;
      for _ = 1 to 8 do
        Bytes.blit src 0 dst 0 1_000_000;
        Bytes.blit dst 0 src 0 1_000_000
      done;
      float_of_int (Trace.now_ns () - t0) /. 1e6
    in
    let best = ref infinity in
    for _ = 1 to 5 do
      best := Float.min !best (once ())
    done;
    !best
  in
  let other = Domain.spawn one in
  let mine = one () in
  (mine +. Domain.join other) /. 2.

(* [m] at the reference speed, given [slowdown] = probe / probe_ref_ms. *)
let at_reference ~slowdown m =
  match m.unit_ with
  | "s" | "ms" | "us" -> { m with value = m.value /. slowdown }
  | "ops/s" | "tx/s" -> { m with value = m.value *. slowdown }
  | _ -> m

(* {1 Server} *)

type server = { pid : int; dir : string; db : string; addr : Addr.t; data : Dataset.t }

(* Generate and save the dataset, start the server on it, and wait for
   the first [Hello] to be answered: the set-up a user pays. *)
let start_server cfg ~dir =
  Proc.fresh_dir dir;
  let db = Filename.concat dir "db.odb" in
  let sock = Filename.concat dir "s.sock" in
  let t0 = Trace.now_ns () in
  let data = Dataset.generate ~seed:cfg.seed db in
  let pid =
    Proc.spawn ~log:(Filename.concat dir "server.log") cfg.orion
      (("serve" :: db :: server_flags) @ [ "--socket"; sock ])
  in
  let addr = Addr.Unix_path sock in
  let rec hello () =
    match Client.connect ~client_name:"orion-bench" addr with
    | c -> Client.close c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if Proc.exited pid || secs_since t0 > 60. then
          failwith ("the server did not start; see " ^ Filename.concat dir "server.log");
        Thread.delay 0.001;
        hello ()
  in
  hello ();
  ({ pid; dir; db; addr; data }, secs_since t0)

(* Time `orion recover` on a killed server's store and log, and on a
   copy of both: one recovery is a single-process timing too noisy to
   stand alone.  A reopen of the recovered store — and, with [fsck],
   `orion fsck` — must then agree with the acknowledged appends.
   Returns the mean recovery time, the log size at the kill and the
   failed gates. *)
let crash_and_check cfg srv ~appended ~fsck =
  let wal = srv.db ^ ".wal" in
  let wal_bytes = Proc.file_size wal in
  let copy = Filename.concat srv.dir "copy.odb" in
  Proc.copy_file srv.db copy;
  Proc.copy_file wal (copy ^ ".wal");
  let run what db =
    let log = Filename.concat srv.dir (Filename.basename db ^ "." ^ what ^ ".log") in
    let code, secs = Proc.run ~log cfg.orion [ what; db ] in
    if code = 0 then Ok secs else Error (Printf.sprintf "orion %s exited %d (see %s)" what code log)
  in
  match (run "recover" srv.db, run "recover" copy) with
  | Error e, _ | _, Error e -> (0., wal_bytes, [ e ])
  | Ok a, Ok b -> (
      let recover_s = (a +. b) /. 2. in
      match if fsck then run "fsck" srv.db else Ok 0. with
      | Error e -> (recover_s, wal_bytes, [ e ])
      | Ok _ -> (recover_s, wal_bytes, Option.to_list (Dataset.verify srv.data srv.db ~appended)))

(* {1 Server-side instruments} *)

let counter snap name = Option.value (Obs.find_counter snap name) ~default:0

let hist snap name =
  match Obs.find_histogram snap name with
  | Some h -> (h.Obs.count, h.Obs.sum)
  | None -> (0, 0.)

type delta = { before : Obs.snapshot; after : Obs.snapshot }

let dcount d name = counter d.after name - counter d.before name

let dhist d name =
  let c1, s1 = hist d.after name and c0, s0 = hist d.before name in
  (c1 - c0, s1 -. s0)

(* Summed over every [base{key=*}] histogram. *)
let dlabeled d ~base ~key =
  List.fold_left
    (fun (c, s) (name, _) ->
      match Obs.label_value name ~base ~key with
      | Some _ ->
          let dc, ds = dhist d name in
          (c + dc, s +. ds)
      | None -> (c, s))
    (0, 0.) d.after.Obs.histograms

(* {1 One round} *)

let call_names =
  [ "begin"; "lock_composite"; "make"; "commit"; "begin_snapshot"; "components_of"; "end_snapshot" ]

(* The per-layer metrics of a traced round — client spans, the
   server's Stats deltas over the measured window, CPU readings — and
   the per-call client p50s of the calls the workload makes. *)
let per_layer ~wall ~ok ~writes ~(tallies : W.tally array) ~bufs ~(d : delta) ~server_cpu
    ~bench_cpu ~wal_bytes =
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let retries = sum (fun t -> t.W.retries) in
  let commits = sum (fun t -> t.W.commits) in
  let scans = sum (fun t -> t.W.scans) in
  let op_ns = ref 0 and req_ns = ref 0 and requests = ref [] and pings = ref [] in
  let by_call = Hashtbl.create 8 in
  List.iter
    (fun b ->
      Trace.iter b (fun ~name ~dur_ns ~parent ->
          match name with
          | "op" -> op_ns := !op_ns + dur_ns
          | "ping" -> pings := dur_ns :: !pings
          | _ when parent >= 0 ->
              req_ns := !req_ns + dur_ns;
              requests := dur_ns :: !requests;
              Hashtbl.replace by_call name
                (dur_ns :: Option.value (Hashtbl.find_opt by_call name) ~default:[])
          | _ -> ()))
    bufs;
  let p50_us xs = percentile (sorted_ms (Array.of_list xs)) 0.5 *. 1e3 in
  let per_us s n = fdiv s (float_of_int n) *. 1e6 in
  let n_req = List.length !requests in
  let op_s = float_of_int !op_ns /. 1e9 in
  let dispatch_n, dispatch_s = dhist d "server.dispatch_seconds" in
  let _, enc_s = dhist d "frame.encode_seconds" and _, dec_s = dhist d "frame.decode_seconds" in
  let acq = dcount d "txsvc.acquires" in
  let _, wait_s = dhist d "txsvc.wait_seconds" and _, hold_s = dhist d "txsvc.hold_seconds" in
  let lock_waits, lock_wait_s = dlabeled d ~base:"lock.wait_seconds" ~key:"class" in
  let syncs, sync_s = dhist d "wal.sync_seconds" in
  let batches, batched = dhist d "wal.group_commit.batch_size" in
  let trav_n, trav_s = dhist d "traversal.components_seconds" in
  let hits = dcount d "edge_cache.hits" and misses = dcount d "edge_cache.misses" in
  let mreads = dcount d "mvcc.reads" in
  let share xs = fdiv (float_of_int (List.fold_left ( + ) 0 xs)) (float_of_int !op_ns) in
  let calls c = Option.value (Hashtbl.find_opt by_call c) ~default:[] in
  ( [
      metric "client.request_p50_us" "us" (p50_us !requests) n_req;
      metric "client.ping_p50_us" "us" (p50_us !pings) (List.length !pings);
    ]
    @ List.map
        (fun c ->
          let xs = calls c in
          metric (Printf.sprintf "client.%s_frac" c) "ratio" (share xs) (List.length xs))
        call_names
    @ [
        metric "client.unaccounted_frac" "ratio"
          (fdiv (float_of_int (!op_ns - !req_ns)) (float_of_int !op_ns))
          ok;
        metric "client.requests_per_op" "count" (idiv n_req ok) ok;
        metric "retry_frac" "ratio" (idiv retries ok) retries;
        metric "bench.cpu_frac" "ratio" (fdiv bench_cpu wall) 1;
        metric "frame.codec_us_per_req" "us" (per_us (enc_s +. dec_s) dispatch_n) dispatch_n;
        metric "server.dispatch_us_per_req" "us" (per_us dispatch_s dispatch_n) dispatch_n;
        metric "server.cpu_us_per_op" "us" (per_us server_cpu ok) ok;
        metric "server.parks_per_op" "count" (idiv (dcount d "server.parks_total") ok) ok;
        metric "txsvc.wait_us_per_acquire" "us" (per_us wait_s acq) acq;
        metric "txsvc.hold_us_per_acquire" "us" (per_us hold_s acq) acq;
        metric "lock.acquisitions_per_op" "count" (idiv (dcount d "lock.acquisitions") ok) ok;
        metric "lock.blocks_per_op" "count" (idiv (dcount d "lock.blocks") ok) ok;
        metric "lock.wait_frac" "ratio" (fdiv lock_wait_s op_s) lock_waits;
        metric "wal.syncs_per_commit" "ratio" (idiv syncs commits) commits;
        metric "wal.sync_frac" "ratio" (fdiv sync_s wall) syncs;
        metric "wal.bytes_per_write" "B" (idiv (dcount d "wal.bytes") writes) writes;
        metric "wal.batch_mean" "count" (fdiv batched (float_of_int batches)) batches;
        metric "wal.log_mb_end" "MB" (float_of_int wal_bytes /. 1e6) 1;
        metric "traversal.components_frac" "ratio" (fdiv trav_s op_s) trav_n;
        metric "edge_cache.hit_ratio" "ratio" (idiv hits (hits + misses)) (hits + misses);
        metric "edge_cache.invalidations_per_write" "count"
          (idiv (dcount d "edge_cache.invalidations") writes)
          writes;
        metric "mvcc.reads_per_scan" "count" (idiv mreads scans) scans;
        metric "mvcc.fallthrough_ratio" "ratio" (idiv (dcount d "mvcc.fallthroughs") mreads) mreads;
      ],
    List.filter_map
      (fun c ->
        match calls c with
        | [] -> None
        | xs ->
            Some
              (metric (Printf.sprintf "client.%s_p50_us" c) "us" (p50_us xs) (List.length xs)))
      call_names )

(* Warm-up and measured ops per client in one round: a workload's ops
   are split evenly over its rounds and clients.  [--quick] divides
   both by 20. *)
let ops_for cfg (spec : W.spec) =
  let per_client n = max 1 (n / (if cfg.quick then 20 else 1) / rounds / W.clients) in
  ( per_client W.warmup_ops,
    per_client (int_of_float (float_of_int spec.ops_per_second *. cfg.seconds)) )

let bench_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Measured-op latencies of every client, in sorted milliseconds,
   restricted to the ops whose kind passes [keep]. *)
let latencies (tallies : W.tally array) keep =
  let xs = ref [] in
  Array.iter
    (fun (t : W.tally) ->
      for i = 0 to t.ok_ops - 1 do
        if keep t.kinds.(i) then xs := t.lat_ns.(i) :: !xs
      done)
    tallies;
  sorted_ms (Array.of_list !xs)

(* What a round measured, or a whole workload run once its rounds are
   merged. *)
type result = {
  measured : int;  (* measured ops sent *)
  attempted : int;
  failed : int;
  gates : string list;  (* failed correctness gates *)
  e2e : metric list;
  detail : metric list;  (* read/write split, where the workload has both *)
  layers : metric list;  (* traced runs only *)
  calls : metric list;  (* per-call p50s, traced runs only *)
  mean_op_us : float;
  bufs : Trace.buf list;  (* a traced round's spans *)
}

(* One round against a fresh server: set-up, warm-up, the measured
   window, then the crash and the gates. *)
let run_round cfg (spec : W.spec) ~dir ~round ~traced =
  let probe_before = probe_ms () in
  let srv, setup_s = start_server cfg ~dir in
  let warmup, measured = ops_for cfg spec in
  let streams = W.streams spec ~seed:cfg.seed ~round ~n:(warmup + measured) in
  let acked = Array.init Dataset.n_designs (fun _ -> Atomic.make 0) in
  let ctxs =
    Array.init W.clients (fun client ->
        {
          W.client;
          conn = Client.connect ~client_name:(Printf.sprintf "orion-bench-%d" client) srv.addr;
          data = srv.data;
          acked;
          tally = W.new_tally ();
          tracer = (if traced then Some (Trace.create ~round ~client) else None);
          measuring = false;
          op_span = -1;
        })
  in
  (* The measured window opens once every client is warm: client 0
     reads the server's Stats and both CPU clocks, then lets the others
     go.  A client that dies releases the barrier and wakes the other
     client's socket, so a failure never hangs the run. *)
  let mu = Mutex.create () and cv = Condition.create () in
  let arrived = ref 0 and opened = ref false and window = ref None in
  let release () =
    Mutex.lock mu;
    arrived := W.clients;
    opened := true;
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  let barrier ~leader () =
    Mutex.lock mu;
    incr arrived;
    Condition.broadcast cv;
    if leader then begin
      while !arrived < W.clients do
        Condition.wait cv mu
      done;
      Mutex.unlock mu;
      window :=
        Some (Client.stats ctxs.(0).conn, Proc.cpu_seconds srv.pid, bench_cpu (), Trace.now_ns ());
      release ()
    end
    else begin
      while not !opened do
        Condition.wait cv mu
      done;
      Mutex.unlock mu
    end
  in
  let drive i ~leader =
    match W.drive ctxs.(i) streams.(i) ~warmup ~barrier:(barrier ~leader) with
    | () -> None
    | exception e ->
        release ();
        Array.iter (fun c -> Client.shutdown c.W.conn) ctxs;
        Some e
  in
  let worker_exn = ref None in
  let worker = Thread.create (fun () -> worker_exn := drive 1 ~leader:false) () in
  let leader_exn = drive 0 ~leader:true in
  Thread.join worker;
  (match (!worker_exn, leader_exn) with
  | Some e, _ | None, Some e -> raise e
  | None, None -> ());
  let t_end = Trace.now_ns () in
  let before, cpu0, bench0, t_start = Option.get !window in
  let wall = float_of_int (t_end - t_start) /. 1e9 in
  let d = { before; after = Client.stats ctxs.(0).conn } in
  let server_cpu = Proc.cpu_seconds srv.pid -. cpu0 in
  let bench_cpu = bench_cpu () -. bench0 in
  let rss = Proc.peak_rss_mb srv.pid in
  Array.iter (fun c -> Client.close c.W.conn) ctxs;
  let tallies = Array.map (fun c -> c.W.tally) ctxs in
  let appended =
    Array.init Dataset.n_designs (fun d ->
        Array.init Dataset.assemblies_per_design (fun a ->
            Array.fold_left (fun n (t : W.tally) -> n + t.appended.(d).(a)) 0 tallies))
  in
  Proc.kill srv.pid;
  let probe = (probe_before +. probe_ms ()) /. 2. in
  let slowdown = probe /. probe_ref_ms in
  let norm = List.map (at_reference ~slowdown) in
  let recover_s, wal_bytes, crash_gates =
    crash_and_check cfg srv ~appended ~fsck:(round = rounds - 1)
  in
  let all = latencies tallies (fun _ -> true) in
  let ok = Array.length all in
  let rate n = fdiv (float_of_int n) wall in
  let split ~rate_name ~rate_unit prefix xs =
    let n = Array.length xs in
    if n = 0 then []
    else
      [
        metric rate_name rate_unit (rate n) n;
        metric (prefix ^ "_p50_ms") "ms" (percentile xs 0.5) n;
        metric (prefix ^ "_p99_ms") "ms" (percentile xs 0.99) n;
      ]
  in
  let writes = latencies tallies (( = ) W.Append) in
  let bufs = List.filter_map (fun c -> c.W.tracer) (Array.to_list ctxs) in
  let layers, calls =
    if traced then
      per_layer ~wall ~ok ~writes:(Array.length writes) ~tallies ~bufs ~d ~server_cpu ~bench_cpu
        ~wal_bytes
    else ([], [])
  in
  let sum f = Array.fold_left (fun n t -> n + f t) 0 tallies in
  let failed = sum (fun t -> t.W.failed) in
  (* No op of these workloads may fail: a failure that returns early
     would otherwise pass for a speed-up. *)
  let failed_gate =
    if failed = 0 then []
    else
      let last = Array.to_list tallies |> List.filter_map (fun (t : W.tally) -> t.last_failure) in
      [ Printf.sprintf "%d op(s) failed; last: %s" failed (String.concat "; " last) ]
  in
  {
    measured = W.clients * measured;
    attempted = sum (fun t -> t.W.attempted);
    failed;
    gates =
      List.concat_map (fun (t : W.tally) -> List.rev t.errors) (Array.to_list tallies)
      @ failed_gate @ crash_gates;
    e2e =
      norm
        [
          metric "setup_s" "s" setup_s 1;
          metric "ops_s" "ops/s" (rate ok) ok;
          metric "op_p50_ms" "ms" (percentile all 0.5) ok;
          metric "op_p99_ms" "ms" (percentile all 0.99) ok;
          metric "recover_s" "s" recover_s 2;
          metric "server_rss_mb" "MB" rss 1;
        ];
    detail =
      norm
        (split ~rate_name:"commit_tps" ~rate_unit:"tx/s" "write" writes
        @ split ~rate_name:"read_ops_s" ~rate_unit:"ops/s" "read"
            (latencies tallies (( <> ) W.Append)))
      @ [ metric "bench.probe_ms" "ms" probe 2 ];
    layers = norm layers;
    calls = norm calls;
    mean_op_us = fdiv (Array.fold_left ( +. ) 0. all) (float_of_int ok) *. 1e3 /. slowdown;
    bufs;
  }

(* {1 One workload} *)

let value name ms = (List.find (fun m -> m.name = name) ms).value

(* [rounds] rounds, each metric the median of its rounds.  With
   [trace_file], spans are on and written there. *)
let run_workload cfg (spec : W.spec) ~trace_file =
  let traced = Option.is_some trace_file in
  let base = Filename.concat cfg.workdir (spec.name ^ if traced then "-traced" else "") in
  Proc.fresh_dir base;
  let rs =
    List.init rounds (fun round ->
        let dir = Filename.concat base (Printf.sprintf "round-%d" round) in
        run_round cfg spec ~dir ~round ~traced)
  in
  Option.iter
    (fun path -> Trace.write_jsonl path (List.concat_map (fun r -> r.bufs) rs))
    trace_file;
  let sum f = List.fold_left (fun n r -> n + f r) 0 rs in
  let merged f = combine (List.map f rs) in
  {
    measured = sum (fun r -> r.measured);
    attempted = sum (fun r -> r.attempted);
    failed = sum (fun r -> r.failed);
    gates = List.concat_map (fun r -> r.gates) rs;
    e2e = merged (fun r -> r.e2e);
    detail = merged (fun r -> r.detail);
    layers = merged (fun r -> r.layers);
    calls = merged (fun r -> r.calls);
    mean_op_us = median (List.map (fun r -> r.mean_op_us) rs);
    bufs = [];
  }

(* The engine pass on a fresh copy of the dataset (the seed saves the
   same store), replaying round 0's op streams. *)
let engine_pass cfg (spec : W.spec) ~client_op_us =
  let dir = Filename.concat cfg.workdir (spec.name ^ "-engine") in
  Proc.fresh_dir dir;
  let db_path = Filename.concat dir "db.odb" in
  let data = Dataset.generate ~seed:cfg.seed db_path in
  let warmup, measured = ops_for cfg spec in
  let streams = W.streams spec ~seed:cfg.seed ~round:0 ~n:(warmup + measured) in
  let probe_before = probe_ms () in
  let r = Engine.run ~db_path data streams ~warmup in
  let slowdown = (probe_before +. probe_ms ()) /. 2. /. probe_ref_ms in
  let op_us = idiv r.Engine.op_ns r.ops /. 1e3 /. slowdown in
  ( [
      metric "engine.op_us" "us" op_us r.ops;
      metric "engine.client_frac" "ratio" (fdiv op_us client_op_us) r.ops;
    ],
    List.map
      (fun (name, (n, ns)) ->
        at_reference ~slowdown
          (metric (Printf.sprintf "engine.%s_us" name) "us" (idiv ns n /. 1e3) n))
      r.calls )

(* {1 Output} *)

let print_metrics ~workload ms =
  List.iter
    (fun m ->
      Printf.printf "  %-14s %-36s %14.4f %-6s n=%d\n" workload m.name m.value m.unit_ m.samples)
    ms

let metric_json ?(samples = true) m =
  Json.Obj
    ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
    @
    if samples then
      [
        ("samples", Json.Num (float_of_int m.samples));
        ("per_round", Json.Arr (List.map (fun v -> Json.Num v) m.per_round));
      ]
    else [])

let metrics_json ?samples ms = Json.Obj (List.map (fun m -> (m.name, metric_json ?samples m)) ms)

let num_int n = Json.Num (float_of_int n)

let result_json cfg runs =
  Json.Obj
    [
      ("schema", Json.Str "orion-bench-e2e-v1");
      ("seed", num_int cfg.seed);
      ("seconds", Json.Num cfg.seconds);
      ("quick", Json.Bool cfg.quick);
      ("rounds", num_int rounds);
      ("traced", Json.Bool (Option.is_some cfg.trace_dir));
      ( "server",
        Json.Str (String.concat " " (("orion serve DB" :: server_flags) @ [ "--socket S" ])) );
      ("clients", num_int W.clients);
      ("correct", Json.Bool (List.for_all (fun (_, r) -> r.gates = []) runs));
      ( "workloads",
        Json.Obj
          (List.map
             (fun ((spec : W.spec), r) ->
               ( spec.name,
                 Json.Obj
                   [
                     ("why", Json.Str spec.why);
                     ("measured_ops", num_int r.measured);
                     ("warmup_ops", num_int (rounds * W.clients * fst (ops_for cfg spec)));
                     ("correct", Json.Bool (r.gates = []));
                     ("gates_failed", Json.Arr (List.map (fun g -> Json.Str g) r.gates));
                     ("attempted", num_int r.attempted);
                     ("failed", num_int r.failed);
                     ("end_to_end", metrics_json r.e2e);
                     ("detail", metrics_json r.detail);
                     ("per_layer", metrics_json r.layers);
                     ("calls", metrics_json r.calls);
                   ] ))
             runs) );
    ]

(* The one-line summary a single-workload run ends with. *)
let summary_line cfg r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.gates = []));
         ("attempted", num_int r.attempted);
         ("failed", num_int r.failed);
         ( "metrics",
           metrics_json ~samples:false
             (if Option.is_some cfg.trace_dir then r.layers else r.e2e) );
       ])

let run_cmd cfg specs ~json_path =
  Proc.mkdir_p cfg.workdir;
  Option.iter Proc.mkdir_p cfg.trace_dir;
  Printf.printf
    "orion_bench: seed %d, %g s a workload%s in %d rounds, %d clients, server: orion serve \
     DB %s\n\
     %!"
    cfg.seed cfg.seconds
    (if cfg.quick then " / 20 (quick)" else "")
    rounds W.clients (String.concat " " server_flags);
  let runs =
    List.map
      (fun (spec : W.spec) ->
        let r = run_workload cfg spec ~trace_file:None in
        print_metrics ~workload:spec.name (r.e2e @ r.detail);
        let r =
          match cfg.trace_dir with
          | None -> r
          | Some dir ->
              let t =
                run_workload cfg spec
                  ~trace_file:(Some (Filename.concat dir (spec.name ^ ".jsonl")))
              in
              let overhead =
                metric "trace_overhead_frac" "ratio"
                  (1. -. fdiv (value "ops_s" t.e2e) (value "ops_s" r.e2e))
                  t.measured
              in
              let engine, engine_calls = engine_pass cfg spec ~client_op_us:t.mean_op_us in
              {
                r with
                attempted = r.attempted + t.attempted;
                failed = r.failed + t.failed;
                gates = r.gates @ t.gates;
                layers = t.layers @ [ overhead ] @ engine;
                calls = t.calls @ engine_calls;
              }
        in
        print_metrics ~workload:spec.name (r.layers @ r.calls);
        List.iter (Printf.printf "  %-14s GATE FAILED: %s\n" spec.name) r.gates;
        flush stdout;
        (spec, r))
      specs
  in
  let json_path = Option.value json_path ~default:(Filename.concat cfg.workdir "result.json") in
  let oc = open_out_bin json_path in
  output_string oc (Json.to_string ~indent:true (result_json cfg runs));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  (match runs with [ (_, r) ] -> print_endline (summary_line cfg r) | _ -> ());
  if List.exists (fun (_, r) -> r.gates <> []) runs then 1 else 0

(* {1 compare} *)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default exclusive method); [xs] has at least 2 values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let q i =
    let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
    let delta = (i * (n + 1)) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 3)

let spread xs =
  if List.length xs < 2 then 0.
  else
    let q1, q3 = quartiles xs in
    fdiv (q3 -. q1) (median xs)

let compare_cmd ~benchmark base news =
  let ( >>= ) = Option.bind in
  let field k conv j = Json.member k j >>= conv in
  let bounds =
    List.filter_map
      (fun m ->
        match
          (field "name" Json.to_str m, field "better" Json.to_str m, field "bound" Json.to_float m)
        with
        | Some name, Some better, Some bound -> Some (name, better, bound)
        | _ -> None)
      (Json.to_list
         (Option.value (Json.member "end_to_end" (Json.of_file benchmark)) ~default:Json.Null))
  in
  let base = List.map Json.of_file base and news = List.map Json.of_file news in
  let values files w m =
    List.filter_map
      (fun j ->
        Json.member "workloads" j >>= Json.member w >>= Json.member "end_to_end" >>= Json.member m
        >>= field "value" Json.to_float)
      files
  in
  (* Every workload any base file holds: a one-workload run writes a
     file of its own. *)
  let workloads =
    List.fold_left
      (fun acc j ->
        match Json.member "workloads" j with
        | Some (Json.Obj kvs) ->
            acc @ List.filter (fun w -> not (List.mem w acc)) (List.map fst kvs)
        | _ -> acc)
      [] base
  in
  Printf.printf "%-14s %-16s %14s %14s %9s %7s  %s\n" "workload" "metric" "base" "new" "change"
    "bound" "verdict";
  let breaches = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m, better, bound) ->
          match (values base w m, values news w m) with
          | [], _ | _, [] -> Printf.printf "%-14s %-16s missing\n" w m
          | a, b ->
              let ma = median a and mb = median b in
              let change = fdiv (mb -. ma) ma in
              let worse = if better = "lower" then change else -.change in
              let verdict =
                if worse > bound then begin
                  incr breaches;
                  "BREACH"
                end
                else if spread a > bound || spread b > bound then
                  "ok, but the spread exceeds the bound: unresolved"
                else "ok"
              in
              Printf.printf "%-14s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n" w m ma mb
                (100. *. change) (100. *. bound) verdict)
        bounds;
      (* Failed ops over attempted ones, summed over a side's files: any
         rise is a breach. *)
      let failed_frac files =
        let total k =
          List.fold_left
            (fun n j ->
              n
              +. Option.value ~default:0.
                   (Json.member "workloads" j >>= Json.member w >>= field k Json.to_float))
            0. files
        in
        fdiv (total "failed") (total "attempted")
      in
      let fa = failed_frac base and fb = failed_frac news in
      let verdict =
        if fb > fa then begin
          incr breaches;
          "BREACH"
        end
        else "ok"
      in
      Printf.printf "%-14s %-16s %14.4f %14.4f %9s %7s  %s\n" w "failed_frac" fa fb "" "+0" verdict)
    workloads;
  if !breaches > 0 then begin
    Printf.printf "%d metric(s) worse than their bound\n" !breaches;
    1
  end
  else 0

(* {1 Command line} *)

let usage =
  "usage: orion_bench run [--workload W]... [--seed N] [--seconds S] [--quick]\n\
  \                       [--trace DIR] [--json PATH] [--orion PATH] [--workdir DIR]\n\
  \       orion_bench compare [--benchmark PATH] BASE.json... [--] NEW.json...\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (s : W.spec) -> s.name) W.all)

let die msg =
  prerr_endline ("orion_bench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_run args =
  let cfg =
    ref
      {
        orion = "_build/default/bin/orion.exe";
        workdir = ".bench_out";
        seed = 1;
        seconds = 10.;
        quick = false;
        trace_dir = None;
      }
  in
  let specs = ref [] and json = ref None in
  let num what conv s = match conv s with Some v -> v | None -> die ("bad " ^ what ^ ": " ^ s) in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match W.find w with
        | Some s -> specs := s :: !specs
        | None -> die ("unknown workload " ^ w));
        go rest
    | "--seed" :: n :: rest ->
        cfg := { !cfg with seed = num "seed" int_of_string_opt n };
        go rest
    | "--seconds" :: s :: rest ->
        let seconds = num "seconds" float_of_string_opt s in
        if seconds <= 0. then die "--seconds must be positive";
        cfg := { !cfg with seconds };
        go rest
    | "--quick" :: rest ->
        cfg := { !cfg with quick = true };
        go rest
    | "--trace" :: dir :: rest ->
        cfg := { !cfg with trace_dir = Some dir };
        go rest
    | "--json" :: path :: rest ->
        json := Some path;
        go rest
    | "--orion" :: path :: rest ->
        cfg := { !cfg with orion = path };
        go rest
    | "--workdir" :: dir :: rest ->
        cfg := { !cfg with workdir = dir };
        go rest
    | arg :: _ -> die ("unexpected argument " ^ arg)
  in
  go args;
  let specs = match !specs with [] -> W.all | picked -> List.rev picked in
  (!cfg, specs, !json)

let parse_compare args =
  let benchmark, files =
    match args with "--benchmark" :: path :: rest -> (path, rest) | _ -> ("BENCHMARK.json", args)
  in
  match List.partition (( <> ) "--") files with
  | [ a; b ], [] -> (benchmark, [ a ], [ b ])
  | _ -> (
      let rec split acc = function
        | "--" :: rest -> (List.rev acc, rest)
        | f :: rest -> split (f :: acc) rest
        | [] -> ([], [])
      in
      match split [] files with
      | (_ :: _ as a), (_ :: _ as b) -> (benchmark, a, b)
      | _ -> die "compare needs BASE.json and NEW.json (several a side: BASE... -- NEW...)")

let () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "run" :: args ->
          let cfg, specs, json_path = parse_run args in
          run_cmd cfg specs ~json_path
      | "compare" :: args ->
          let benchmark, base, news = parse_compare args in
          compare_cmd ~benchmark base news
      | _ -> die "expected a command"
    with
    | Failure msg | Sys_error msg | Json.Parse_error msg ->
        prerr_endline ("orion_bench: " ^ msg);
        2
    | Client.Disconnected msg ->
        prerr_endline ("orion_bench: lost the server: " ^ msg);
        2
    | Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "orion_bench: %s(%s): %s\n" fn arg (Unix.error_message e);
        2
  in
  exit code
