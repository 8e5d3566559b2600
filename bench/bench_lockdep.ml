(* Lockdep overhead: what wrapping every engine mutex in Omutex costs.

   Three loops over the same lock/unlock round-trip: a raw [Mutex.t],
   an [Omutex.t] with no tracer installed (the shipping default — one
   [bool ref] load and branch on top of the raw calls), and an
   [Omutex.t] feeding a live Lockdep engine (held-set update, graph
   edge probe, callstack capture for the witness site).

   The acceptance gate projects the disabled-mode delta onto one op of
   the end-to-end benchmark's `append` workload (bench/e2e): at its
   server CPU per op and its wrapped-acquisition count, the added
   nanoseconds must stay under 2% of an op.  The op cost is `append`'s
   `server.cpu_us_per_op`, 143 us, from the traced run recorded at the
   ROADMAP re-anchor of 2026-10-20 (2-vCPU host).  The acquisition
   count is measured with `orion serve --wal --lockdep-trace`: 400
   three-request write transactions (begin, make, commit) took 15.0
   wrapped acquisitions each — shard.inbox 8.0 (once per reactor tick,
   plus the committer's post), wal.group_commit 5.0, wal.log 2.0.  An
   `append` op adds a fourth request (lock-composite), about two more
   reactor ticks, so the projection counts 17 per op.

   `--quick` trims iterations for the smoke alias (the gate still
   runs); `--json PATH` writes BENCH_PR10.json-style output. *)

module Omutex = Orion_util.Omutex
module Lockdep = Orion_analysis.Lockdep

let time_ns_per_round ~rounds f =
  let t0 = Unix.gettimeofday () in
  f rounds;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int rounds

(* The accumulator keeps the critical section from being optimized to
   nothing; it is returned via a sink so flambda cannot drop it. *)
let sink = ref 0

let bench_raw rounds =
  let m = Mutex.create () in
  let acc = ref 0 in
  for _ = 1 to rounds do
    Mutex.lock m;
    incr acc;
    Mutex.unlock m
  done;
  sink := !acc

let bench_omutex rounds =
  let m = Omutex.create Omutex.shard_inbox in
  let acc = ref 0 in
  for _ = 1 to rounds do
    Omutex.lock m;
    incr acc;
    Omutex.unlock m
  done;
  sink := !acc

type row = { case : string; ns_per_round : float }

(* See the header: `append`'s server CPU per op, and the wrapped
   acquisitions one such op makes. *)
let append_cpu_us_per_op = 143.0
let locks_per_op = 17.0
let overhead_budget_pct = 2.0

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let json_path =
    let rec scan i =
      if i >= Array.length Sys.argv - 1 then None
      else if String.equal Sys.argv.(i) "--json" then Some Sys.argv.(i + 1)
      else scan (i + 1)
    in
    scan 1
  in
  let rounds = if quick then 500_000 else 5_000_000 in
  print_endline
    "=== Lockdep bench: raw mutex vs omutex (disabled) vs omutex (enabled) ===";
  (* Warm up once so the first measured loop does not pay page-in. *)
  bench_raw 10_000;
  bench_omutex 10_000;
  let raw = time_ns_per_round ~rounds bench_raw in
  let disabled = time_ns_per_round ~rounds bench_omutex in
  (* Enabled: a private engine watches; restore the tracer after. *)
  let eng = Lockdep.create_engine () in
  Omutex.set_tracer (Some (Lockdep.tracer_of eng));
  let enabled_rounds = rounds / 10 in
  bench_omutex 10_000;
  let enabled = time_ns_per_round ~rounds:enabled_rounds bench_omutex in
  (match Lockdep.installed () with
  | Some global -> Omutex.set_tracer (Some (Lockdep.tracer_of global))
  | None -> Omutex.set_tracer None);
  let rows =
    [
      { case = "raw-mutex"; ns_per_round = raw };
      { case = "omutex-disabled"; ns_per_round = disabled };
      { case = "omutex-enabled"; ns_per_round = enabled };
    ]
  in
  List.iter
    (fun r -> Printf.printf "%-16s %8.1f ns/lock-unlock\n%!" r.case r.ns_per_round)
    rows;
  (* The engine must have seen the enabled traffic and found nothing:
     a single-threaded lock/unlock train is discipline-clean, and a
     finding here would mean the checker invents violations. *)
  (match Lockdep.engine_findings eng with
  | [] -> ()
  | f :: _ ->
      Printf.eprintf "FAIL: clean traffic produced a finding: %s\n%!"
        f.Orion_analysis.Schema_analysis.detail;
      exit 1);
  if Lockdep.edge_count eng <> 0 then begin
    (* One class alone can never add a may-precede edge. *)
    Printf.eprintf "FAIL: single-class traffic grew the order graph\n%!";
    exit 1
  end;
  (* The gate: project the disabled-mode delta onto one `append` op.
     Negative deltas are measurement noise — clamp to zero rather than
     celebrate. *)
  let delta_ns = Float.max 0. (disabled -. raw) in
  let op_ns = append_cpu_us_per_op *. 1e3 in
  let overhead_pct = delta_ns *. locks_per_op /. op_ns *. 100. in
  Printf.printf
    "disabled-mode delta: %.1f ns/lock x %.0f locks/op = %.0f ns on a %.0f \
     ns op (%.3f%%, budget %.1f%%)\n\
     (append: %.0f us server CPU per op, %.0f wrapped acquisitions per op)\n%!"
    delta_ns locks_per_op (delta_ns *. locks_per_op) op_ns overhead_pct
    overhead_budget_pct append_cpu_us_per_op locks_per_op;
  if overhead_pct > overhead_budget_pct then begin
    Printf.eprintf "FAIL: disabled-mode overhead %.3f%% exceeds %.1f%%\n%!"
      overhead_pct overhead_budget_pct;
    exit 1
  end;
  Printf.printf "disabled-mode overhead within budget\n%!";
  match json_path with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "{\n";
      Buffer.add_string buf "  \"schema\": \"orion-bench-lockdep-v1\",\n";
      Bench_meta.add buf;
      Buffer.add_string buf "  \"results\": [\n";
      List.iteri
        (fun i r ->
          Buffer.add_string buf
            (Printf.sprintf "    { \"case\": \"%s\", \"ns_per_round\": %.1f }%s\n"
               r.case r.ns_per_round
               (if i = List.length rows - 1 then "" else ",")))
        rows;
      Buffer.add_string buf "  ],\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  \"projection\": { \"delta_ns_per_lock\": %.1f, \
            \"locks_per_op\": %.0f, \"op_ns\": %.0f, \"overhead_pct\": %.4f, \
            \"budget_pct\": %.1f }\n"
           delta_ns locks_per_op op_ns overhead_pct overhead_budget_pct);
      Buffer.add_string buf "}\n";
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Buffer.contents buf));
      Printf.printf "\nwrote %s\n%!" path
