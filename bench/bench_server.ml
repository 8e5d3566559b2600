(* Multi-client throughput/latency benchmark for the network layer.

   Spins up the reactor on a Unix-domain socket — sharded across 1, 2
   and 4 domains — and drives it with 1, 8 and 32 concurrent clients
   under two workloads:

   - conflict-heavy: every transaction takes the X composite lock on
     one shared Assembly root before appending a Part, so commits are
     strictly serialized and most sessions spend their time parked;
   - disjoint: each client owns a private root, so transactions never
     contend and the bench measures raw reactor/protocol overhead and
     how well the shards parallelize it.

   The server runs with an in-memory log and a group-commit window, so
   each scenario also reports WAL syncs per commit — under concurrent
   load the committer batches coincident commits and the ratio drops
   below 1.0.

   Each op is one transaction (begin, lock-composite, make, commit);
   latency is wall time per op including deadlock/timeout retries.
   Every scenario runs a warmup (excluded from the numbers), then
   measures for at least `--min-duration` seconds (default 1.5; 0.3
   with `--quick`) — or exactly `--ops N` per client when given.
   `--json PATH` writes BENCH_PR6.json-style output. *)

module Eval = Orion_dsl.Eval
module Server = Orion_server.Server
module Client = Orion_client
module Message = Orion_protocol.Message
module Addr = Orion_protocol.Addr
module Oid = Orion_core.Oid
module Value = Orion_core.Value
module Wal = Orion_wal.Wal
module Obs = Orion_obs.Metrics

let schema_forms =
  {|
(make-class 'Part :attributes ((Name :domain String)))
(make-class 'Assembly :attributes (
  (Parts :domain (set-of Part) :composite true :exclusive true :dependent true)))
|}

let temp_dir () =
  let dir = Filename.temp_file "orion_bench_server" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

type result = {
  workload : string;
  clients : int;
  domains : int;
  ops : int;
  elapsed_s : float;
  throughput : float; (* ops/s *)
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
  retries : int;
  syncs_per_commit : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let snap_counter name =
  Option.value (Obs.find_counter (Obs.snapshot ()) name) ~default:0

(* One scenario on a fresh server: [clients] threads appending Parts
   against either one shared root or a per-client root, on a reactor
   sharded across [domains] domains.  Workers first run [warmup_ops]
   unmeasured ops each, then measure until the scenario has run for at
   least [min_duration] seconds (and at least one op); with [fixed_ops]
   they run exactly that many measured ops instead. *)
let run_scenario ~workload ~clients ~domains ~warmup_ops ~min_duration
    ~fixed_ops =
  let dir = temp_dir () in
  let sock = Filename.concat dir "bench.sock" in
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  (* An in-memory log: commits pay the append + sync protocol (so group
     commit has something to batch) without disk noise. *)
  let wal = Wal.create () in
  Wal.attach wal (Eval.database env);
  let config =
    {
      Server.default_config with
      max_sessions = 64;
      domains;
      group_commit_window = Some 0.0005;
    }
  in
  let server = Server.create ~config ~wal env (Addr.Unix_path sock) in
  let thread = Thread.create Server.run server in
  let addr = Addr.Unix_path sock in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread;
      (try Sys.remove sock with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let setup = Client.connect ~client_name:"bench-setup" addr in
      let shared_root =
        match Client.eval setup "(make Assembly)" with
        | Message.Obj oid -> oid
        | _ -> failwith "make Assembly"
      in
      let roots =
        Array.init clients (fun _ ->
            match workload with
            | "conflict-heavy" -> shared_root
            | _ -> (
                match Client.eval setup "(make Assembly)" with
                | Message.Obj oid -> oid
                | _ -> failwith "make Assembly"))
      in
      Client.close setup;
      let latencies = Array.init clients (fun _ -> ref []) in
      let op_counts = Array.make clients 0 in
      let retries = Array.make clients 0 in
      let failures = Queue.create () in
      let failures_mu = Mutex.create () in
      (* Two barriers around the measured section so every client warms
         up before any clock starts and the deadline spans all of them. *)
      let barrier = ref 0 in
      let barrier_mu = Mutex.create () in
      let barrier_cond = Condition.create () in
      let await_all () =
        Mutex.lock barrier_mu;
        incr barrier;
        if !barrier mod clients = 0 then Condition.broadcast barrier_cond
        else begin
          let target = ((!barrier / clients) + 1) * clients in
          while !barrier < target do
            Condition.wait barrier_cond barrier_mu
          done
        end;
        Mutex.unlock barrier_mu
      in
      let deadline = ref infinity in
      let worker i () =
        try
          let c = Client.connect ~client_name:"bench" addr in
          let root = roots.(i) in
          let one_op j ~measured =
            let t0 = Unix.gettimeofday () in
            let rec attempt budget =
              ignore (Client.begin_tx c : int);
              match
                Client.lock_composite c ~root Message.Update;
                ignore
                  (Client.make c ~cls:"Part" ~parents:[ (root, "Parts") ]
                     ~attrs:[ ("Name", Value.Str (Printf.sprintf "p-%d-%d" i j)) ]
                     ()
                    : Oid.t);
                Client.commit c
              with
              | () -> ()
              | exception Client.Error ((Message.Conflict | Message.Timeout), _)
                when budget > 0 ->
                  if measured then retries.(i) <- retries.(i) + 1;
                  attempt (budget - 1)
            in
            attempt 20;
            if measured then begin
              latencies.(i) := (Unix.gettimeofday () -. t0) :: !(latencies.(i));
              op_counts.(i) <- op_counts.(i) + 1
            end
          in
          for j = 1 to warmup_ops do
            one_op (-j) ~measured:false
          done;
          await_all ();
          (* Client 0 opens the measured window once everyone is warm. *)
          if i = 0 then deadline := Unix.gettimeofday () +. min_duration;
          await_all ();
          (match fixed_ops with
          | Some n ->
              for j = 1 to n do
                one_op j ~measured:true
              done
          | None ->
              let j = ref 0 in
              while op_counts.(i) = 0 || Unix.gettimeofday () < !deadline do
                incr j;
                one_op !j ~measured:true
              done);
          Client.close c
        with e ->
          Mutex.lock failures_mu;
          Queue.push (i, Printexc.to_string e) failures;
          Mutex.unlock failures_mu
      in
      (* Snapshot the log counters at launch; warmup commits are later
         subtracted via their op count (1 op = 1 commit = [0..1] sync). *)
      let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
      (* The main thread observes the measured window boundaries the
         workers agreed on. *)
      let syncs_before = ref 0 in
      let t_start = ref 0. in
      let observer =
        Thread.create
          (fun () ->
            Mutex.lock barrier_mu;
            while !barrier < clients do
              Condition.wait barrier_cond barrier_mu
            done;
            Mutex.unlock barrier_mu;
            syncs_before := snap_counter "wal.syncs";
            t_start := Unix.gettimeofday ())
          ()
      in
      Thread.join observer;
      List.iter Thread.join threads;
      let elapsed = Unix.gettimeofday () -. !t_start in
      let syncs_after = snap_counter "wal.syncs" in
      (match Queue.peek_opt failures with
      | Some (i, msg) -> failwith (Printf.sprintf "client %d failed: %s" i msg)
      | None -> ());
      let total_ops = Array.fold_left ( + ) 0 op_counts in
      (* Serializability spot-check rides along for free: every append
         (warmup included) must be visible exactly once. *)
      let check = Client.connect ~client_name:"bench-check" addr in
      (* Live reads require a transaction since the dirty-read fix;
         every writer has joined, so these lock without contention. *)
      ignore (Client.begin_tx check : int);
      let seen =
        Array.fold_left
          (fun acc root -> if List.mem root acc then acc else root :: acc)
          [] roots
        |> List.fold_left
             (fun acc root -> acc + List.length (Client.components_of check root))
             0
      in
      Client.commit check;
      Client.close check;
      let expected = total_ops + (clients * warmup_ops) in
      if seen <> expected then
        failwith
          (Printf.sprintf "lost updates: %d parts visible, %d committed" seen
             expected);
      let all =
        Array.of_list (List.concat_map (fun l -> !l) (Array.to_list latencies))
      in
      let sorted = Array.copy all in
      Array.sort Float.compare sorted;
      let mean = Array.fold_left ( +. ) 0.0 all /. float_of_int total_ops in
      {
        workload;
        clients;
        domains;
        ops = total_ops;
        elapsed_s = elapsed;
        throughput = float_of_int total_ops /. elapsed;
        mean_ms = mean *. 1e3;
        p50_ms = percentile sorted 0.50 *. 1e3;
        p95_ms = percentile sorted 0.95 *. 1e3;
        max_ms = sorted.(Array.length sorted - 1) *. 1e3;
        retries = Array.fold_left ( + ) 0 retries;
        syncs_per_commit =
          (if total_ops = 0 then 0.
           else float_of_int (syncs_after - !syncs_before) /. float_of_int total_ops);
      })

let write_json ~path results ~workloads ~client_counts ~domain_counts =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"orion-bench-server-v4\",\n";
  Bench_meta.add buf;
  (* The servers ran in this process: the registry holds the last
     scenario's lock, pool, dispatch and group-commit numbers alongside
     the latency rows below. *)
  Bench_meta.add_metrics buf (Obs.snapshot ());
  Buffer.add_string buf "  \"results\": {\n";
  List.iteri
    (fun wi workload ->
      Buffer.add_string buf (Printf.sprintf "    \"%s\": {\n" workload);
      List.iteri
        (fun ci clients ->
          Buffer.add_string buf (Printf.sprintf "      \"clients-%d\": {\n" clients);
          List.iteri
            (fun di domains ->
              let r =
                List.find
                  (fun r ->
                    r.workload = workload && r.clients = clients
                    && r.domains = domains)
                  results
              in
              Buffer.add_string buf
                (Printf.sprintf
                   "        \"domains-%d\": { \"ops\": %d, \"elapsed_s\": %.3f, \
                    \"throughput_ops_per_s\": %.1f, \"latency_ms\": { \
                    \"mean\": %.3f, \"p50\": %.3f, \"p95\": %.3f, \"max\": \
                    %.3f }, \"retries\": %d, \"wal_syncs_per_commit\": %.3f \
                    }%s\n"
                   domains r.ops r.elapsed_s r.throughput r.mean_ms r.p50_ms
                   r.p95_ms r.max_ms r.retries r.syncs_per_commit
                   (if di = List.length domain_counts - 1 then "" else ",")))
            domain_counts;
          Buffer.add_string buf
            (Printf.sprintf "      }%s\n"
               (if ci = List.length client_counts - 1 then "" else ",")))
        client_counts;
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n"
           (if wi = List.length workloads - 1 then "" else ",")))
    workloads;
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "\nwrote %s\n%!" path

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let arg_value name =
    let rec scan i =
      if i >= Array.length Sys.argv - 1 then None
      else if String.equal Sys.argv.(i) name then Some Sys.argv.(i + 1)
      else scan (i + 1)
    in
    scan 1
  in
  let json_path = arg_value "--json" in
  let fixed_ops = Option.map int_of_string (arg_value "--ops") in
  let min_duration =
    match arg_value "--min-duration" with
    | Some s -> float_of_string s
    | None -> if quick then 0.3 else 1.5
  in
  let warmup_ops = if quick then 2 else 5 in
  let client_counts = if quick then [ 1; 8 ] else [ 1; 8; 32 ] in
  let domain_counts = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let workloads = [ "conflict-heavy"; "disjoint" ] in
  print_endline
    "=== Network server bench: multi-client transactions, sharded reactor ===";
  (match fixed_ops with
  | Some n -> Printf.printf "%d ops/client, one transaction per op\n%!" n
  | None ->
      Printf.printf
        "min %.1fs per scenario after %d warmup ops/client, one transaction \
         per op\n\
         %!"
        min_duration warmup_ops);
  let results =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun clients ->
            List.map
              (fun domains ->
                let r =
                  run_scenario ~workload ~clients ~domains ~warmup_ops
                    ~min_duration ~fixed_ops
                in
                Printf.printf
                  "%-15s %2d clients x %d domains: %7.1f ops/s  mean %6.2f ms  \
                   p95 %7.2f ms  syncs/commit %.3f  (%d retries)\n\
                   %!"
                  workload clients domains r.throughput r.mean_ms r.p95_ms
                  r.syncs_per_commit r.retries;
                r)
              domain_counts)
          client_counts)
      workloads
  in
  match json_path with
  | Some path ->
      write_json ~path results ~workloads ~client_counts ~domain_counts
  | None -> ()
