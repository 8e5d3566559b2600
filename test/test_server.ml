(* End-to-end tests of the network layer: reactor, sessions, parked
   transactions, deadlock resolution on the wire, admission control,
   backpressure, and crash recovery of a killed server.

   The server runs in a thread; clients run in other threads over a
   Unix-domain socket in a temp directory.  The reactor itself stays
   single-threaded — the threads here only stand in for separate client
   processes. *)

open Orion_core
module Eval = Orion_dsl.Eval
module Server = Orion_server.Server
module Client = Orion_client
module Frame = Orion_protocol.Frame
module Message = Orion_protocol.Message
module Wal = Orion_wal.Wal
module Recovery = Orion_wal.Recovery
module Obs = Orion_obs.Metrics

let temp_dir () =
  let dir = Filename.temp_file "orion_server_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let schema_forms =
  {|
(make-class 'Part :attributes ((Name :domain String)))
(make-class 'Assembly :attributes (
  (Parts :domain (set-of Part) :composite true :exclusive true :dependent true)))
|}

(* Run [f addr] against a server serving a fresh env; the server is
   stopped and joined afterwards, and its database handed back for
   post-mortem assertions. *)
let with_server ?config ?wal ?env f =
  let dir = temp_dir () in
  let sock = Filename.concat dir "orion.sock" in
  let env =
    match env with
    | Some env -> env
    | None ->
        let env = Eval.create_env () in
        ignore (Eval.eval_program env schema_forms : Eval.v list);
        env
  in
  let server = Server.create ?config ?wal env (Server.Unix_path sock) in
  let thread = Thread.create Server.run server in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then begin
        Server.stop server;
        Thread.join thread
      end)
    (fun () ->
      let result = f (Orion_protocol.Addr.Unix_path sock) server in
      Server.stop server;
      Thread.join thread;
      finished := true;
      (result, Eval.database env, Server.stats server))

let connect addr = Client.connect ~client_name:"test" addr

(* Raw frames over a socket, for protocol-level misbehavior the
   well-mannered client library cannot produce. *)
module Raw = struct
  type t = { fd : Unix.file_descr; splitter : Frame.Splitter.t }

  let connect addr =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Orion_protocol.Addr.to_sockaddr addr);
    { fd; splitter = Frame.Splitter.create () }

  let send t reqs =
    let wire =
      Bytes.concat Bytes.empty
        (List.map (fun r -> Frame.encode (Message.encode_request r)) reqs)
    in
    let off = ref 0 in
    while !off < Bytes.length wire do
      off := !off + Unix.write t.fd wire !off (Bytes.length wire - !off)
    done

  let rec recv t =
    match Frame.Splitter.next t.splitter with
    | Some payload -> Message.decode_server payload
    | None ->
        let chunk = Bytes.create 4096 in
        (match Unix.read t.fd chunk 0 4096 with
        | 0 -> failwith "raw: server closed"
        | n -> Frame.Splitter.feed t.splitter chunk ~len:n);
        recv t

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* Basics ----------------------------------------------------------------------- *)

let test_handshake_and_basics () =
  let (), db, stats =
    with_server (fun addr _server ->
        let c = connect addr in
        Alcotest.(check int) "first session id" 0 (Client.session_id c);
        Client.ping c;
        let root =
          match Client.eval c "(make Assembly)" with
          | Message.Obj oid -> oid
          | v -> Alcotest.failf "unexpected eval result %a" Message.pp_v v
        in
        let part =
          Client.make c ~cls:"Part" ~parents:[ (root, "Parts") ]
            ~attrs:[ ("Name", Value.Str "bolt") ] ()
        in
        (* Live reads need a transaction (or snapshot) since the dirty-
           read fix: lock-protected inside a tx here. *)
        ignore (Client.begin_tx c : int);
        Alcotest.(check bool) "components-of sees the part" true
          (Client.components_of c root = [ part ]);
        Client.commit c;
        Client.close c)
  in
  Alcotest.(check int) "one session accepted" 1 stats.Server.accepted;
  Alcotest.(check int) "both objects server-side" 2 (Database.count db)

let test_tx_commit_visible_and_abort_undone () =
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let db = Eval.database env in
  let (), _, _ =
    with_server ~env (fun addr _server ->
        let c1 = connect addr in
        let c2 = connect addr in
        ignore (Client.begin_tx c1 : int);
        let committed = Client.make c1 ~cls:"Part" ~attrs:[ ("Name", Value.Str "kept") ] () in
        Client.commit c1;
        (* A second session sees the committed object... *)
        Alcotest.(check bool) "visible to c2" true
          (match Client.eval c2 "(count-objects)" with
          | Message.Num 1 -> true
          | _ -> false);
        (* ...while an aborted transaction leaves no trace. *)
        ignore (Client.begin_tx c2 : int);
        ignore (Client.make c2 ~cls:"Part" ~attrs:[ ("Name", Value.Str "undone") ] () : Oid.t);
        Client.abort c2;
        Alcotest.(check bool) "committed part survives" true
          (Database.exists db committed);
        Alcotest.(check int) "abort undid the create" 1 (Database.count db);
        (* Mutations written in the DSL surface, not the typed
           requests, are transactional too: the server routes the
           evaluator through the manager while a transaction is
           open. *)
        ignore (Client.begin_tx c2 : int);
        (match Client.eval c2 "(make Part :Name \"evald\")" with
        | Message.Obj _ -> ()
        | v -> Alcotest.failf "unexpected eval result %a" Message.pp_v v);
        Client.abort c2;
        Alcotest.(check int) "abort undid the evaluated create" 1
          (Database.count db);
        Client.close c1;
        Client.close c2)
  in
  ()

let test_wrong_version_rejected () =
  let (), _, _ =
    with_server (fun addr _server ->
        let raw = Raw.connect addr in
        Raw.send raw [ Message.Hello { version = 99; client = "from the future" } ];
        (match Raw.recv raw with
        | Message.Reply (Message.Error { code = Message.Unsupported_version; _ }) -> ()
        | _ -> Alcotest.fail "expected Unsupported_version");
        Raw.close raw)
  in
  ()

let test_hello_required_first () =
  let (), _, _ =
    with_server (fun addr _server ->
        let raw = Raw.connect addr in
        Raw.send raw [ Message.Ping ];
        (match Raw.recv raw with
        | Message.Reply (Message.Error { code = Message.Bad_request; _ }) -> ()
        | _ -> Alcotest.fail "expected Bad_request before hello");
        Raw.close raw)
  in
  ()

(* Admission control & backpressure --------------------------------------------- *)

let test_admission_control () =
  let config = { Server.default_config with max_sessions = 2 } in
  let (), _, stats =
    with_server ~config (fun addr _server ->
        let c1 = connect addr in
        let c2 = connect addr in
        (match connect addr with
        | exception Client.Error (Message.Too_many_sessions, _) -> ()
        | c3 ->
            Client.close c3;
            Alcotest.fail "third session admitted past the bound");
        Client.close c1;
        (* Closing a session frees a slot (the reactor needs a beat to
           process the goodbye). *)
        let rec retry n =
          match connect addr with
          | c -> Client.close c
          | exception Client.Error (Message.Too_many_sessions, _) when n > 0 ->
              Thread.delay 0.05;
              retry (n - 1)
        in
        retry 40;
        Client.close c2)
  in
  Alcotest.(check bool) "a rejection was counted" true (stats.Server.rejected >= 1)

let test_pipelined_burst_backpressure () =
  (* 40 pipelined requests against a queue bound of 4: the reactor must
     apply backpressure without dropping or reordering any of them. *)
  let config = { Server.default_config with queue_limit = 4 } in
  let (), _, stats =
    with_server ~config (fun addr _server ->
        let raw = Raw.connect addr in
        let n = 40 in
        Raw.send raw
          (Message.Hello { version = Message.version; client = "burst" }
          :: List.init n (fun _ -> Message.Ping));
        (match Raw.recv raw with
        | Message.Reply (Message.Welcome _) -> ()
        | _ -> Alcotest.fail "expected welcome");
        for i = 1 to n do
          match Raw.recv raw with
          | Message.Reply Message.Pong -> ()
          | _ -> Alcotest.failf "reply %d is not pong" i
        done;
        Raw.close raw)
  in
  Alcotest.(check int) "all requests processed" 41 stats.Server.requests

(* Stats over the wire ----------------------------------------------------------- *)

(* One [Stats] request returns a snapshot spanning every subsystem:
   lock table, buffer pool, disk, edge cache, WAL (zeroed when the
   server runs without one) and the server's own counters, plus the
   latency histograms. *)
let test_stats_over_the_wire () =
  let (), _, _ =
    with_server (fun addr _server ->
        let c1 = connect addr in
        let c2 = connect addr in
        let root =
          match Client.eval c1 "(make Assembly)" with
          | Message.Obj oid -> oid
          | _ -> Alcotest.fail "make"
        in
        (* Generate traffic on every subsystem: a composite build and
           traversal, plus a contended lock that parks c2. *)
        ignore (Client.begin_tx c1 : int);
        Client.lock_composite c1 ~root Message.Update;
        ignore
          (Client.make c1 ~cls:"Part" ~parents:[ (root, "Parts") ]
             ~attrs:[ ("Name", Value.Str "probe") ] ()
            : Oid.t);
        ignore (Client.begin_tx c2 : int);
        let waiter =
          Thread.create (fun () -> Client.lock_composite c2 ~root Message.Read) ()
        in
        Thread.delay 0.2;
        Client.commit c1;
        Thread.join waiter;
        Client.commit c2;
        ignore (Client.begin_tx c1 : int);
        ignore (Client.components_of c1 root : Oid.t list);
        Client.commit c1;
        let snap = Client.stats c1 in
        let counter name =
          match Obs.find_counter snap name with
          | Some v -> v
          | None -> Alcotest.failf "counter %s missing from snapshot" name
        in
        (* Activity where the workload produced it... *)
        Alcotest.(check bool) "lock acquisitions" true (counter "lock.acquisitions" > 0);
        Alcotest.(check bool) "a block was counted" true (counter "lock.blocks" > 0);
        Alcotest.(check bool) "requests served" true (counter "server.requests" > 0);
        Alcotest.(check bool) "a park was counted" true
          (counter "server.parks_total" > 0);
        (* ...and mere presence where it need not have (cold caches,
           no WAL attached: the cells exist, zeroed). *)
        List.iter
          (fun name -> ignore (counter name : int))
          [
            "pool.hits"; "pool.misses"; "disk.reads"; "disk.writes";
            "edge_cache.hits"; "edge_cache.misses"; "wal.appends"; "wal.syncs";
          ];
        Alcotest.(check (option int)) "sessions gauge" (Some 2)
          (Obs.find_gauge snap "server.sessions");
        Alcotest.(check (option int)) "parked gauge back to 0" (Some 0)
          (Obs.find_gauge snap "server.parked");
        (* The three load-bearing latency histograms, lock wait with a
           real observation from the park above. *)
        (match Obs.find_histogram snap "lock.wait_seconds" with
        | Some h ->
            Alcotest.(check bool) "lock wait observed" true (h.Obs.count >= 1);
            Alcotest.(check bool) "waited roughly the park time" true
              (h.Obs.max >= 0.1)
        | None -> Alcotest.fail "lock.wait_seconds missing");
        (match Obs.find_histogram snap "server.dispatch_seconds" with
        | Some h -> Alcotest.(check bool) "dispatches timed" true (h.Obs.count > 0)
        | None -> Alcotest.fail "server.dispatch_seconds missing");
        Alcotest.(check bool) "wal.append_seconds present" true
          (Obs.find_histogram snap "wal.append_seconds" <> None);
        Client.close c1;
        Client.close c2)
  in
  ()

(* Parked transactions ----------------------------------------------------------- *)

let test_park_and_wakeup () =
  let (), _, stats =
    with_server (fun addr server ->
        let c1 = connect addr in
        let c2 = connect addr in
        let root =
          match Client.eval c1 "(make Assembly)" with
          | Message.Obj oid -> oid
          | _ -> Alcotest.fail "make"
        in
        ignore (Client.begin_tx c1 : int);
        Client.lock_composite c1 ~root Message.Update;
        ignore (Client.begin_tx c2 : int);
        let t0 = Unix.gettimeofday () in
        let granted_after = ref 0. in
        let waiter =
          Thread.create
            (fun () ->
              (* Parks server-side; this client thread just blocks. *)
              Client.lock_composite c2 ~root Message.Update;
              granted_after := Unix.gettimeofday () -. t0)
            ()
        in
        Thread.delay 0.3;
        (* Regression: [parked] is a gauge over live sessions, not a
           lifetime counter — it must read 1 while c2 waits... *)
        Alcotest.(check int) "gauge is 1 while parked" 1
          (Server.stats server).Server.parked;
        Client.commit c1;
        Thread.join waiter;
        Alcotest.(check bool) "granted only after the commit" true
          (!granted_after >= 0.25);
        (* ...and return to 0 once the wait is granted. *)
        Alcotest.(check int) "gauge returns to 0 after resume" 0
          (Server.stats server).Server.parked;
        Client.commit c2;
        Client.close c1;
        Client.close c2)
  in
  Alcotest.(check bool) "the wait was a park" true (stats.Server.parks_total >= 1);
  Alcotest.(check int) "no session still parked" 0 stats.Server.parked

let test_deadlock_victim_on_the_wire () =
  let (), _, stats =
    with_server (fun addr _server ->
        let c1 = connect addr in
        let c2 = connect addr in
        let oid_of c form =
          match Client.eval c form with
          | Message.Obj oid -> oid
          | _ -> Alcotest.fail "make"
        in
        let a = oid_of c1 "(setq a (make Assembly))" in
        let b = oid_of c1 "(setq b (make Assembly))" in
        ignore (Client.begin_tx c1 : int);
        ignore (Client.begin_tx c2 : int);
        Client.lock_composite c1 ~root:a Message.Update;
        Client.lock_composite c2 ~root:b Message.Update;
        (* c1 parks waiting for b... *)
        let c1_result = ref `Pending in
        let waiter =
          Thread.create
            (fun () ->
              match Client.lock_composite c1 ~root:b Message.Update with
              | () -> c1_result := `Granted
              | exception Client.Error (code, _) -> c1_result := `Error code)
            ()
        in
        Thread.delay 0.2;
        (* ...and c2 closing the cycle makes itself the youngest
           transaction in it: the victim.  Its own lock call reports
           the conflict. *)
        (match Client.lock_composite c2 ~root:a Message.Update with
        | () -> Alcotest.fail "victim's lock cannot be granted"
        | exception Client.Error (Message.Conflict, _) -> ());
        Thread.join waiter;
        Alcotest.(check bool) "survivor's lock granted" true
          (!c1_result = `Granted);
        (* The push arrived alongside the error reply. *)
        Alcotest.(check bool) "victim got the deadlock push" true
          (List.exists
             (function Message.Deadlock_victim _ -> true | _ -> false)
             (Client.notices c2));
        Client.commit c1;
        (* The victim can retry immediately on the same connection. *)
        ignore (Client.begin_tx c2 : int);
        Client.lock_composite c2 ~root:a Message.Update;
        Client.commit c2;
        Client.close c1;
        Client.close c2)
  in
  Alcotest.(check int) "one victim counted" 1 stats.Server.deadlock_victims

let test_lock_timeout () =
  let config = { Server.default_config with lock_timeout = Some 0.3 } in
  let (), _, stats =
    with_server ~config (fun addr _server ->
        let c1 = connect addr in
        let c2 = connect addr in
        let root =
          match Client.eval c1 "(make Assembly)" with
          | Message.Obj oid -> oid
          | _ -> Alcotest.fail "make"
        in
        ignore (Client.begin_tx c1 : int);
        Client.lock_composite c1 ~root Message.Update;
        ignore (Client.begin_tx c2 : int);
        let t0 = Unix.gettimeofday () in
        (match Client.lock_composite c2 ~root Message.Update with
        | () -> Alcotest.fail "lock cannot be granted while c1 holds it"
        | exception Client.Error (Message.Timeout, _) -> ());
        Alcotest.(check bool) "timed out around the configured limit" true
          (let dt = Unix.gettimeofday () -. t0 in
           dt >= 0.25 && dt < 3.);
        (* The holder is unaffected; the timed-out session can retry
           after the holder finishes. *)
        Client.commit c1;
        ignore (Client.begin_tx c2 : int);
        Client.lock_composite c2 ~root Message.Update;
        Client.commit c2;
        Client.close c1;
        Client.close c2)
  in
  Alcotest.(check int) "one timeout counted" 1 stats.Server.lock_timeouts

(* Regression: the holder deletes the contested object and commits
   while another session is parked waiting for it.  The commit's
   wake-up re-derives the waiter's lock set from the (now gone) root;
   that must surface as a Conflict reply to the waiter — aborting its
   transaction — not as an exception crashing the reactor. *)
let test_holder_deletes_contested_target () =
  let (), _, _ =
    with_server (fun addr _server ->
        let c1 = connect addr in
        let c2 = connect addr in
        let root =
          match Client.eval c1 "(setq r (make Assembly))" with
          | Message.Obj oid -> oid
          | _ -> Alcotest.fail "make"
        in
        ignore (Client.begin_tx c1 : int);
        Client.lock_composite c1 ~root Message.Update;
        ignore (Client.begin_tx c2 : int);
        let c2_result = ref `Pending in
        let waiter =
          Thread.create
            (fun () ->
              match Client.lock_composite c2 ~root Message.Update with
              | () -> c2_result := `Granted
              | exception Client.Error (code, _) -> c2_result := `Error code)
            ()
        in
        Thread.delay 0.2;
        (match Client.eval c1 "(delete r)" with
        | Message.Unit -> ()
        | v -> Alcotest.failf "unexpected delete result %a" Message.pp_v v);
        Client.commit c1;
        Thread.join waiter;
        Alcotest.(check bool) "waiter got a conflict" true
          (!c2_result = `Error Message.Conflict);
        (* The server survived and the waiter's session is usable:
           its transaction was aborted with the conflict, so a fresh
           one can start right away. *)
        Client.ping c2;
        ignore (Client.begin_tx c2 : int);
        Client.commit c2;
        Client.close c1;
        Client.close c2)
  in
  ()

(* The 32-client workload -------------------------------------------------------- *)

let test_concurrent_workload_serializable () =
  let clients = 32 and ops = 5 in
  let (), db, stats =
    with_server (fun addr _server ->
        let c0 = connect addr in
        let root =
          match Client.eval c0 "(setq shared (make Assembly))" with
          | Message.Obj oid -> oid
          | _ -> Alcotest.fail "make"
        in
        Client.close c0;
        let failures = Queue.create () in
        let failures_mu = Mutex.create () in
        let worker i () =
          try
            let c = connect addr in
            for j = 1 to ops do
              (* Conflict-heavy: every op contends for the same root's
                 X lock, so the parts append strictly one at a time. *)
              let rec attempt retries =
                ignore (Client.begin_tx c : int);
                match
                  Client.lock_composite c ~root Message.Update;
                  ignore
                    (Client.make c ~cls:"Part" ~parents:[ (root, "Parts") ]
                       ~attrs:
                         [ ("Name", Value.Str (Printf.sprintf "p-%d-%d" i j)) ]
                       ()
                      : Oid.t);
                  Client.commit c
                with
                | () -> ()
                | exception Client.Error ((Message.Conflict | Message.Timeout), _)
                  when retries > 0 ->
                    (* The transaction is already aborted server-side. *)
                    attempt (retries - 1)
              in
              attempt 5
            done;
            Client.close c
          with e ->
            Mutex.lock failures_mu;
            Queue.push (i, Printexc.to_string e) failures;
            Mutex.unlock failures_mu
        in
        let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
        List.iter Thread.join threads;
        (match Queue.peek_opt failures with
        | Some (i, msg) -> Alcotest.failf "client %d failed: %s" i msg
        | None -> ());
        (* Serializable outcome: every committed append is present,
           none duplicated, under a still-consistent database. *)
        let c = connect addr in
        ignore (Client.begin_tx c : int);
        let parts = Client.components_of c root in
        Client.commit c;
        Alcotest.(check int) "all appends present"
          (clients * ops) (List.length parts);
        Alcotest.(check int) "no duplicate components"
          (List.length parts)
          (List.length (List.sort_uniq Oid.compare parts));
        Client.close c)
  in
  Alcotest.(check int) "every session admitted" 34 stats.Server.accepted;
  (match Integrity.check db with
  | [] -> ()
  | violations ->
      Alcotest.failf "integrity: %a"
        (Format.pp_print_list Integrity.pp_violation)
        violations)

(* Crash and recovery ------------------------------------------------------------ *)

let test_kill_then_recover () =
  let dir = temp_dir () in
  let wal_path = Filename.concat dir "crash.wal" in
  let db = Database.create () in
  let env = Eval.create_env ~db () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let wal = Wal.create () in
  Wal.attach wal db;
  Wal.set_backing wal (Some wal_path);
  (* Checkpoint once so the log holds the catalog (schema + seed). *)
  Persist.save db;
  let committed, killed_count =
    let sock = Filename.concat dir "orion.sock" in
    let server = Server.create ~wal env (Server.Unix_path sock) in
    let thread = Thread.create Server.run server in
    let addr = Orion_protocol.Addr.Unix_path sock in
    let c1 = connect addr in
    let c2 = connect addr in
    let make_part c name =
      ignore (Client.begin_tx c : int);
      let oid = Client.make c ~cls:"Part" ~attrs:[ ("Name", Value.Str name) ] () in
      Client.commit c;
      oid
    in
    let p1 = make_part c1 "durable-1" in
    let p2 = make_part c2 "durable-2" in
    (* The same through the evaluator: a form evaluated inside an open
       transaction routes through the manager, so its after-image must
       reach the log at commit exactly like a typed make. *)
    ignore (Client.begin_tx c1 : int);
    let p3 =
      match Client.eval c1 "(make Part :Name \"durable-3\")" with
      | Message.Obj oid -> oid
      | v -> Alcotest.failf "unexpected eval result %a" Message.pp_v v
    in
    Client.commit c1;
    (* An uncommitted transaction in flight at the moment of the crash:
       its create must NOT survive recovery. *)
    ignore (Client.begin_tx c1 : int);
    ignore
      (Client.make c1 ~cls:"Part" ~attrs:[ ("Name", Value.Str "in-flight") ] ()
        : Oid.t);
    let count_before = Database.count db in
    (* kill -9: no drain, no checkpoint, no goodbye. *)
    Server.kill server;
    Thread.join thread;
    (try Client.close c1 with _ -> ());
    (try Client.close c2 with _ -> ());
    ([ p1; p2; p3 ], count_before)
  in
  ignore killed_count;
  (* Recover from the on-disk log alone, like `orion recover` would. *)
  let recovered, rstats = Recovery.replay (Wal.load_file wal_path) in
  (* The in-flight transaction never reached the log — after-images are
     appended only at commit — so the only evidence expected of it is
     its absence below. *)
  Alcotest.(check int) "all committed transactions redone" 3
    rstats.Recovery.committed_txs;
  List.iter
    (fun oid ->
      Alcotest.(check bool)
        (Format.asprintf "committed %a survived" Oid.pp oid)
        true (Database.exists recovered oid))
    committed;
  let parts cls_db =
    List.length (Database.instances_of cls_db ~subclasses:false "Part")
  in
  Alcotest.(check int) "exactly the committed parts" 3 (parts recovered);
  (match Integrity.check recovered with
  | [] -> ()
  | violations ->
      Alcotest.failf "recovered integrity: %a"
        (Format.pp_print_list Integrity.pp_violation)
        violations)

(* Group commit over the wire ----------------------------------------------------- *)

(* Two commits submitted while both transactions are open must coalesce
   into ONE batch: one log sync, one group seal.  The long window makes
   the coalescing deterministic — the committer is still holding the
   batch open when the second commit arrives; the eager-flush heuristic
   cannot fire because another transaction is open at each submit. *)
let test_group_commit_batches_on_the_wire () =
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let wal = Wal.create () in
  Wal.attach wal (Eval.database env);
  let config =
    { Server.default_config with group_commit_window = 0.5 }
  in
  let counter snap name =
    Option.value (Obs.find_counter snap name) ~default:0
  in
  let (), _, _ =
    with_server ~config ~wal ~env (fun addr _server ->
        let c1 = connect addr in
        let c2 = connect addr in
        ignore (Client.begin_tx c1 : int);
        ignore (Client.begin_tx c2 : int);
        ignore
          (Client.make c1 ~cls:"Part" ~attrs:[ ("Name", Value.Str "b1") ] ()
            : Oid.t);
        ignore
          (Client.make c2 ~cls:"Part" ~attrs:[ ("Name", Value.Str "b2") ] ()
            : Oid.t);
        let before = Client.stats c1 in
        let committers =
          [
            Thread.create (fun () -> Client.commit c1) ();
            Thread.create (fun () -> Client.commit c2) ();
          ]
        in
        List.iter Thread.join committers;
        let after = Client.stats c1 in
        Alcotest.(check int) "one sync for both commits" 1
          (counter after "wal.syncs" - counter before "wal.syncs");
        Alcotest.(check int) "one batch" 1
          (counter after "wal.group_commit.batches"
          - counter before "wal.group_commit.batches");
        Alcotest.(check int) "both commits batched" 2
          (counter after "wal.group_commit.batched_txs"
          - counter before "wal.group_commit.batched_txs");
        Client.close c1;
        Client.close c2)
  in
  ()

(* Acked-implies-durable under concurrent load: sessions commit through
   the group committer, the server dies by kill -9, and replay of the
   surviving log must contain EVERY acknowledged commit — the reply is
   only sent after the batch sync. *)
let test_kill_recover_group_commit () =
  let dir = temp_dir () in
  let wal_path = Filename.concat dir "gc-crash.wal" in
  let db = Database.create () in
  let env = Eval.create_env ~db () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let wal = Wal.create () in
  Wal.attach wal db;
  Wal.set_backing wal (Some wal_path);
  Persist.save db;
  let clients = 6 and ops = 3 in
  let acked =
    let sock = Filename.concat dir "orion.sock" in
    let config =
      { Server.default_config with group_commit_window = 0.002 }
    in
    let server = Server.create ~config ~wal env (Server.Unix_path sock) in
    let thread = Thread.create Server.run server in
    let addr = Orion_protocol.Addr.Unix_path sock in
    let acked = ref [] in
    let acked_mu = Mutex.create () in
    let worker i () =
      let c = connect addr in
      for j = 1 to ops do
        ignore (Client.begin_tx c : int);
        let oid =
          Client.make c ~cls:"Part"
            ~attrs:[ ("Name", Value.Str (Printf.sprintf "gc-%d-%d" i j)) ]
            ()
        in
        Client.commit c;
        (* The server acknowledged: from here the commit must survive
           any crash. *)
        Mutex.lock acked_mu;
        acked := oid :: !acked;
        Mutex.unlock acked_mu
      done
      (* No goodbye: the sessions are live when the server dies. *)
    in
    let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
    List.iter Thread.join threads;
    Server.kill server;
    Thread.join thread;
    !acked
  in
  Alcotest.(check int) "every commit acked" (clients * ops) (List.length acked);
  let recovered, rstats = Recovery.replay (Wal.load_file wal_path) in
  Alcotest.(check int) "every acked commit replayed" (clients * ops)
    rstats.Recovery.committed_txs;
  List.iter
    (fun oid ->
      Alcotest.(check bool)
        (Format.asprintf "acked %a durable" Oid.pp oid)
        true (Database.exists recovered oid))
    acked;
  (match Integrity.check recovered with
  | [] -> ()
  | violations ->
      Alcotest.failf "recovered integrity: %a"
        (Format.pp_print_list Integrity.pp_violation)
        violations)

(* Graceful shutdown -------------------------------------------------------------- *)

let test_graceful_shutdown_notifies () =
  let (), _, _ =
    with_server (fun addr server ->
        let c = connect addr in
        Client.ping c;
        Server.stop server;
        (* The goodbye surfaces on a later interaction: as a push read
           before a reply, or implied by the drain's EOF (the push is
           flushed before the close, so Disconnected means it was
           delivered or the stream ended — either way the client
           learned). A ping racing the stop signal may still get a
           plain pong; retry until the drain is visible. *)
        let rec wait n =
          if n = 0 then false
          else
            match Client.ping c with
            | () ->
                if
                  List.exists
                    (function Message.Goodbye _ -> true | _ -> false)
                    (Client.notices c)
                then true
                else begin
                  Thread.delay 0.05;
                  wait (n - 1)
                end
            | exception Client.Disconnected _ -> true
        in
        Alcotest.(check bool) "told or disconnected" true (wait 40);
        (try Client.close c with _ -> ()))
  in
  ()

(* Live reads under the lock protocol ------------------------------------------- *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A read outside any transaction or snapshot would be a dirty read of
   the live database (no locks, no version): the server refuses it and
   says how to do it properly. *)
let test_live_read_refused_without_tx_or_snapshot () =
  let (), _, _ =
    with_server (fun addr _server ->
        let c = connect addr in
        let root =
          match Client.eval c "(make Assembly)" with
          | Message.Obj oid -> oid
          | v -> Alcotest.failf "unexpected eval result %a" Message.pp_v v
        in
        (match Client.components_of c root with
        | oids ->
            Alcotest.failf "dirty read served %d components" (List.length oids)
        | exception Client.Error (Message.Bad_request, msg) ->
            Alcotest.(check bool) "refusal hints at begin-snapshot" true
              (contains_substring msg "begin-snapshot"));
        (match Client.read_attr c root "Name" with
        | _ -> Alcotest.fail "dirty read-attr served"
        | exception Client.Error (Message.Bad_request, _) -> ());
        (* The same reads are served inside a transaction (locked)... *)
        ignore (Client.begin_tx c : int);
        Alcotest.(check bool) "tx read served" true
          (Client.components_of c root = []);
        Client.commit c;
        (* ...and under a snapshot (versioned). *)
        ignore (Client.begin_snapshot c : int);
        Alcotest.(check bool) "snapshot read served" true
          (Client.components_of c root = []);
        Client.end_snapshot c;
        Client.close c)
  in
  ()

(* The regression the dirty-read fix exists for: a transactional live
   read against a composite mid-update must park until the writer
   commits, never observe the uncommitted write. *)
let test_live_read_blocks_on_uncommitted_write () =
  let (), _, _ =
    with_server (fun addr _server ->
        let c1 = connect addr in
        let c2 = connect addr in
        let root =
          match Client.eval c1 "(make Assembly)" with
          | Message.Obj oid -> oid
          | v -> Alcotest.failf "unexpected eval result %a" Message.pp_v v
        in
        let part =
          Client.make c1 ~cls:"Part" ~parents:[ (root, "Parts") ]
            ~attrs:[ ("Name", Value.Str "committed") ] ()
        in
        ignore (Client.begin_tx c1 : int);
        Client.lock_composite c1 ~root Message.Update;
        ignore
          (Client.make c1 ~cls:"Part" ~parents:[ (root, "Parts") ]
             ~attrs:[ ("Name", Value.Str "uncommitted") ] ()
            : Oid.t);
        ignore (Client.begin_tx c2 : int);
        let read_done = Atomic.make false in
        let got = ref Value.Null in
        let reader =
          Thread.create
            (fun () ->
              (* IS on class Part conflicts with the composite writer's
                 IXO: this parks until c1 commits. *)
              got := Client.read_attr c2 part "Name";
              Atomic.set read_done true)
            ()
        in
        Thread.delay 0.3;
        Alcotest.(check bool) "read parked behind the composite update" false
          (Atomic.get read_done);
        Client.commit c1;
        Thread.join reader;
        Alcotest.(check bool) "read served after the commit" true
          (!got = Value.Str "committed");
        Client.commit c2;
        let snap = Client.stats c2 in
        Alcotest.(check bool) "the wait was a park" true
          (Option.value (Obs.find_counter snap "server.parks_total") ~default:0
          >= 1);
        Client.close c1;
        Client.close c2)
  in
  ()

(* Snapshot pins of a kill-9ed client -------------------------------------------- *)

(* A client that vanishes mid-snapshot (process killed: the socket just
   closes, no end-snapshot, no bye) must not leak its version-store
   pin — the reactor's session teardown ends the snapshot, the store
   unpins and empties. *)
let test_client_kill_releases_snapshot_pins () =
  let gauge snap name = Option.value (Obs.find_gauge snap name) ~default:(-1) in
  let (), _, _ =
    with_server (fun addr _server ->
        let c = connect addr in
        let root =
          match Client.eval c "(make Assembly)" with
          | Message.Obj oid -> oid
          | v -> Alcotest.failf "unexpected eval result %a" Message.pp_v v
        in
        let doomed = Raw.connect addr in
        Raw.send doomed
          [ Message.Hello { version = Message.version; client = "doomed" } ];
        (match Raw.recv doomed with
        | Message.Reply (Message.Welcome _) -> ()
        | _ -> Alcotest.fail "expected welcome");
        Raw.send doomed [ Message.Begin_snapshot ];
        (match Raw.recv doomed with
        | Message.Reply (Message.Result (Message.Num _)) -> ()
        | _ -> Alcotest.fail "expected snapshot clock");
        Alcotest.(check int) "snapshot pinned" 1
          (gauge (Client.stats c) "mvcc.open_snapshots");
        (* Commit writes the pinned snapshot watches: version chains
           accumulate behind its watermark. *)
        ignore (Client.begin_tx c : int);
        Client.lock_composite c ~root Message.Update;
        ignore
          (Client.make c ~cls:"Part" ~parents:[ (root, "Parts") ]
             ~attrs:[ ("Name", Value.Str "pinned") ] ()
            : Oid.t);
        Client.commit c;
        Alcotest.(check bool) "chains held for the snapshot" true
          (gauge (Client.stats c) "mvcc.chains" > 0);
        (* kill -9 the client: raw close, mid-snapshot. *)
        Raw.close doomed;
        let rec wait n =
          if gauge (Client.stats c) "mvcc.open_snapshots" = 0 then true
          else if n = 0 then false
          else begin
            Thread.delay 0.05;
            wait (n - 1)
          end
        in
        Alcotest.(check bool) "teardown ended the snapshot" true (wait 100);
        Alcotest.(check int) "store emptied once unpinned" 0
          (gauge (Client.stats c) "mvcc.chains");
        Client.close c)
  in
  ()

(* Eager group-commit seal -------------------------------------------------------- *)

(* A committer with every other open transaction parked behind its own
   locks must seal eagerly: the parked ones cannot reach their commit
   point until this commit releases (strict 2PL), so waiting out the
   batching window would be pure latency.  The old heuristic counted
   all open transactions and kept the solo committer waiting. *)
(* A check-out over the wire — begin, composite S lock, read, commit —
   changes nothing, so even under group commit its commit is lock
   release: no log bytes, no sync, no batch, no clock tick. *)
let test_read_only_commit_skips_log () =
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let db = Eval.database env in
  let wal = Wal.create () in
  Wal.attach wal db;
  let config =
    { Server.default_config with group_commit_window = 0.002 }
  in
  let counter snap name = Option.value (Obs.find_counter snap name) ~default:0 in
  let (), _, _ =
    with_server ~config ~wal ~env (fun addr _server ->
        let c = connect addr in
        ignore (Client.begin_tx c : int);
        let root = Client.make c ~cls:"Assembly" () in
        let part =
          Client.make c ~cls:"Part" ~parents:[ (root, "Parts") ]
            ~attrs:[ ("Name", Value.Str "p") ] ()
        in
        Client.commit c;
        let before = Client.stats c in
        let size = Wal.size wal and clock = snd (Database.counters db) in
        for _ = 1 to 5 do
          ignore (Client.begin_tx c : int);
          Client.lock_composite c ~root Message.Read;
          Alcotest.(check bool) "check-out reads the part" true
            (Client.components_of c root = [ part ]);
          Client.commit c
        done;
        let after = Client.stats c in
        Alcotest.(check int) "no log bytes" size (Wal.size wal);
        Alcotest.(check int) "no sync" (counter before "wal.syncs")
          (counter after "wal.syncs");
        Alcotest.(check int) "no batch"
          (counter before "wal.group_commit.batches")
          (counter after "wal.group_commit.batches");
        Alcotest.(check int) "clock unchanged" clock (snd (Database.counters db));
        (* The S locks went with the commit: a writer gets in at once. *)
        ignore (Client.begin_tx c : int);
        Client.lock_composite c ~root Message.Update;
        Client.commit c;
        Client.close c)
  in
  ()

(* A log write that fails (disk full, or an fsync that fails after a
   complete write) fails its commit with an [Io_error] reply naming the
   failure, and the log stays down: the next commit is refused too (as
   a crashed log), the server keeps serving, and only the acknowledged
   commit recovers.  With any window, the default [0.] included, the
   one acknowledged commit went through the group committer. *)
let io_error_refuses_commits ?(fault = `Io_error_after 0)
    ?(names = "log I/O error: No space left on device (write)") ~window () =
  let dir = temp_dir () in
  let wal_path = Filename.concat dir "io.wal" in
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let wal = Wal.create () in
  Wal.attach wal (Eval.database env);
  Wal.set_backing wal (Some wal_path);
  Persist.save (Eval.database env);
  let config =
    { Server.default_config with group_commit_window = window }
  in
  let make_part c name =
    ignore (Client.begin_tx c : int);
    let oid = Client.make c ~cls:"Part" ~attrs:[ ("Name", Value.Str name) ] () in
    Client.commit c;
    oid
  in
  let refused c name ~names =
    match make_part c name with
    | _ -> Alcotest.failf "commit of %s acknowledged over a failed log" name
    | exception Client.Error (Message.Io_error, msg) ->
        Alcotest.(check bool)
          (Printf.sprintf "refusal %S names %S" msg names)
          true
          (contains_substring msg names
          && not (contains_substring msg "Unix_error"))
  in
  let solo_txs () =
    Option.value
      (Obs.find_counter (Obs.snapshot ()) "wal.group_commit.solo_txs")
      ~default:0
  in
  let (), _, _ =
    with_server ~config ~wal ~env (fun addr _server ->
        let c = connect addr in
        let solo_before = solo_txs () in
        let acked = make_part c "acked" in
        Alcotest.(check int) "acknowledged commit sealed by the committer" 1
          (solo_txs () - solo_before);
        Wal.inject_fault wal (Some fault);
        refused c "lost" ~names;
        (* The disk has room again; the log must stay down regardless. *)
        Wal.inject_fault wal None;
        refused c "after" ~names:"log crashed";
        Client.ping c;
        Client.close c;
        let recovered, rstats = Recovery.replay (Wal.load_file wal_path) in
        Alcotest.(check int) "only the acknowledged commit" 1
          rstats.Recovery.committed_txs;
        Alcotest.(check bool) "acknowledged part recovered" true
          (Database.exists recovered acked);
        Alcotest.(check int) "no other part" 1
          (List.length (Database.instances_of recovered ~subclasses:false "Part")))
  in
  ()

let test_solo_committer_seals_eagerly () =
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let wal = Wal.create () in
  Wal.attach wal (Eval.database env);
  let window = 2.0 in
  let config =
    { Server.default_config with group_commit_window = window }
  in
  let (), _, _ =
    with_server ~config ~wal ~env (fun addr _server ->
        let c1 = connect addr in
        let root =
          match Client.eval c1 "(make Assembly)" with
          | Message.Obj oid -> oid
          | v -> Alcotest.failf "unexpected eval result %a" Message.pp_v v
        in
        ignore (Client.begin_tx c1 : int);
        Client.lock_composite c1 ~root Message.Update;
        ignore
          (Client.make c1 ~cls:"Part" ~parents:[ (root, "Parts") ]
             ~attrs:[ ("Name", Value.Str "solo") ] ()
            : Oid.t);
        (* Two more transactions, both parked on c1's composite lock:
           open but unable to commit. *)
        let parked_worker () =
          let c = connect addr in
          ignore (Client.begin_tx c : int);
          Client.lock_composite c ~root Message.Read;
          Client.abort c;
          Client.close c
        in
        let parked =
          [ Thread.create parked_worker (); Thread.create parked_worker () ]
        in
        Thread.delay 0.3;
        let t0 = Unix.gettimeofday () in
        Client.commit c1;
        let elapsed = Unix.gettimeofday () -. t0 in
        List.iter Thread.join parked;
        Alcotest.(check bool)
          (Printf.sprintf "solo commit sealed eagerly (%.3fs vs %.1fs window)"
             elapsed window)
          true
          (elapsed < window /. 2.);
        Client.close c1)
  in
  ()

let () =
  (* ORION_LOCKDEP=1: watch this suite's real lock traffic; install's
     exit hook fails the run on any discipline violation. *)
  Orion_analysis.Lockdep.install_from_env ();
  Alcotest.run "orion_server"
    [
      ( "sessions",
        [
          Alcotest.test_case "handshake and basics" `Quick test_handshake_and_basics;
          Alcotest.test_case "commit visible, abort undone" `Quick
            test_tx_commit_visible_and_abort_undone;
          Alcotest.test_case "wrong version rejected" `Quick
            test_wrong_version_rejected;
          Alcotest.test_case "hello required first" `Quick test_hello_required_first;
          Alcotest.test_case "graceful shutdown" `Quick
            test_graceful_shutdown_notifies;
          Alcotest.test_case "stats over the wire" `Quick test_stats_over_the_wire;
        ] );
      ( "admission",
        [
          Alcotest.test_case "session bound" `Quick test_admission_control;
          Alcotest.test_case "pipelined burst backpressure" `Quick
            test_pipelined_burst_backpressure;
        ] );
      ( "locking",
        [
          Alcotest.test_case "park and wakeup" `Quick test_park_and_wakeup;
          Alcotest.test_case "deadlock victim on the wire" `Quick
            test_deadlock_victim_on_the_wire;
          Alcotest.test_case "lock timeout" `Quick test_lock_timeout;
          Alcotest.test_case "holder deletes contested target" `Quick
            test_holder_deletes_contested_target;
        ] );
      ( "reads",
        [
          Alcotest.test_case "live read refused without tx or snapshot" `Quick
            test_live_read_refused_without_tx_or_snapshot;
          Alcotest.test_case "live read blocks on uncommitted write" `Quick
            test_live_read_blocks_on_uncommitted_write;
          Alcotest.test_case "client kill releases snapshot pins" `Quick
            test_client_kill_releases_snapshot_pins;
          Alcotest.test_case "solo committer seals eagerly" `Quick
            test_solo_committer_seals_eagerly;
          Alcotest.test_case "read-only commit skips the log" `Quick
            test_read_only_commit_skips_log;
          Alcotest.test_case "io error refuses commits (window 0)" `Quick
            (io_error_refuses_commits ~window:0.);
          Alcotest.test_case "io error refuses commits (group)" `Quick
            (io_error_refuses_commits ~window:0.002);
          Alcotest.test_case "fsync error refuses commits" `Quick
            (io_error_refuses_commits ~fault:(`Fsync_error_after 0)
               ~names:"(fsync)" ~window:0.);
        ] );
      ( "workload",
        [
          Alcotest.test_case "32 clients serializable" `Slow
            test_concurrent_workload_serializable;
        ] );
      ( "commit",
        [
          Alcotest.test_case "group commit batches on the wire" `Quick
            test_group_commit_batches_on_the_wire;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "kill -9 then recover" `Quick test_kill_then_recover;
          Alcotest.test_case "kill -9 under group commit" `Quick
            test_kill_recover_group_commit;
        ] );
    ]
