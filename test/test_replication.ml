(* End-to-end tests of WAL shipping: a primary server streams its log
   to an in-process replica, which applies it live, refuses writes over
   the wire, and is promoted to a writable primary after the original
   is killed — the kill-9 -> promote -> writes-land failover drill.

   Like test_server, servers run in threads over Unix-domain sockets in
   a temp directory; the clients here stand in for separate processes. *)

open Orion_core
module Eval = Orion_dsl.Eval
module Server = Orion_server.Server
module Tx_service = Orion_server.Tx_service
module Tailer = Orion_replication.Tailer
module Replica = Orion_replication.Replica
module Client = Orion_client
module Message = Orion_protocol.Message
module Wal = Orion_wal.Wal
module Recovery = Orion_wal.Recovery
module Store_check = Orion_analysis.Store_check
module Obs = Orion_obs.Metrics

let temp_dir () =
  let dir = Filename.temp_file "orion_repl_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let schema_forms =
  {|
(make-class 'Part :attributes ((Name :domain String)))
(make-class 'Assembly :attributes (
  (Parts :domain (set-of Part) :composite true :exclusive true :dependent true)))
|}

let connect addr = Client.connect ~client_name:"test" addr

(* Spin until [probe ()] or give up: replication is asynchronous by
   design (ship on the primary's tick, apply on the replica's), so
   assertions about the replica's state must wait for the stream. *)
let eventually ?(timeout = 10.) probe =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if probe () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

type primary = {
  p_server : Server.t;
  p_thread : Thread.t;
  p_wal : Wal.t;
  p_env : Eval.env;
  p_addr : Orion_protocol.Addr.t;
  p_db_path : string;
}

(* A primary exactly as `orion serve DB --repl` builds one: log attached
   with offsets preserved across checkpoints, one sealed checkpoint on
   disk (replicas bootstrap from it), a tailer on the log.  [restart]
   resumes the store and log a previous primary left in [dir], as a
   `--repl` restart does. *)
let start_primary ?(restart = false) dir =
  let db_path = Filename.concat dir "p.odb" in
  let sock = Filename.concat dir "p.sock" in
  let env, wal =
    if restart then
      let wal = Wal.load_file (db_path ^ ".wal") in
      let snapshot = Orion_storage.Store.load_file db_path in
      let db, _ = Recovery.replay ~snapshot wal in
      (Eval.create_env ~db (), wal)
    else begin
      let env = Eval.create_env () in
      ignore (Eval.eval_program env schema_forms : Eval.v list);
      (env, Wal.create ())
    end
  in
  Wal.attach ~snapshot_path:db_path ~truncate_on_checkpoint:false wal
    (Eval.database env);
  Wal.set_backing wal (Some (db_path ^ ".wal"));
  Wal.sync wal;
  Orion_core.Persist.save (Eval.database env);
  let server =
    Server.create ~wal
      ~repl:(Tx_service.Primary (Tailer.create wal))
      env (Server.Unix_path sock)
  in
  let thread = Thread.create Server.run server in
  {
    p_server = server;
    p_thread = thread;
    p_wal = wal;
    p_env = env;
    p_addr = Orion_protocol.Addr.Unix_path sock;
    p_db_path = db_path;
  }

type replica_node = {
  r_server : Server.t;
  r_thread : Thread.t;
  r_replica : Replica.t;
  r_db : Database.t;
  r_addr : Orion_protocol.Addr.t;
  r_db_path : string;
}

(* A replica exactly as `orion serve DB --replica-of ADDR` builds one:
   bootstrap synchronously, then serve through a Replica_of server,
   whose reactor streams and applies the rest. *)
let start_replica dir primary_addr =
  let db_path = Filename.concat dir "r.odb" in
  let sock = Filename.concat dir "r.sock" in
  let wal = Wal.create () in
  Wal.set_backing wal (Some (db_path ^ ".wal"));
  let replica = Replica.create ~primary:primary_addr ~wal ~db_path () in
  let db = Replica.bootstrap replica in
  let env = Eval.create_env ~db () in
  let server =
    Server.create
      ~repl:(Tx_service.Replica_of { replica; promote_gate = None })
      env (Server.Unix_path sock)
  in
  let thread = Thread.create Server.run server in
  {
    r_server = server;
    r_thread = thread;
    r_replica = replica;
    r_db = db;
    r_addr = Orion_protocol.Addr.Unix_path sock;
    r_db_path = db_path;
  }

let commit_part client name =
  ignore (Client.begin_tx client : int);
  ignore (Client.eval client (Printf.sprintf "(make Part :Name %S)" name));
  Client.commit client

(* Catch-up --------------------------------------------------------------------- *)

let test_catch_up () =
  let dir = temp_dir () in
  let p = start_primary dir in
  Fun.protect
    ~finally:(fun () ->
      Server.stop p.p_server;
      Thread.join p.p_thread)
    (fun () ->
      let r = start_replica dir p.p_addr in
      (* The replica bootstraps to the primary's checkpoint... *)
      Alcotest.(check int) "bootstrap sees the schema's classes" 0
        (Database.count r.r_db);
      (* ...then follows committed writes without further checkpoints. *)
      let c = connect p.p_addr in
      commit_part c "alpha";
      commit_part c "beta";
      commit_part c "gamma";
      Alcotest.(check bool) "replica applies shipped commits" true
        (eventually (fun () -> Database.count r.r_db = 3));
      Alcotest.(check bool) "replica log mirrors the primary's bytes" true
        (eventually (fun () ->
             let pc = Wal.contents p.p_wal in
             let rc = Wal.contents (Replica.wal r.r_replica) in
             Bytes.length rc <= Bytes.length pc
             && Bytes.sub pc 0 (Bytes.length rc) = rc));
      Client.close c;
      (* Graceful replica shutdown: mirror image + log both fsck-clean. *)
      Server.stop r.r_server;
      Thread.join r.r_thread;
      Replica.stop r.r_replica;
      Replica.save r.r_replica;
      let report =
        Store_check.check_file ~wal:(r.r_db_path ^ ".wal") r.r_db_path
      in
      Alcotest.(check bool) "replica store+log fsck-clean" false
        (Store_check.failed ~strict:false report))

(* Read-only serving ------------------------------------------------------------ *)

let test_replica_refuses_writes () =
  let dir = temp_dir () in
  let p = start_primary dir in
  Fun.protect
    ~finally:(fun () ->
      Server.stop p.p_server;
      Thread.join p.p_thread)
    (fun () ->
      let r = start_replica dir p.p_addr in
      Fun.protect
        ~finally:(fun () ->
          Server.stop r.r_server;
          Thread.join r.r_thread;
          Replica.stop r.r_replica)
        (fun () ->
          let c = connect r.r_addr in
          let refused f =
            match f () with
            | exception Client.Error (Message.Read_only, _) -> true
            | _ -> false
          in
          Alcotest.(check bool) "begin refused" true
            (refused (fun () -> ignore (Client.begin_tx c : int)));
          Alcotest.(check bool) "make refused" true
            (refused (fun () ->
                 ignore (Client.make c ~cls:"Part" () : Oid.t)));
          (* Reads keep working on the same session. *)
          ignore (Client.eval c "(count-objects)" : Message.v);
          Client.close c))

(* Failover --------------------------------------------------------------------- *)

let counter name =
  Option.value (Obs.find_counter (Obs.snapshot ()) name) ~default:0

let solo_txs () = counter "wal.group_commit.solo_txs"

let test_promote_after_kill () =
  let dir = temp_dir () in
  let p = start_primary dir in
  let r = start_replica dir p.p_addr in
  let r_running = ref true in
  Fun.protect
    ~finally:(fun () ->
      if !r_running then begin
        Server.stop r.r_server;
        Thread.join r.r_thread
      end;
      Replica.stop r.r_replica)
    (fun () ->
      let c = connect p.p_addr in
      commit_part c "pre-crash-1";
      commit_part c "pre-crash-2";
      (* Every acknowledged commit must reach the replica before the
         crash for the zero-loss assertion below to be meaningful. *)
      Alcotest.(check bool) "replica caught up" true
        (eventually (fun () -> Database.count r.r_db = 2));
      (* kill -9 the primary: no goodbye, no checkpoint, no flush. *)
      Server.kill p.p_server;
      Thread.join p.p_thread;
      (try Client.close c with _ -> ());
      Alcotest.(check bool) "still a replica" true
        (Server.role r.r_server = `Replica);
      (* Promote over the wire, exactly like `orion promote ADDR`. *)
      let rc = connect r.r_addr in
      Client.promote rc;
      Alcotest.(check bool) "now a primary" true
        (Server.role r.r_server = `Primary);
      (* Zero sealed commits lost, and the node now accepts writes. *)
      Alcotest.(check int) "no sealed commits lost" 2
        (Database.count r.r_db);
      (* The promoted node commits through a group committer, like any
         primary, not inline on its reactor. *)
      let solo_before = solo_txs () and syncs_before = counter "wal.syncs" in
      commit_part rc "post-failover";
      Alcotest.(check int) "writes land after promotion" 3
        (Database.count r.r_db);
      Alcotest.(check int) "post-failover commit sealed by the committer" 1
        (solo_txs () - solo_before);
      (* The node's stats report its own log's live counters, not
         zeros registered over them. *)
      Alcotest.(check bool) "post-failover commit synced the log" true
        (counter "wal.syncs" > syncs_before && counter "wal.syncs" > 0);
      (* Promoting twice is refused with a typed replication error. *)
      Alcotest.(check bool) "second promote refused" true
        (match Client.promote rc with
        | exception Client.Error (Message.Repl_error, _) -> true
        | _ -> false);
      Client.close rc;
      (* kill -9 the promoted node too: its acknowledged commit must
         replay from its own log. *)
      Server.kill r.r_server;
      Thread.join r.r_thread;
      r_running := false;
      let recovered, _ =
        Recovery.replay (Wal.load_file (r.r_db_path ^ ".wal"))
      in
      let names =
        List.filter_map
          (fun oid ->
            match Database.find recovered oid with
            | Some inst -> (
                match Instance.attr inst "Name" with
                | Some (Value.Str name) -> Some name
                | _ -> None)
            | None -> None)
          (Database.instances_of recovered ~subclasses:false "Part")
      in
      Alcotest.(check (list string)) "post-failover commit replays"
        [ "post-failover"; "pre-crash-1"; "pre-crash-2" ]
        (List.sort compare names))

(* Reconnect --------------------------------------------------------------------- *)

let make_part client name =
  ignore (Client.begin_tx client : int);
  let oid = Client.make client ~cls:"Part" ~attrs:[ ("Name", Value.Str name) ] () in
  Client.commit client;
  oid

(* The replica's reactor dials the primary without blocking: with
   nothing listening at the primary's address it keeps answering its
   own clients, and once a primary is back on the same store and socket
   the stream resumes where the replica's log ends. *)
let test_reconnect () =
  let dir = temp_dir () in
  let p = start_primary dir in
  let r = start_replica dir p.p_addr in
  let restarted = ref None in
  Fun.protect
    ~finally:(fun () ->
      Server.stop r.r_server;
      Thread.join r.r_thread;
      Replica.stop r.r_replica;
      match !restarted with
      | Some p' ->
          Server.stop p'.p_server;
          Thread.join p'.p_thread
      | None -> ())
    (fun () ->
      let c = connect p.p_addr in
      let before = make_part c "before" in
      Client.close c;
      Alcotest.(check bool) "replica applied the first write" true
        (eventually (fun () -> Database.count r.r_db = 1));
      Server.stop p.p_server;
      Thread.join p.p_thread;
      Alcotest.(check bool) "nothing listens at the primary's address" true
        (match connect p.p_addr with
        | exception (Unix.Unix_error _ | Client.Disconnected _) -> true
        | c ->
            Client.close c;
            false);
      (* Several rounds, so redial attempts fall between them. *)
      let rc = connect r.r_addr in
      for round = 1 to 5 do
        let t0 = Unix.gettimeofday () in
        Client.ping rc;
        ignore (Client.begin_snapshot rc : int);
        let name = Client.read_attr rc before "Name" in
        Client.end_snapshot rc;
        let elapsed = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "snapshot read while the primary is away" true
          (name = Value.Str "before");
        if elapsed > 1. then
          Alcotest.failf "round %d: ping and snapshot read took %.2fs" round
            elapsed;
        Thread.delay 0.3
      done;
      Client.close rc;
      let p' = start_primary ~restart:true dir in
      restarted := Some p';
      let c = connect p'.p_addr in
      ignore (make_part c "after" : Oid.t);
      Client.close c;
      Alcotest.(check bool) "replica applies the restarted primary's write" true
        (eventually (fun () -> Database.count r.r_db = 2));
      Alcotest.(check bool) "the stream redialled" true
        (counter "repl.reconnects" >= 1))

(* Tailer edges ----------------------------------------------------------------- *)

let test_subscribe_bounds () =
  let wal = Wal.create () in
  let tailer = Tailer.create wal in
  Alcotest.(check bool) "negative lsn refused" true
    (match Tailer.subscribe tailer ~from_lsn:(-1) with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool) "lsn past durable refused" true
    (match Tailer.subscribe tailer ~from_lsn:(Wal.durable_lsn wal + 1) with
    | Error _ -> true
    | Ok _ -> false);
  match Tailer.subscribe tailer ~from_lsn:0 with
  | Error e -> Alcotest.failf "subscribe from 0: %s" e
  | Ok (id, lsn) ->
      Alcotest.(check int) "durable lsn echoed" (Wal.durable_lsn wal) lsn;
      Alcotest.(check int) "one replica" 1 (Tailer.replica_count tailer);
      Tailer.unsubscribe tailer id;
      Alcotest.(check int) "unsubscribed" 0 (Tailer.replica_count tailer)

(* A reconnecting replica must reclaim its freed subscription slot so
   its labeled lag gauges re-register (the metrics registry replaces on
   name collision) instead of leaving a stuck-at-0 cell behind and
   minting a fresh label per reconnect. *)
let test_tailer_gauge_reset_on_reconnect () =
  let db = Database.create () in
  let wal = Wal.create () in
  Wal.attach wal db;
  Persist.save db;
  Wal.sync wal;
  let durable = Wal.durable_lsn wal in
  Alcotest.(check bool) "log non-empty" true (durable > 0);
  let tailer = Tailer.create wal in
  let sub () =
    match Tailer.subscribe tailer ~from_lsn:0 with
    | Ok (id, _) -> id
    | Error e -> Alcotest.failf "subscribe: %s" e
  in
  let gauge () =
    Option.value ~default:(-1)
      (Obs.find_gauge (Obs.snapshot ())
         (Obs.labeled "repl.lag_bytes" ("replica", "0")))
  in
  let id0 = sub () in
  Alcotest.(check int) "first subscription takes slot 0" 0 id0;
  Alcotest.(check int) "live subscription lags the whole log" durable
    (gauge ());
  Tailer.unsubscribe tailer id0;
  Alcotest.(check int) "dead subscription's gauge reads 0" 0 (gauge ());
  let id1 = sub () in
  Alcotest.(check int) "reconnect reclaims the freed slot" 0 id1;
  Alcotest.(check int) "lag gauge re-registered for the live subscription"
    durable (gauge ())

let test_standalone_refuses_subscribe () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let env = Eval.create_env () in
  let server = Server.create env (Server.Unix_path sock) in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread)
    (fun () ->
      let c = connect (Orion_protocol.Addr.Unix_path sock) in
      Alcotest.(check bool) "subscribe refused off a standalone" true
        (match Client.repl_subscribe c ~from_lsn:0 with
        | exception Client.Error (Message.Repl_error, _) -> true
        | _ -> false);
      Alcotest.(check bool) "promote refused off a standalone" true
        (match Client.promote c with
        | exception Client.Error (Message.Repl_error, _) -> true
        | _ -> false);
      Client.close c)

let () =
  (* ORION_LOCKDEP=1: watch this suite's real lock traffic; install's
     exit hook fails the run on any discipline violation. *)
  Orion_analysis.Lockdep.install_from_env ();
  Alcotest.run "orion_replication"
    [
      ( "shipping",
        [
          Alcotest.test_case "bootstrap and catch up" `Quick test_catch_up;
          Alcotest.test_case "read-only replica" `Quick
            test_replica_refuses_writes;
        ] );
      ( "failover",
        [
          Alcotest.test_case "kill-9, promote, write" `Quick
            test_promote_after_kill;
        ] );
      ( "reconnect",
        [
          Alcotest.test_case "serves while the primary is away" `Quick
            test_reconnect;
        ] );
      ( "edges",
        [
          Alcotest.test_case "subscribe bounds" `Quick test_subscribe_bounds;
          Alcotest.test_case "gauge reset on reconnect" `Quick
            test_tailer_gauge_reset_on_reconnect;
          Alcotest.test_case "standalone refuses" `Quick
            test_standalone_refuses_subscribe;
        ] );
    ]
