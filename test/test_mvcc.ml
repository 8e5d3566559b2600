(* Tests for the MVCC-lite subsystem: version-store visibility and GC,
   lock-free snapshot transactions (zero lock-table traffic asserted
   through the obs counters), all-or-none visibility of group-commit
   batches, the crash drill (log dies mid-batch -> recover -> a
   snapshot agrees with replay), and the wire/replica paths: a
   `--snapshot` reader against a live server and against a read-only
   replica answering at its applied clock. *)

open Orion_core
module A = Orion_schema.Attribute
module D = Orion_schema.Domain
module Schema = Orion_schema.Schema
module Version_store = Orion_mvcc.Version_store
module Snapshot_read = Orion_mvcc.Snapshot_read
module Tx = Orion_tx.Tx_manager
module Wal = Orion_wal.Wal
module Wal_record = Orion_wal.Wal_record
module Group_commit = Orion_wal.Group_commit
module Recovery = Orion_wal.Recovery
module Obs = Orion_obs.Metrics
module Eval = Orion_dsl.Eval
module Server = Orion_server.Server
module Tx_service = Orion_server.Tx_service
module Tailer = Orion_replication.Tailer
module Replica = Orion_replication.Replica
module Client = Orion_client
module Message = Orion_protocol.Message

let fixture () =
  let db = Database.create () in
  let define name attrs =
    ignore
      (Schema.define (Database.schema db) ~name ~attributes:attrs ()
        : Orion_schema.Class_def.t)
  in
  define "Leaf" [ A.make ~name:"Tag" ~domain:(D.Primitive D.P_integer) () ];
  define "Node"
    [
      A.make ~name:"Kids" ~domain:(D.Class "Leaf") ~collection:A.Set
        ~refkind:(A.composite ~exclusive:true ~dependent:true ())
        ();
    ];
  db

let capture db oid =
  {
    Version_store.inst = Instance.copy (Database.get db oid);
    rrefs = Database.rrefs db oid;
  }

let tag_of = function
  | `Image img -> Instance.attr img.Version_store.inst "Tag"
  | `Absent -> None
  | `Fallthrough -> Alcotest.fail "unexpected fall-through"

let counter name =
  Option.value (Obs.find_counter (Obs.snapshot ()) name) ~default:0

(* Version store ---------------------------------------------------------------- *)

let test_store_visibility () =
  let db = fixture () in
  let leaf =
    Object_manager.create db ~cls:"Leaf" ~attrs:[ ("Tag", Value.Int 0) ] ()
  in
  let vs = Version_store.create db in
  let c0 = Version_store.current_clock vs in
  Alcotest.(check bool) "unwritten object falls through" true
    (Version_store.read vs ~clock:c0 leaf = `Fallthrough);
  (* A writer about to dirty the object notes its committed state. *)
  Version_store.note_base vs leaf (Some (capture db leaf));
  let s1 = Version_store.open_snap vs ~id:1 in
  Object_manager.write_attr db leaf "Tag" (Value.Int 1);
  Version_store.publish vs ~clock:(c0 + 1) [ (leaf, Some (capture db leaf)) ];
  let s2 = Version_store.open_snap vs ~id:2 in
  Object_manager.write_attr db leaf "Tag" (Value.Int 2);
  Version_store.publish vs ~clock:(c0 + 2) [ (leaf, Some (capture db leaf)) ];
  Alcotest.(check bool) "snapshot 1 reads the base" true
    (tag_of (Version_store.read vs ~clock:s1 leaf) = Some (Value.Int 0));
  Alcotest.(check bool) "snapshot 2 reads version 1" true
    (tag_of (Version_store.read vs ~clock:s2 leaf) = Some (Value.Int 1));
  Alcotest.(check bool) "the sealed clock reads version 2" true
    (tag_of (Version_store.read vs ~clock:(c0 + 2) leaf) = Some (Value.Int 2));
  (* A tombstone hides the object from later clocks, not earlier ones. *)
  Version_store.publish vs ~clock:(c0 + 3) [ (leaf, None) ];
  Alcotest.(check bool) "deleted at the new clock" true
    (Version_store.read vs ~clock:(c0 + 3) leaf = `Absent);
  Alcotest.(check bool) "snapshot 2 unaffected by the delete" true
    (tag_of (Version_store.read vs ~clock:s2 leaf) = Some (Value.Int 1));
  (* Closing every snapshot lets the watermark catch up and the chain
     collapse to the live state, i.e. disappear. *)
  Version_store.close_snap vs ~id:1;
  Version_store.close_snap vs ~id:2;
  Alcotest.(check int) "chains dropped once nobody watches" 0
    (Version_store.chain_count vs)

let test_store_pins_survive_gc () =
  let db = fixture () in
  let leaf =
    Object_manager.create db ~cls:"Leaf" ~attrs:[ ("Tag", Value.Int 0) ] ()
  in
  let vs = Version_store.create db in
  let c0 = Version_store.current_clock vs in
  (* A dirty writer pins its chain: publish-time GC must not drop it
     even with no snapshot open. *)
  Version_store.note_base ~tx:7 vs leaf (Some (capture db leaf));
  Object_manager.write_attr db leaf "Tag" (Value.Int 1);
  Version_store.publish vs ~clock:(c0 + 1) [ (leaf, Some (capture db leaf)) ];
  Alcotest.(check int) "pinned chain survives publish-time GC" 1
    (Version_store.chain_count vs);
  Version_store.settle vs ~tx:7;
  Alcotest.(check int) "settle releases the pin and the chain" 0
    (Version_store.chain_count vs);
  Version_store.settle vs ~tx:7 (* idempotent *)

(* Snapshot transactions -------------------------------------------------------- *)

let test_snapshot_isolation () =
  let db = fixture () in
  let manager = Tx.create db in
  let tx1 = Tx.begin_tx manager in
  let leaf =
    Tx.create_object manager tx1 ~cls:"Leaf" ~attrs:[ ("Tag", Value.Int 1) ] ()
  in
  ignore (Tx.commit manager tx1 : int list);
  let snap = Tx.begin_snapshot manager in
  let view = Tx.snapshot_view snap in
  (* A concurrent writer commits an update and a brand-new object. *)
  let tx2 = Tx.begin_tx manager in
  Tx.write_attr manager tx2 leaf "Tag" (Value.Int 2);
  let node = Tx.create_object manager tx2 ~cls:"Node" () in
  ignore (Tx.commit manager tx2 : int list);
  Alcotest.(check bool) "snapshot reads the begin-clock value" true
    (Snapshot_read.attr view leaf "Tag" = Some (Value.Int 1));
  Alcotest.(check bool) "objects created after the begin clock are absent"
    false
    (Snapshot_read.exists view node);
  Alcotest.(check bool) "the live database moved on" true
    (Value.equal (Object_manager.read_attr db leaf "Tag") (Value.Int 2));
  Tx.end_snapshot manager snap;
  (* A fresh snapshot begins past the writer's seal. *)
  let snap2 = Tx.begin_snapshot manager in
  let view2 = Tx.snapshot_view snap2 in
  Alcotest.(check bool) "fresh snapshot sees the commit" true
    (Snapshot_read.attr view2 leaf "Tag" = Some (Value.Int 2)
    && Snapshot_read.exists view2 node);
  Alcotest.(check bool) "clocks advance monotonically" true
    (Tx.snapshot_clock snap2 > Tx.snapshot_clock snap);
  Tx.end_snapshot manager snap2;
  Tx.end_snapshot manager snap2 (* idempotent *)

let test_snapshot_traversals () =
  let db = fixture () in
  let manager = Tx.create db in
  let tx = Tx.begin_tx manager in
  let node = Tx.create_object manager tx ~cls:"Node" () in
  let l1 =
    Tx.create_object manager tx ~cls:"Leaf" ~parents:[ (node, "Kids") ] ()
  in
  ignore (Tx.commit manager tx : int list);
  let snap = Tx.begin_snapshot manager in
  let view = Tx.snapshot_view snap in
  (* Another leaf joins the composite after the snapshot began. *)
  let tx2 = Tx.begin_tx manager in
  let l2 =
    Tx.create_object manager tx2 ~cls:"Leaf" ~parents:[ (node, "Kids") ] ()
  in
  ignore (Tx.commit manager tx2 : int list);
  Alcotest.(check (list int))
    "components-of at the begin clock"
    [ Oid.to_int l1 ]
    (List.map Oid.to_int (Snapshot_read.components_of view node));
  Alcotest.(check (list int))
    "ancestors-of at the begin clock"
    [ Oid.to_int node ]
    (List.map Oid.to_int (Snapshot_read.ancestors_of view l1));
  Tx.end_snapshot manager snap;
  let snap2 = Tx.begin_snapshot manager in
  let view2 = Tx.snapshot_view snap2 in
  Alcotest.(check bool) "fresh snapshot sees both components" true
    (let comps = Snapshot_read.components_of view2 node in
     List.mem l1 comps && List.mem l2 comps && List.length comps = 2);
  Tx.end_snapshot manager snap2;
  Alcotest.(check bool) "live traversal agrees" true
    (List.length (Traversal.components_of db node) = 2)

(* The acceptance bar: a snapshot resolves attribute reads and both
   traversals while a writer holds locks mid-transaction, without a
   single lock-table acquisition or block of its own. *)
let test_snapshot_takes_no_locks () =
  let db = fixture () in
  let manager = Tx.create db in
  let tx = Tx.begin_tx manager in
  let node = Tx.create_object manager tx ~cls:"Node" () in
  let leaf =
    Tx.create_object manager tx ~cls:"Leaf" ~parents:[ (node, "Kids") ]
      ~attrs:[ ("Tag", Value.Int 1) ] ()
  in
  ignore (Tx.commit manager tx : int list);
  (* The concurrent writer: locked and dirty, commit still in flight. *)
  let writer = Tx.begin_tx manager in
  ignore
    (Tx.lock_composite manager writer ~root:node Orion_locking.Protocol.Update
      : [ `Granted | `Blocked ]);
  Tx.write_attr manager writer leaf "Tag" (Value.Int 99);
  let acq0 = counter "lock.acquisitions" and blk0 = counter "lock.blocks" in
  let snap = Tx.begin_snapshot manager in
  let view = Tx.snapshot_view snap in
  Alcotest.(check bool) "snapshot reads the pre-write value under the lock"
    true
    (Snapshot_read.attr view leaf "Tag" = Some (Value.Int 1));
  ignore (Snapshot_read.components_of view node : Oid.t list);
  ignore (Snapshot_read.ancestors_of view leaf : Oid.t list);
  Tx.end_snapshot manager snap;
  Alcotest.(check int) "zero lock acquisitions by the snapshot" acq0
    (counter "lock.acquisitions");
  Alcotest.(check int) "zero lock blocks by the snapshot" blk0
    (counter "lock.blocks");
  (* The writer was never blocked either: its commit lands. *)
  ignore (Tx.commit manager writer : int list);
  let snap2 = Tx.begin_snapshot manager in
  Alcotest.(check bool) "post-commit snapshot sees the write" true
    (Snapshot_read.attr (Tx.snapshot_view snap2) leaf "Tag"
    = Some (Value.Int 99));
  Tx.end_snapshot manager snap2

(* Group commit ----------------------------------------------------------------- *)

(* A database wired to an in-memory log; commits below go through a
   group committer. *)
let boot_wal () =
  let db = fixture () in
  let wal = Wal.create () in
  Wal.attach wal db;
  Persist.save db;
  let manager = Tx.create ~wal db in
  (db, wal, manager)

(* A committer that posts each sealed batch into an inbox, as the
   server's does; {!submit_all}'s caller then plays the reactor. *)
let wire_gc ?(window = 0.2) wal =
  let mu = Mutex.create () and inbox = Queue.create () in
  let gc =
    Group_commit.create ~window wal ~post:(fun batch ->
        Mutex.lock mu;
        Queue.push batch inbox;
        Mutex.unlock mu)
  in
  let take () =
    Mutex.lock mu;
    let batch = Queue.take_opt inbox in
    Mutex.unlock mu;
    batch
  in
  (gc, take)

let open_family manager tag =
  let tx = Tx.begin_tx manager in
  let node = Tx.create_object manager tx ~cls:"Node" () in
  ignore
    (Tx.create_object manager tx ~cls:"Leaf" ~parents:[ (node, "Kids") ]
       ~attrs:[ ("Tag", Value.Int tag) ] ()
      : Oid.t);
  (tx, node)

(* Submit every transaction, then handle the posted batches the way the
   reactor does: publish a sealed batch at its seal clock, and only then
   report its members.  [sight] runs on this thread between inbox polls
   and right after each publication — wherever a reactor could begin a
   snapshot. *)
let submit_all ?(sight = ignore) (gc, take) manager txs =
  let captured = List.map (fun tx -> (tx, Tx.submit_commit manager tx)) txs in
  List.iter
    (fun (tx, (records, (next_oid, clock, cc))) ->
      Group_commit.submit gc ~tx:(Tx.tx_id tx) ~records ~next_oid ~clock ~cc
        ~eager:false ~member:(Tx.tx_id tx))
    captured;
  let deadline = Unix.gettimeofday () +. 10. in
  let verdicts = ref [] in
  while List.length !verdicts < List.length txs
        && Unix.gettimeofday () < deadline do
    sight ();
    match take () with
    | None -> Thread.delay 0.005
    | Some { Group_commit.members; clock; records; outcome } ->
        let ok = Result.is_ok outcome in
        if ok then begin
          Version_store.publish_records (Tx.version_store manager) ~clock
            records;
          sight ()
        end;
        List.iter (fun tx -> verdicts := (tx, ok) :: !verdicts) members
  done;
  if List.length !verdicts < List.length txs then
    Alcotest.fail "committer never reported";
  !verdicts

(* A group-commit batch becomes visible to snapshots atomically: every
   snapshot begun while it commits sees none or all of it. *)
let test_group_commit_all_or_none () =
  let db, wal, manager = boot_wal () in
  let vs = Tx.version_store manager in
  let opened = List.map (open_family manager) [ 1; 2; 3 ] in
  let txs = List.map fst opened and nodes = List.map snd opened in
  let s0 = Tx.begin_snapshot manager in
  let partial = ref false and sightings = ref 0 and id = ref 1_000_000 in
  let sight () =
    incr id;
    incr sightings;
    let clock = Version_store.open_snap vs ~id:!id in
    let view = Snapshot_read.make ~store:vs ~db ~id:!id ~clock in
    let seen = List.length (List.filter (Snapshot_read.exists view) nodes) in
    if seen <> 0 && seen <> 3 then partial := true;
    Version_store.close_snap vs ~id:!id
  in
  let gc = wire_gc wal in
  let verdicts = submit_all ~sight gc manager txs in
  List.iter
    (fun (tx, ok) ->
      if not ok then Alcotest.failf "tx %d failed to commit" tx)
    verdicts;
  List.iter (fun tx -> ignore (Tx.complete_commit manager tx : int list)) txs;
  Group_commit.shutdown (fst gc);
  Alcotest.(check bool) "snapshots were taken mid-commit" true (!sightings > 1);
  Alcotest.(check bool) "no snapshot ever saw a partial batch" false !partial;
  Alcotest.(check int) "pre-batch snapshot sees none of it" 0
    (List.length
       (List.filter (Snapshot_read.exists (Tx.snapshot_view s0)) nodes));
  Tx.end_snapshot manager s0;
  let s1 = Tx.begin_snapshot manager in
  Alcotest.(check int) "post-batch snapshot sees all of it" 3
    (List.length
       (List.filter (Snapshot_read.exists (Tx.snapshot_view s1)) nodes));
  Tx.end_snapshot manager s1

(* The crash drill: the log dies one record into a batch (the kill -9
   moment between append and seal), the submitters roll back, and a
   snapshot then agrees exactly with what replay of the surviving bytes
   reconstructs — the sealed prefix, none of the torn batch. *)
let test_crash_mid_batch_snapshot_agrees_with_replay () =
  let db, wal, manager = boot_wal () in
  (* One family committed and sealed before the crash. *)
  let pre_tx = Tx.begin_tx manager in
  let pre_node = Tx.create_object manager pre_tx ~cls:"Node" () in
  let pre_leaf =
    Tx.create_object manager pre_tx ~cls:"Leaf" ~parents:[ (pre_node, "Kids") ]
      ~attrs:[ ("Tag", Value.Int 10) ] ()
  in
  ignore (Tx.commit manager pre_tx : int list);
  let baseline = Database.count db in
  let (tx1, n1) = open_family manager 1 and (tx2, n2) = open_family manager 2 in
  Wal.inject_fault wal (Some (`Fail_after 1));
  let gc = wire_gc ~window:0.05 wal in
  let verdicts = submit_all gc manager [ tx1; tx2 ] in
  List.iter
    (fun (tx, ok) ->
      Alcotest.(check bool) (Printf.sprintf "tx %d reported failed" tx) false ok)
    verdicts;
  Group_commit.kill (fst gc);
  ignore (Tx.commit_failed manager tx1 : int list);
  ignore (Tx.commit_failed manager tx2 : int list);
  (* Replay of the surviving bytes: the pre-crash commit, nothing else. *)
  let recovered, rstats = Recovery.replay (Wal.of_bytes (Wal.contents wal)) in
  Alcotest.(check int) "only the sealed tx replays" 1
    rstats.Recovery.committed_txs;
  Alcotest.(check int) "replay reconstructs the baseline" baseline
    (Database.count recovered);
  (* A snapshot over the recovered node agrees with replay, read for
     read. *)
  let rmanager = Tx.create recovered in
  let snap = Tx.begin_snapshot rmanager in
  let view = Tx.snapshot_view snap in
  Alcotest.(check bool) "pre-crash commit visible" true
    (Snapshot_read.exists view pre_node
    && Snapshot_read.attr view pre_leaf "Tag" = Some (Value.Int 10));
  Alcotest.(check bool) "torn batch invisible" false
    (Snapshot_read.exists view n1 || Snapshot_read.exists view n2);
  Tx.end_snapshot rmanager snap;
  (* The crashed node's own snapshots agree too (workspaces rolled
     back, nothing published). *)
  let snap' = Tx.begin_snapshot manager in
  let view' = Tx.snapshot_view snap' in
  Alcotest.(check bool) "crashed node's snapshot agrees with replay" true
    ((not (Snapshot_read.exists view' n1))
    && (not (Snapshot_read.exists view' n2))
    && Snapshot_read.attr view' pre_leaf "Tag" = Some (Value.Int 10));
  Tx.end_snapshot manager snap'

(* Wire ------------------------------------------------------------------------- *)

let temp_dir () =
  let dir = Filename.temp_file "orion_mvcc_test" "" in
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

let test_wire_snapshot_reads () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "orion.sock" in
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let server = Server.create env (Server.Unix_path sock) in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread)
    (fun () ->
      let addr = Orion_protocol.Addr.Unix_path sock in
      let writer = connect addr and reader = connect addr in
      ignore (Client.begin_tx writer : int);
      let a = Client.make writer ~cls:"Assembly" () in
      let p1 =
        Client.make writer ~cls:"Part" ~parents:[ (a, "Parts") ]
          ~attrs:[ ("Name", Value.Str "one") ] ()
      in
      Client.commit writer;
      let clock1 = Client.begin_snapshot reader in
      Alcotest.(check bool) "snapshot attr read" true
        (Client.read_attr reader p1 "Name" = Value.Str "one");
      Alcotest.(check (list int)) "snapshot components-of"
        [ Oid.to_int p1 ]
        (List.map Oid.to_int (Client.components_of reader a));
      Alcotest.(check (list int)) "snapshot ancestors-of"
        [ Oid.to_int a ]
        (List.map Oid.to_int (Client.ancestors_of reader p1));
      (* A transaction cannot open while the snapshot is (and vice
         versa). *)
      Alcotest.(check bool) "begin refused under a snapshot" true
        (match Client.begin_tx reader with
        | exception Client.Error (Message.Bad_request, _) -> true
        | _ -> false);
      (* A concurrent writer commits; the open snapshot holds still. *)
      ignore (Client.begin_tx writer : int);
      let p2 = Client.make writer ~cls:"Part" ~parents:[ (a, "Parts") ] () in
      Client.commit writer;
      Alcotest.(check int) "open snapshot still sees one part" 1
        (List.length (Client.components_of reader a));
      Alcotest.(check bool) "post-snapshot object unreadable" true
        (match Client.read_attr reader p2 "Name" with
        | exception Client.Error (Message.Eval_error, _) -> true
        | _ -> false);
      Client.end_snapshot reader;
      let clock2 = Client.begin_snapshot reader in
      Alcotest.(check bool) "begin clock advanced" true (clock2 > clock1);
      Alcotest.(check int) "fresh snapshot sees both parts" 2
        (List.length (Client.components_of reader a));
      Alcotest.(check bool) "fresh snapshot reads the new object" true
        (Client.read_attr reader p2 "Name" = Value.Null);
      Client.end_snapshot reader;
      Alcotest.(check bool) "double end refused" true
        (match Client.end_snapshot reader with
        | exception Client.Error (Message.Bad_request, _) -> true
        | _ -> false);
      Client.close reader;
      Client.close writer)

(* Replica ---------------------------------------------------------------------- *)

let start_primary dir =
  let db_path = Filename.concat dir "p.odb" in
  let sock = Filename.concat dir "p.sock" in
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let wal = Wal.create () in
  Wal.attach ~snapshot_path:db_path ~truncate_on_checkpoint:false wal
    (Eval.database env);
  Wal.set_backing wal (Some (db_path ^ ".wal"));
  Wal.sync wal;
  Persist.save (Eval.database env);
  let server =
    Server.create ~wal
      ~repl:(Tx_service.Primary (Tailer.create wal))
      env (Server.Unix_path sock)
  in
  let thread = Thread.create Server.run server in
  (server, thread, Orion_protocol.Addr.Unix_path sock)

(* A replica as `orion serve --replica-of` builds one: the server wires
   its version store so snapshot reads answer at the applied clock. *)
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
  (server, thread, replica, db, Orion_protocol.Addr.Unix_path sock)

let test_replica_snapshot_reads () =
  let dir = temp_dir () in
  let p_server, p_thread, p_addr = start_primary dir in
  Fun.protect
    ~finally:(fun () ->
      Server.stop p_server;
      Thread.join p_thread)
    (fun () ->
      let r_server, r_thread, replica, r_db, r_addr =
        start_replica dir p_addr
      in
      Fun.protect
        ~finally:(fun () ->
          Server.stop r_server;
          Thread.join r_thread;
          Replica.stop replica)
        (fun () ->
          let w = connect p_addr in
          ignore (Client.begin_tx w : int);
          let a = Client.make w ~cls:"Assembly" () in
          let p1 =
            Client.make w ~cls:"Part" ~parents:[ (a, "Parts") ]
              ~attrs:[ ("Name", Value.Str "one") ] ()
          in
          Client.commit w;
          Alcotest.(check bool) "replica applied the commit" true
            (eventually (fun () -> Database.count r_db = 2));
          (* A snapshot opens on the read-only replica — no Read_only
             refusal — and answers at the applied clock. *)
          let rc = connect r_addr in
          let clock1 = Client.begin_snapshot rc in
          Alcotest.(check bool) "replica snapshot attr read" true
            (Client.read_attr rc p1 "Name" = Value.Str "one");
          Alcotest.(check (list int)) "replica snapshot components-of"
            [ Oid.to_int p1 ]
            (List.map Oid.to_int (Client.components_of rc a));
          (* The primary commits more; the open replica snapshot holds
             its clock. *)
          ignore (Client.begin_tx w : int);
          let p2 = Client.make w ~cls:"Part" ~parents:[ (a, "Parts") ] () in
          Client.commit w;
          Alcotest.(check bool) "replica applied the second commit" true
            (eventually (fun () -> Database.count r_db = 3));
          Alcotest.(check int) "open replica snapshot still sees one part" 1
            (List.length (Client.components_of rc a));
          Alcotest.(check bool) "post-snapshot object unreadable" true
            (match Client.read_attr rc p2 "Name" with
            | exception Client.Error (Message.Eval_error, _) -> true
            | _ -> false);
          (* Read-your-watermark: a fresh snapshot begun after the
             apply sees the new commit, at a strictly later clock. *)
          Client.end_snapshot rc;
          Alcotest.(check bool) "fresh replica snapshot catches up" true
            (eventually (fun () ->
                 let clock2 = Client.begin_snapshot rc in
                 let n = List.length (Client.components_of rc a) in
                 Client.end_snapshot rc;
                 clock2 > clock1 && n = 2));
          Client.close rc;
          Client.close w))

let () =
  (* ORION_LOCKDEP=1: watch this suite's real lock traffic; install's
     exit hook fails the run on any discipline violation. *)
  Orion_analysis.Lockdep.install_from_env ();
  Alcotest.run "orion_mvcc"
    [
      ( "version store",
        [
          Alcotest.test_case "clock visibility" `Quick test_store_visibility;
          Alcotest.test_case "pins survive gc" `Quick
            test_store_pins_survive_gc;
        ] );
      ( "snapshot transactions",
        [
          Alcotest.test_case "isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "traversals" `Quick test_snapshot_traversals;
          Alcotest.test_case "zero lock-table traffic" `Quick
            test_snapshot_takes_no_locks;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "all-or-none visibility" `Quick
            test_group_commit_all_or_none;
          Alcotest.test_case "crash mid-batch agrees with replay" `Quick
            test_crash_mid_batch_snapshot_agrees_with_replay;
        ] );
      ( "wire",
        [
          Alcotest.test_case "snapshot session" `Quick test_wire_snapshot_reads;
        ] );
      ( "replica",
        [
          Alcotest.test_case "snapshot at applied clock" `Quick
            test_replica_snapshot_reads;
        ] );
    ]
