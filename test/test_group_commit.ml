(* Unit tests for the group-commit batcher: K coincident commits become
   one log append + one sync sealed by a single [Commit_group]; a solo
   commit seals with a plain [Commit] (byte-identical to the direct
   path); a crash anywhere inside a batch makes the whole batch abort —
   on the submitters' side via the failure notification, and on replay
   because the unsealed records are invisible to recovery.  The offline
   checker accepts a group-committed store. *)

open Orion_core
module A = Orion_schema.Attribute
module D = Orion_schema.Domain
module Schema = Orion_schema.Schema
module Store = Orion_storage.Store
module Wal = Orion_wal.Wal
module Wal_record = Orion_wal.Wal_record
module Group_commit = Orion_wal.Group_commit
module Recovery = Orion_wal.Recovery
module Tx = Orion_tx.Tx_manager
module Obs = Orion_obs.Metrics
module SC = Orion_analysis.Store_check

let define_schema db =
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
    ]

(* A database wired to an in-memory log, checkpointed once so the log
   holds the catalog. *)
let boot () =
  let db = Database.create () in
  define_schema db;
  let wal = Wal.create () in
  Wal.attach wal db;
  Persist.save db;
  let manager = Tx.create ~wal db in
  (db, wal, manager)

(* One open transaction that created a fresh family (no lock conflicts
   between several of these, so they can all commit in one batch). *)
let open_tx manager tag =
  let tx = Tx.begin_tx manager in
  let node = Tx.create_object manager tx ~cls:"Node" () in
  ignore
    (Tx.create_object manager tx ~cls:"Leaf" ~parents:[ (node, "Kids") ]
       ~attrs:[ ("Tag", Value.Int tag) ] ()
      : Oid.t);
  (tx, node)

(* A committer whose members are their submitters' verdict callbacks:
   each posted batch calls every member back with the batch's outcome. *)
let committer ~window wal =
  Group_commit.create ~window wal
    ~post:(fun { Group_commit.members; outcome; _ } ->
      List.iter
        (fun notify ->
          match outcome with
          | Ok () -> notify ~ok:true ~err:""
          | Error err -> notify ~ok:false ~err)
        members)

(* Capture all after-images first, then submit everything inside the
   window, then wait for the committer's verdicts. *)
let submit_all gc manager txs ~eager =
  let captured = List.map (fun tx -> (tx, Tx.submit_commit manager tx)) txs in
  let mu = Mutex.create () in
  let verdicts = ref [] in
  List.iter
    (fun (tx, (records, (next_oid, clock, cc))) ->
      Group_commit.submit gc ~tx:(Tx.tx_id tx) ~records ~next_oid ~clock ~cc
        ~eager ~member:(fun ~ok ~err ->
          Mutex.lock mu;
          verdicts := (Tx.tx_id tx, ok, err) :: !verdicts;
          Mutex.unlock mu))
    captured;
  let deadline = Unix.gettimeofday () +. 10. in
  let all_in () =
    Mutex.lock mu;
    let n = List.length !verdicts in
    Mutex.unlock mu;
    n = List.length txs
  in
  while (not (all_in ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if not (all_in ()) then Alcotest.fail "committer never reported";
  !verdicts

(* Read through a snapshot: [Obs.counter] would register a fresh
   instrument over the log's live one. *)
let syncs () =
  Option.value (Obs.find_counter (Obs.snapshot ()) "wal.syncs") ~default:0

let seals records =
  List.filter_map
    (function
      | Wal_record.Commit { tx; _ } -> Some (`Commit tx)
      | Wal_record.Commit_group { txs; _ } -> Some (`Group txs)
      | _ -> None)
    records

let test_batch_seals_once () =
  let db, wal, manager = boot () in
  let opened = List.map (fun tag -> open_tx manager tag) [ 1; 2; 3 ] in
  let txs = List.map fst opened in
  (* A long window next to a fast submit loop: all three land in one
     batch deterministically. *)
  let gc = committer ~window:0.2 wal in
  let syncs_before = syncs () in
  let verdicts = submit_all gc manager txs ~eager:false in
  List.iter
    (fun (tx, ok, err) ->
      if not ok then Alcotest.failf "tx %d failed to commit: %s" tx err)
    verdicts;
  Alcotest.(check int) "one sync for the whole batch" 1 (syncs () - syncs_before);
  List.iter (fun tx -> ignore (Tx.complete_commit manager tx : int list)) txs;
  Group_commit.shutdown gc;
  (* One [Commit_group] seal naming all three, no per-transaction
     commit records. *)
  (match seals (Wal.scan wal).Wal.records with
  | [ `Group sealed ] ->
      Alcotest.(check (list int))
        "all members sealed"
        (List.sort compare (List.map Tx.tx_id txs))
        (List.sort compare sealed)
  | other -> Alcotest.failf "expected one group seal, found %d" (List.length other));
  (* Replay applies every member. *)
  let recovered, rstats = Recovery.replay (Wal.of_bytes (Wal.contents wal)) in
  Alcotest.(check int) "all batched txs replayed" 3 rstats.Recovery.committed_txs;
  Alcotest.(check int) "recovered object count" (Database.count db)
    (Database.count recovered);
  List.iter
    (fun (_, node) ->
      Alcotest.(check bool) "family root recovered" true
        (Database.exists recovered node))
    opened;
  (match Integrity.check recovered with
  | [] -> ()
  | violations ->
      Alcotest.failf "recovered integrity: %a"
        (Format.pp_print_list Integrity.pp_violation)
        violations)

let test_solo_commit_seals_plain () =
  let _db, wal, manager = boot () in
  let tx, _node = open_tx manager 7 in
  let gc = committer ~window:0.2 wal in
  let verdicts = submit_all gc manager [ tx ] ~eager:true in
  (match verdicts with
  | [ (_, true, _) ] -> ()
  | _ -> Alcotest.fail "solo commit did not succeed");
  ignore (Tx.complete_commit manager tx : int list);
  Group_commit.shutdown gc;
  (* Byte-compat: a batch of one is indistinguishable from the direct
     commit path — a plain [Commit], never a singleton group. *)
  (match seals (Wal.scan wal).Wal.records with
  | [ `Commit sealed ] -> Alcotest.(check int) "sealed tx" (Tx.tx_id tx) sealed
  | _ -> Alcotest.fail "expected exactly one plain commit seal");
  let _, rstats = Recovery.replay (Wal.of_bytes (Wal.contents wal)) in
  Alcotest.(check int) "replayed" 1 rstats.Recovery.committed_txs

let test_fail_mid_batch_aborts_all () =
  let db, wal, manager = boot () in
  let baseline = Database.count db in
  let tx1, _ = open_tx manager 1 in
  let tx2, _ = open_tx manager 2 in
  (* Let one record of the batch reach the log, then crash: the seal
     never lands, so durably the batch never happened. *)
  Wal.inject_fault wal (Some (`Fail_after 1));
  let gc = committer ~window:0.05 wal in
  let verdicts = submit_all gc manager [ tx1; tx2 ] ~eager:false in
  List.iter
    (fun (tx, ok, _) ->
      Alcotest.(check bool) (Printf.sprintf "tx %d reported failed" tx) false ok)
    verdicts;
  Group_commit.kill gc;
  (* The submitters roll their workspaces back on the failure verdict,
     exactly like the shards do. *)
  ignore (Tx.commit_failed manager tx1 : int list);
  ignore (Tx.commit_failed manager tx2 : int list);
  Alcotest.(check int) "workspace rolled back" baseline (Database.count db);
  (* Replay of the surviving bytes: zero commits, baseline state. *)
  let recovered, rstats = Recovery.replay (Wal.of_bytes (Wal.contents wal)) in
  Alcotest.(check int) "no tx replayed" 0 rstats.Recovery.committed_txs;
  Alcotest.(check int) "baseline state" baseline (Database.count recovered)

let test_torn_seal_replays_nothing () =
  let db, wal, manager = boot () in
  let baseline = Database.count db in
  let tx1, _ = open_tx manager 1 in
  let tx2, _ = open_tx manager 2 in
  (* Capture first so we can aim the tear at the seal itself: every
     member record is appended intact, the [Commit_group] frame tears
     mid-write — the worst case for all-or-none. *)
  let captured =
    List.map (fun tx -> (tx, Tx.submit_commit manager tx)) [ tx1; tx2 ]
  in
  let n_records =
    List.fold_left (fun n (_, (rs, _)) -> n + List.length rs) 0 captured
  in
  Wal.inject_fault wal (Some (`Torn_after n_records));
  let gc = committer ~window:0.05 wal in
  let mu = Mutex.create () in
  let verdicts = ref [] in
  List.iter
    (fun (tx, (records, (next_oid, clock, cc))) ->
      Group_commit.submit gc ~tx:(Tx.tx_id tx) ~records ~next_oid ~clock ~cc
        ~eager:false ~member:(fun ~ok ~err:_ ->
          Mutex.lock mu;
          verdicts := (Tx.tx_id tx, ok) :: !verdicts;
          Mutex.unlock mu))
    captured;
  let deadline = Unix.gettimeofday () +. 10. in
  while
    (Mutex.lock mu;
     let n = List.length !verdicts in
     Mutex.unlock mu;
     n < 2)
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.005
  done;
  List.iter
    (fun (tx, ok) ->
      Alcotest.(check bool) (Printf.sprintf "tx %d reported failed" tx) false ok)
    !verdicts;
  Group_commit.kill gc;
  ignore (Tx.commit_failed manager tx1 : int list);
  ignore (Tx.commit_failed manager tx2 : int list);
  (* The torn seal is detected and everything under it discarded: the
     member records are a dead prefix with no seal, so replay applies
     ZERO transactions of the batch. *)
  let { Wal.torn_tail; _ } = Wal.scan wal in
  Alcotest.(check bool) "torn tail detected" true torn_tail;
  let recovered, rstats = Recovery.replay (Wal.of_bytes (Wal.contents wal)) in
  Alcotest.(check int) "no tx replayed" 0 rstats.Recovery.committed_txs;
  Alcotest.(check int) "baseline state" baseline (Database.count recovered);
  (match Integrity.check recovered with
  | [] -> ()
  | violations ->
      Alcotest.failf "recovered integrity: %a"
        (Format.pp_print_list Integrity.pp_violation)
        violations)

let temp name =
  let path = Filename.temp_file "orion_gc" name in
  at_exit (fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp"; path ^ ".bak" ]);
  path

(* [boot] with the log made durable in a file. *)
let boot_backed () =
  let wal_path = temp ".wal" in
  let db = Database.create () in
  define_schema db;
  let wal = Wal.create () in
  Wal.attach wal db;
  Wal.set_backing wal (Some wal_path);
  Persist.save db;
  (db, wal, Tx.create ~wal db, wal_path)

let solo gc manager tx =
  match submit_all gc manager [ tx ] ~eager:true with
  | [ (_, ok, err) ] -> (ok, err)
  | _ -> Alcotest.fail "expected one verdict"

let check_fsck_clean db wal_path =
  let store_path = temp ".odb" in
  Store.save_file (Database.store db) store_path;
  let report = SC.check_file ~wal:wal_path store_path in
  if report.SC.issues <> [] then
    Alcotest.failf "fsck issues:\n%s"
      (String.concat "\n"
         (List.map (Format.asprintf "%a" SC.pp_issue) report.SC.issues))

(* The offline checker on a group-committed store: [Commit_group] is
   just another sealed frame to fsck — clean store, clean log. *)
let test_fsck_clean_on_group_committed_store () =
  let db, wal, manager, wal_path = boot_backed () in
  let tx1, _ = open_tx manager 1 in
  let tx2, _ = open_tx manager 2 in
  let gc = committer ~window:0.2 wal in
  let verdicts = submit_all gc manager [ tx1; tx2 ] ~eager:false in
  List.iter
    (fun (tx, ok, err) ->
      if not ok then Alcotest.failf "tx %d failed: %s" tx err)
    verdicts;
  ignore (Tx.complete_commit manager tx1 : int list);
  ignore (Tx.complete_commit manager tx2 : int list);
  Group_commit.shutdown gc;
  Persist.save db;
  check_fsck_clean db wal_path

(* A batch whose write hits a full disk is reported failed and never
   becomes durable later: the log is fail-stop, so the next commit is
   refused too, on either path. *)
let test_io_error_fails_batch_durably () =
  let _db, wal, manager, wal_path = boot_backed () in
  let gc = committer ~window:0.05 wal in
  let tx1, node1 = open_tx manager 1 in
  (match solo gc manager tx1 with
  | true, _ -> ignore (Tx.complete_commit manager tx1 : int list)
  | false, err -> Alcotest.failf "first commit failed: %s" err);
  let acked = Wal.durable_lsn wal in
  Wal.inject_fault wal (Some (`Io_error_after 0));
  let tx2, node2 = open_tx manager 2 in
  (match solo gc manager tx2 with
  | true, _ -> Alcotest.fail "a batch that hit ENOSPC was acknowledged"
  | false, _ -> ignore (Tx.commit_failed manager tx2 : int list));
  (* The disk has room again; the log must stay down regardless. *)
  Wal.inject_fault wal None;
  let tx3, _ = open_tx manager 3 in
  (match solo gc manager tx3 with
  | true, _ -> Alcotest.fail "a commit over the failed batch was acknowledged"
  | false, _ -> ignore (Tx.commit_failed manager tx3 : int list));
  let tx4, _ = open_tx manager 4 in
  (match Tx.commit manager tx4 with
  | _ -> Alcotest.fail "direct commit on a crashed log succeeded"
  | exception Wal.Crashed -> ignore (Tx.abort manager tx4 : int list));
  Group_commit.kill gc;
  let recovered, rstats = Recovery.replay (Wal.load_file wal_path) in
  Alcotest.(check bool) "torn tail on file" true rstats.Recovery.torn_tail;
  Alcotest.(check int) "only the acknowledged commit replays" 1
    rstats.Recovery.committed_txs;
  Alcotest.(check bool) "acknowledged family recovered" true
    (Database.exists recovered node1);
  Alcotest.(check bool) "failed family absent" false
    (Database.exists recovered node2);
  (match SC.repair_wal_tail wal_path with
  | Ok (SC.Wal_repaired { valid_bytes; _ }) ->
      (* Whole frames of the failed batch may survive the cut, but its
         seal cannot: they replay as nothing. *)
      Alcotest.(check bool) "repair keeps the acknowledged prefix" true
        (valid_bytes >= acked)
  | Ok (SC.Wal_intact _) -> Alcotest.fail "a torn tail must be repaired"
  | Error msg -> Alcotest.fail msg);
  let repaired, rstats = Recovery.replay (Wal.load_file wal_path) in
  Alcotest.(check bool) "clean after repair" false rstats.Recovery.torn_tail;
  Alcotest.(check int) "same commit after repair" 1 rstats.Recovery.committed_txs;
  Alcotest.(check bool) "failed family still absent" false
    (Database.exists repaired node2);
  check_fsck_clean repaired wal_path

let batches () =
  Option.value
    (Obs.find_counter (Obs.snapshot ()) "wal.group_commit.batches")
    ~default:0

(* A check-out — lock the composite S, read it, commit — changes
   nothing, so its commit must not touch the log: no record, no sync,
   no batch, no clock tick. *)
let test_check_out_skips_log () =
  let db, wal, manager = boot () in
  let tx, node = open_tx manager 1 in
  ignore (Tx.commit manager tx : int list);
  let size = Wal.size wal and syncs0 = syncs () and batches0 = batches () in
  let clock0 = snd (Database.counters db) in
  for _ = 1 to 10 do
    let tx = Tx.begin_tx manager in
    (match Tx.lock_composite manager tx ~root:node Orion_locking.Protocol.Read_ with
    | `Granted -> ()
    | `Blocked -> Alcotest.fail "lone reader blocked");
    Alcotest.(check int) "reads the family" 1
      (List.length (Traversal.components_of db node));
    Alcotest.(check bool) "read-only" true (Tx.read_only tx);
    ignore (Tx.commit manager tx : int list);
    Alcotest.(check bool) "committed" true (Tx.state tx = Tx.Committed)
  done;
  Alcotest.(check int) "log size unchanged" size (Wal.size wal);
  Alcotest.(check int) "no sync" syncs0 (syncs ());
  Alcotest.(check int) "no batch" batches0 (batches ());
  Alcotest.(check int) "clock unchanged" clock0 (snd (Database.counters db));
  (* The read locks were released: a writer gets the composite at once. *)
  let tx = Tx.begin_tx manager in
  match Tx.lock_composite manager tx ~root:node Orion_locking.Protocol.Update with
  | `Granted -> ignore (Tx.commit manager tx : int list)
  | `Blocked -> Alcotest.fail "read locks outlived the read-only commit"

(* Interleaved check-outs and group-committed writes on a file-backed
   log: recovery from the file alone reproduces the live state. *)
let test_mixed_run_recovers () =
  let db, wal, manager, wal_path = boot_backed () in
  let gc = committer ~window:0.01 wal in
  let nodes = ref [] in
  for i = 1 to 20 do
    if i mod 4 = 0 then begin
      let tx, node = open_tx manager i in
      match solo gc manager tx with
      | true, _ ->
          ignore (Tx.complete_commit manager tx : int list);
          nodes := node :: !nodes
      | false, err -> Alcotest.failf "write %d failed: %s" i err
    end
    else
      List.iter
        (fun node ->
          let tx = Tx.begin_tx manager in
          (match Tx.lock_composite manager tx ~root:node Orion_locking.Protocol.Read_ with
          | `Granted -> ()
          | `Blocked -> Alcotest.fail "lone reader blocked");
          ignore (Traversal.components_of db node : Oid.t list);
          ignore (Tx.commit manager tx : int list))
        !nodes
  done;
  Group_commit.shutdown gc;
  let recovered, rstats = Recovery.replay (Wal.load_file wal_path) in
  Alcotest.(check int) "every write commit replayed" 5
    rstats.Recovery.committed_txs;
  Alcotest.(check int) "live object count" (Database.count db)
    (Database.count recovered);
  List.iter
    (fun node ->
      Alcotest.(check bool) "written family recovered" true
        (Database.exists recovered node))
    !nodes;
  check_fsck_clean recovered wal_path

let () =
  (* ORION_LOCKDEP=1: watch this suite's real lock traffic; install's
     exit hook fails the run on any discipline violation. *)
  Orion_analysis.Lockdep.install_from_env ();
  Alcotest.run "orion_group_commit"
    [
      ( "batching",
        [
          Alcotest.test_case "batch of 3 seals once" `Quick test_batch_seals_once;
          Alcotest.test_case "solo seals as plain commit" `Quick
            test_solo_commit_seals_plain;
        ] );
      ( "crash",
        [
          Alcotest.test_case "fail mid-batch aborts all" `Quick
            test_fail_mid_batch_aborts_all;
          Alcotest.test_case "torn seal replays nothing" `Quick
            test_torn_seal_replays_nothing;
          Alcotest.test_case "io error fails the batch durably" `Quick
            test_io_error_fails_batch_durably;
        ] );
      ( "read-only",
        [
          Alcotest.test_case "check-out skips the log" `Quick
            test_check_out_skips_log;
          Alcotest.test_case "mixed run recovers" `Quick test_mixed_run_recovers;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "clean on group-committed store" `Quick
            test_fsck_clean_on_group_committed_store;
        ] );
    ]
