(* Tests for Orion_tx: snapshot undo, strict 2PL over the §7 protocols,
   abort semantics, and the round-robin scheduler. *)

open Orion_core
module A = Orion_schema.Attribute
module D = Orion_schema.Domain
module Schema = Orion_schema.Schema
module Protocol = Orion_locking.Protocol
module Snapshot = Orion_tx.Snapshot
module Tx = Orion_tx.Tx_manager
module Scheduler = Orion_tx.Scheduler
module Part_gen = Orion_workload.Part_gen
module Trace_gen = Orion_workload.Trace_gen

let check_integrity db =
  match Integrity.check db with
  | [] -> ()
  | violations ->
      Alcotest.failf "integrity: %a"
        (Format.pp_print_list Integrity.pp_violation)
        violations

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
      A.make ~name:"Refs" ~domain:(D.Class "Leaf") ~collection:A.Set
        ~refkind:(A.composite ~exclusive:false ~dependent:false ())
        ();
    ];
  db

(* Snapshots ------------------------------------------------------------------- *)

let test_snapshot_restores_attrs () =
  let db = fixture () in
  let leaf = Object_manager.create db ~cls:"Leaf" ~attrs:[ ("Tag", Value.Int 1) ] () in
  let snap = Snapshot.take db [ leaf ] in
  Object_manager.write_attr db leaf "Tag" (Value.Int 99);
  Snapshot.restore snap db;
  Alcotest.(check bool) "attr restored" true
    (Value.equal (Object_manager.read_attr db leaf "Tag") (Value.Int 1));
  check_integrity db

let test_snapshot_resurrects_deleted () =
  let db = fixture () in
  let node = Object_manager.create db ~cls:"Node" () in
  let leaf = Object_manager.create db ~cls:"Leaf" ~parents:[ (node, "Kids") ] () in
  let snap = Snapshot.take db [ node; leaf ] in
  Object_manager.delete db node;
  Alcotest.(check bool) "both gone" true
    ((not (Database.exists db node)) && not (Database.exists db leaf));
  Snapshot.restore snap db;
  Alcotest.(check bool) "both back" true
    (Database.exists db node && Database.exists db leaf);
  Alcotest.(check bool) "membership restored" true (Traversal.child_of db leaf node);
  check_integrity db

let test_snapshot_first_capture_wins () =
  let db = fixture () in
  let leaf = Object_manager.create db ~cls:"Leaf" ~attrs:[ ("Tag", Value.Int 1) ] () in
  let snap = Snapshot.take db [ leaf ] in
  Object_manager.write_attr db leaf "Tag" (Value.Int 2);
  ignore (Snapshot.extend snap db [ leaf ] : (Oid.t * Snapshot.capture) list);
  Object_manager.write_attr db leaf "Tag" (Value.Int 3);
  Snapshot.restore snap db;
  Alcotest.(check bool) "original value restored" true
    (Value.equal (Object_manager.read_attr db leaf "Tag") (Value.Int 1))

(* Transactions ----------------------------------------------------------------- *)

let test_commit_keeps_changes () =
  let db = fixture () in
  let manager = Tx.create db in
  let tx = Tx.begin_tx manager in
  let node = Tx.create_object manager tx ~cls:"Node" () in
  let leaf = Tx.create_object manager tx ~cls:"Leaf" ~parents:[ (node, "Kids") ] () in
  ignore (Tx.commit manager tx : int list);
  Alcotest.(check bool) "objects committed" true
    (Database.exists db node && Database.exists db leaf);
  Alcotest.(check bool) "tx state" true (Tx.state tx = Tx.Committed);
  check_integrity db

let test_abort_removes_created () =
  let db = fixture () in
  let manager = Tx.create db in
  let tx = Tx.begin_tx manager in
  let node = Tx.create_object manager tx ~cls:"Node" () in
  let leaf = Tx.create_object manager tx ~cls:"Leaf" ~parents:[ (node, "Kids") ] () in
  ignore (Tx.abort manager tx : int list);
  Alcotest.(check bool) "created objects gone" true
    ((not (Database.exists db node)) && not (Database.exists db leaf));
  Alcotest.(check int) "database empty" 0 (Database.count db);
  check_integrity db

let test_abort_restores_deleted_composite () =
  let db = fixture () in
  let node = Object_manager.create db ~cls:"Node" () in
  let leaf = Object_manager.create db ~cls:"Leaf" ~parents:[ (node, "Kids") ] () in
  let manager = Tx.create db in
  let tx = Tx.begin_tx manager in
  Tx.delete_object manager tx node;
  Alcotest.(check bool) "cascade happened" false (Database.exists db leaf);
  ignore (Tx.abort manager tx : int list);
  Alcotest.(check bool) "composite restored" true
    (Database.exists db node && Database.exists db leaf);
  Alcotest.(check bool) "reverse references restored" true
    (Traversal.parents_of db leaf = [ node ]);
  check_integrity db

let test_abort_restores_write () =
  let db = fixture () in
  let node = Object_manager.create db ~cls:"Node" () in
  let l1 = Object_manager.create db ~cls:"Leaf" ~parents:[ (node, "Refs") ] () in
  let l2 = Object_manager.create db ~cls:"Leaf" () in
  let manager = Tx.create db in
  let tx = Tx.begin_tx manager in
  Tx.write_attr manager tx node "Refs" (Value.VSet [ Value.Ref l2 ]);
  Alcotest.(check bool) "swap applied" true (Traversal.child_of db l2 node);
  ignore (Tx.abort manager tx : int list);
  Alcotest.(check bool) "old membership restored" true (Traversal.child_of db l1 node);
  Alcotest.(check bool) "new membership undone" false (Traversal.child_of db l2 node);
  check_integrity db

let test_abort_restores_remove_component () =
  let db = fixture () in
  let node = Object_manager.create db ~cls:"Node" () in
  let leaf = Object_manager.create db ~cls:"Leaf" ~parents:[ (node, "Kids") ] () in
  let manager = Tx.create db in
  let tx = Tx.begin_tx manager in
  (* Removing the dependent leaf deletes it (existence rule)... *)
  Tx.remove_component manager tx ~parent:node ~attr:"Kids" ~child:leaf;
  Alcotest.(check bool) "deleted" false (Database.exists db leaf);
  (* ...and abort brings it back with its membership. *)
  ignore (Tx.abort manager tx : int list);
  Alcotest.(check bool) "restored" true (Database.exists db leaf);
  Alcotest.(check bool) "membership back" true (Traversal.child_of db leaf node);
  check_integrity db

let test_blocking_and_wakeup () =
  let db = fixture () in
  let node = Object_manager.create db ~cls:"Node" () in
  let manager = Tx.create db in
  let t1 = Tx.begin_tx manager in
  let t2 = Tx.begin_tx manager in
  Alcotest.(check bool) "t1 gets X" true
    (Tx.lock_instance manager t1 node Protocol.Update = `Granted);
  Alcotest.(check bool) "t2 blocks" true
    (Tx.lock_instance manager t2 node Protocol.Read_ = `Blocked);
  Alcotest.(check bool) "t2 parked" true (Tx.state t2 = Tx.Blocked);
  let unblocked = Tx.commit manager t1 in
  Alcotest.(check (list Alcotest.int)) "t2 woken" [ Tx.tx_id t2 ] unblocked;
  Alcotest.(check bool) "t2 active again" true (Tx.state t2 = Tx.Active)

(* Regression: aborting a [Blocked] transaction must dequeue its
   pending lock request — a wire-level cancel or lock timeout would
   otherwise leave an orphan waiter that gets granted to a dead
   transaction (and steals the grant from live ones behind it). *)
let test_abort_blocked_dequeues_request () =
  let db = fixture () in
  let node = Object_manager.create db ~cls:"Node" () in
  let manager = Tx.create db in
  let t1 = Tx.begin_tx manager in
  let t2 = Tx.begin_tx manager in
  let t3 = Tx.begin_tx manager in
  Alcotest.(check bool) "t1 X" true
    (Tx.lock_instance manager t1 node Protocol.Update = `Granted);
  Alcotest.(check bool) "t2 queues" true
    (Tx.lock_instance manager t2 node Protocol.Update = `Blocked);
  Alcotest.(check bool) "t3 queues behind t2" true
    (Tx.lock_instance manager t3 node Protocol.Update = `Blocked);
  (* Cancelling t2 while it is still queued grants nothing... *)
  Alcotest.(check (list Alcotest.int)) "abort of queued t2 wakes nobody" []
    (Tx.abort manager t2);
  Alcotest.(check bool) "t2 aborted" true (Tx.state t2 = Tx.Aborted);
  (* ...and t1's release must skip the dead waiter and wake t3. *)
  Alcotest.(check (list Alcotest.int)) "commit wakes t3, not the dead t2"
    [ Tx.tx_id t3 ] (Tx.commit manager t1);
  Alcotest.(check bool) "t3 active" true (Tx.state t3 = Tx.Active);
  ignore (Tx.commit manager t3 : int list)

(* Supervisors holding only transaction ids (the server's deadlock
   breaker, when a victim's session is already gone) must be able to
   finish the victim: abort_id releases its locks and wakes waiters
   exactly like abort on the handle. *)
let test_abort_id () =
  let db = fixture () in
  let node = Object_manager.create db ~cls:"Node" () in
  let manager = Tx.create db in
  let t1 = Tx.begin_tx manager in
  let t2 = Tx.begin_tx manager in
  Alcotest.(check bool) "t1 X" true
    (Tx.lock_instance manager t1 node Protocol.Update = `Granted);
  Alcotest.(check bool) "t2 queues" true
    (Tx.lock_instance manager t2 node Protocol.Update = `Blocked);
  Alcotest.(check (list Alcotest.int)) "aborting t1 by id wakes t2"
    [ Tx.tx_id t2 ] (Tx.abort_id manager (Tx.tx_id t1));
  Alcotest.(check bool) "t1 aborted" true (Tx.state t1 = Tx.Aborted);
  Alcotest.(check bool) "t2 active" true (Tx.state t2 = Tx.Active);
  Alcotest.(check (list Alcotest.int)) "unknown id is a no-op" []
    (Tx.abort_id manager 999);
  Alcotest.(check (list Alcotest.int)) "finished id is a no-op" []
    (Tx.abort_id manager (Tx.tx_id t1));
  ignore (Tx.commit manager t2 : int list)

let test_commit_of_blocked_or_finished_raises () =
  let db = fixture () in
  let node = Object_manager.create db ~cls:"Node" () in
  let manager = Tx.create db in
  let t1 = Tx.begin_tx manager in
  let t2 = Tx.begin_tx manager in
  ignore (Tx.lock_instance manager t1 node Protocol.Update : [ `Granted | `Blocked ]);
  ignore (Tx.lock_instance manager t2 node Protocol.Update : [ `Granted | `Blocked ]);
  Alcotest.check_raises "commit while blocked"
    (Invalid_argument "Tx_manager.commit: transaction is blocked on a lock")
    (fun () -> ignore (Tx.commit manager t2 : int list));
  ignore (Tx.commit manager t1 : int list);
  ignore (Tx.commit manager t2 : int list);
  Alcotest.check_raises "commit twice"
    (Invalid_argument "Tx_manager.commit: transaction already finished")
    (fun () -> ignore (Tx.commit manager t2 : int list))

let test_double_abort_is_idempotent () =
  let db = fixture () in
  let leaf = Object_manager.create db ~cls:"Leaf" ~attrs:[ ("Tag", Value.Int 1) ] () in
  let manager = Tx.create db in
  let t1 = Tx.begin_tx manager in
  Tx.write_attr manager t1 leaf "Tag" (Value.Int 2);
  ignore (Tx.abort manager t1 : int list);
  (* Another transaction commits a newer value... *)
  let t2 = Tx.begin_tx manager in
  Tx.write_attr manager t2 leaf "Tag" (Value.Int 3);
  ignore (Tx.commit manager t2 : int list);
  (* ...which a second abort of t1 (say a client cancel racing the
     deadlock detector) must not clobber with its stale snapshot. *)
  Alcotest.(check (list Alcotest.int)) "second abort is a no-op" []
    (Tx.abort manager t1);
  Alcotest.(check bool) "t2's commit survives" true
    (Value.equal (Object_manager.read_attr db leaf "Tag") (Value.Int 3))

(* End-to-end deadlock path at the manager level: detect the cycle,
   abort the victim, verify the survivor is woken and can finish. *)
let test_deadlock_victim_abort_wakes_survivor () =
  let db = fixture () in
  let a = Object_manager.create db ~cls:"Leaf" () in
  let b = Object_manager.create db ~cls:"Leaf" () in
  let manager = Tx.create db in
  let t1 = Tx.begin_tx manager in
  let t2 = Tx.begin_tx manager in
  Alcotest.(check bool) "t1 X a" true
    (Tx.lock_instance manager t1 a Protocol.Update = `Granted);
  Alcotest.(check bool) "t2 X b" true
    (Tx.lock_instance manager t2 b Protocol.Update = `Granted);
  Alcotest.(check bool) "t1 waits for b" true
    (Tx.lock_instance manager t1 b Protocol.Update = `Blocked);
  Alcotest.(check bool) "no cycle yet" true (Tx.find_deadlock manager = None);
  Alcotest.(check bool) "t2 waits for a" true
    (Tx.lock_instance manager t2 a Protocol.Update = `Blocked);
  let cycle =
    match Tx.find_deadlock manager with
    | Some cycle -> cycle
    | None -> Alcotest.fail "deadlock undetected"
  in
  Alcotest.(check bool) "cycle is {t1,t2}" true
    (List.sort compare cycle = [ Tx.tx_id t1; Tx.tx_id t2 ]);
  (* The scheduler's victim policy: youngest in the cycle. *)
  let victim = List.fold_left max min_int cycle in
  Alcotest.(check int) "victim is the youngest" (Tx.tx_id t2) victim;
  Alcotest.(check (list Alcotest.int)) "victim's release wakes t1"
    [ Tx.tx_id t1 ] (Tx.abort manager t2);
  Alcotest.(check bool) "t1 runnable" true (Tx.state t1 = Tx.Active);
  Alcotest.(check bool) "cycle broken" true (Tx.find_deadlock manager = None);
  ignore (Tx.commit manager t1 : int list)

(* The incremental detector: a search is due only once a request has
   blocked since the last clean search; a found cycle stays due until
   the search after the victim's abort comes back clean. *)
let test_deadlock_check_due () =
  let db = fixture () in
  let a = Object_manager.create db ~cls:"Leaf" () in
  let b = Object_manager.create db ~cls:"Leaf" () in
  let manager = Tx.create db in
  let due () = Tx.deadlock_check_due manager in
  let t1 = Tx.begin_tx manager in
  let t2 = Tx.begin_tx manager in
  ignore (Tx.lock_instance manager t1 a Protocol.Update);
  ignore (Tx.lock_instance manager t2 b Protocol.Update);
  Alcotest.(check bool) "grants alone are not due" false (due ());
  ignore (Tx.lock_instance manager t1 b Protocol.Update);
  Alcotest.(check bool) "a block makes a search due" true (due ());
  Alcotest.(check bool) "half a cycle is no cycle" true
    (Tx.find_deadlock manager = None);
  Alcotest.(check bool) "a clean search clears it" false (due ());
  ignore (Tx.lock_instance manager t2 a Protocol.Update);
  Alcotest.(check bool) "the closing edge is due" true (due ());
  Alcotest.(check bool) "cycle found" true (Tx.find_deadlock manager <> None);
  Alcotest.(check bool) "still due after a found cycle" true (due ());
  ignore (Tx.abort manager t2 : int list);
  Alcotest.(check bool) "clean after the victim's abort" true
    (Tx.find_deadlock manager = None);
  Alcotest.(check bool) "not due once searched clean" false (due ());
  ignore (Tx.commit manager t1 : int list)

let test_lock_escalation () =
  let db = fixture () in
  let leaves = List.init 10 (fun _ -> Object_manager.create db ~cls:"Leaf" ()) in
  let manager = Tx.create ~escalation_threshold:4 db in
  let tx = Tx.begin_tx manager in
  List.iteri
    (fun i leaf ->
      Alcotest.(check bool)
        (Printf.sprintf "lock %d granted" i)
        true
        (Tx.lock_instance manager tx leaf Protocol.Update = `Granted))
    leaves;
  Alcotest.(check (list Alcotest.string)) "escalated to the class lock" [ "Leaf" ]
    (Tx.escalated manager tx);
  (* After escalation the class X lock blocks every other accessor. *)
  let other = Tx.begin_tx manager in
  Alcotest.(check bool) "others blocked by class lock" true
    (Tx.lock_instance manager other (List.hd leaves) Protocol.Read_ = `Blocked);
  ignore (Tx.commit manager tx : int list);
  Alcotest.(check bool) "unblocked after commit" true (Tx.state other = Tx.Active)

(* Regression: escalation must trigger on DISTINCT instances, not raw
   acquisitions — re-locking one hot object [threshold] times is not
   class-wide access and must leave the class unescalated. *)
let test_escalation_counts_distinct_instances () =
  let db = fixture () in
  let hot = Object_manager.create db ~cls:"Leaf" () in
  let manager = Tx.create ~escalation_threshold:4 db in
  let tx = Tx.begin_tx manager in
  for i = 1 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "re-lock %d granted" i)
      true
      (Tx.lock_instance manager tx hot Protocol.Update = `Granted)
  done;
  Alcotest.(check (list Alcotest.string)) "one hot instance never escalates" []
    (Tx.escalated manager tx);
  (* A concurrent reader of a different leaf stays unblocked — proof no
     class X lock snuck in. *)
  let cold = Object_manager.create db ~cls:"Leaf" () in
  let other = Tx.begin_tx manager in
  Alcotest.(check bool) "other leaf readable" true
    (Tx.lock_instance manager other cold Protocol.Read_ = `Granted);
  ignore (Tx.commit manager other : int list);
  (* Touching distinct instances does cross the threshold. *)
  let leaves = List.init 3 (fun _ -> Object_manager.create db ~cls:"Leaf" ()) in
  List.iter
    (fun leaf ->
      ignore (Tx.lock_instance manager tx leaf Protocol.Update
               : [ `Granted | `Blocked ]))
    leaves;
  Alcotest.(check (list Alcotest.string)) "distinct instances escalate" [ "Leaf" ]
    (Tx.escalated manager tx);
  ignore (Tx.commit manager tx : int list)

let test_escalation_denied_under_contention () =
  let db = fixture () in
  let leaves = List.init 6 (fun _ -> Object_manager.create db ~cls:"Leaf" ()) in
  let manager = Tx.create ~escalation_threshold:3 db in
  let t1 = Tx.begin_tx manager in
  let t2 = Tx.begin_tx manager in
  (* t2 holds one instance lock: t1's escalation to class X must fail,
     but its instance locking continues. *)
  Alcotest.(check bool) "t2 holds a leaf" true
    (Tx.lock_instance manager t2 (List.nth leaves 5) Protocol.Update = `Granted);
  List.iteri
    (fun i leaf ->
      if i < 5 then
        Alcotest.(check bool)
          (Printf.sprintf "t1 lock %d" i)
          true
          (Tx.lock_instance manager t1 leaf Protocol.Update = `Granted))
    leaves;
  Alcotest.(check (list Alcotest.string)) "no escalation under contention" []
    (Tx.escalated manager t1);
  ignore (Tx.commit manager t1 : int list);
  ignore (Tx.commit manager t2 : int list)

(* Scheduler -------------------------------------------------------------------- *)

let test_scheduler_serial_equivalence () =
  (* Two writers of the same composite object must serialize; the
     mutations both apply. *)
  let forest = Part_gen.generate ~roots:1 { Part_gen.default with depth = 1; seed = 3 } in
  let db = forest.Part_gen.db in
  let root = List.hd forest.Part_gen.roots in
  let manager = Tx.create db in
  let counter = ref 0 in
  let script =
    [
      Scheduler.Lock_composite (root, Protocol.Update);
      Scheduler.Mutate (fun _ -> incr counter);
    ]
  in
  let result = Scheduler.run manager [ script; script; script ] in
  Alcotest.(check int) "all commit" 3 result.Scheduler.committed;
  Alcotest.(check int) "all mutations ran" 3 !counter;
  Alcotest.(check bool) "serialization caused blocking" true
    (result.Scheduler.blocks > 0);
  check_integrity db

let test_scheduler_deadlock_recovery () =
  (* Distinct root and component classes: with a self-referential class
     the protocol already serializes updates at the class level (IX vs
     IXO on the same granule), so no deadlock could arise. *)
  let db = fixture () in
  let r1 = Object_manager.create db ~cls:"Node" () in
  let r2 = Object_manager.create db ~cls:"Node" () in
  ignore (Object_manager.create db ~cls:"Leaf" ~parents:[ (r1, "Kids") ] () : Oid.t);
  ignore (Object_manager.create db ~cls:"Leaf" ~parents:[ (r2, "Kids") ] () : Oid.t);
  let manager = Tx.create db in
  (* Opposite lock orders: classic deadlock. *)
  let s1 =
    [
      Scheduler.Lock_composite (r1, Protocol.Update);
      Scheduler.Lock_composite (r2, Protocol.Update);
    ]
  in
  let s2 =
    [
      Scheduler.Lock_composite (r2, Protocol.Update);
      Scheduler.Lock_composite (r1, Protocol.Update);
    ]
  in
  let result = Scheduler.run manager [ s1; s2 ] in
  Alcotest.(check int) "both eventually commit" 2 result.Scheduler.committed;
  Alcotest.(check bool) "a deadlock was broken" true (result.Scheduler.deadlocks >= 1);
  check_integrity db

let test_trace_generators_complete () =
  let forest = Part_gen.generate ~roots:4 { Part_gen.default with depth = 2; seed = 9 } in
  let db = forest.Part_gen.db in
  let config = { Trace_gen.default with txs = 8; ops_per_tx = 2 } in
  let run scripts =
    let manager = Tx.create db in
    Scheduler.run manager scripts
  in
  let c = run (Trace_gen.composite_scripts db ~roots:forest.Part_gen.roots config) in
  Alcotest.(check int) "composite trace commits" 8 c.Scheduler.committed;
  let i = run (Trace_gen.instance_scripts db ~roots:forest.Part_gen.roots config) in
  Alcotest.(check int) "instance trace commits" 8 i.Scheduler.committed

(* Property: interleaved create/delete transactions with random
   aborts leave the database consistent. *)
let prop_abort_consistency =
  QCheck.Test.make ~name:"random commit/abort keeps integrity" ~count:40
    QCheck.(make Gen.(list_size (int_bound 20) (pair bool (int_bound 3))))
    (fun plan ->
      let db = fixture () in
      let manager = Tx.create db in
      let survivors = ref [] in
      List.iter
        (fun (do_commit, kids) ->
          let tx = Tx.begin_tx manager in
          (try
             let node = Tx.create_object manager tx ~cls:"Node" () in
             for _ = 1 to kids do
               ignore
                 (Tx.create_object manager tx ~cls:"Leaf" ~parents:[ (node, "Kids") ] ()
                   : Oid.t)
             done;
             (* Also mutate a previously committed object. *)
             (match !survivors with
             | prev :: _ ->
                 let extra = Tx.create_object manager tx ~cls:"Leaf" () in
                 Tx.write_attr manager tx prev "Refs" (Value.VSet [ Value.Ref extra ])
             | [] -> ());
             if do_commit then begin
               ignore (Tx.commit manager tx : int list);
               survivors := node :: !survivors
             end
             else ignore (Tx.abort manager tx : int list)
           with Core_error.Error _ -> ignore (Tx.abort manager tx : int list)))
        plan;
      Integrity.check db = [])

(* Property: [Snapshot.extend] is first-capture-wins.  Over any
   interleaving of writes and extends, the oid comes back as freshly
   captured from exactly the first extend, that capture holds the value
   current at that moment, and restore brings that value back —
   regardless of every later write and re-extend. *)
let prop_extend_first_capture_wins =
  QCheck.Test.make ~name:"extend: first capture wins" ~count:100
    QCheck.(make Gen.(list_size (int_range 1 20) (pair small_nat bool)))
    (fun plan ->
      let db = fixture () in
      let leaf =
        Object_manager.create db ~cls:"Leaf" ~attrs:[ ("Tag", Value.Int (-1)) ] ()
      in
      let snap = Snapshot.take db [] in
      let first = ref None in
      let fresh_total = ref 0 in
      List.iter
        (fun (v, do_extend) ->
          Object_manager.write_attr db leaf "Tag" (Value.Int v);
          if do_extend then
            match Snapshot.extend snap db [ leaf ] with
            | [] -> ()
            | [ (oid, c) ] ->
                incr fresh_total;
                if !first = None then
                  first :=
                    Some
                      ( Oid.equal oid leaf,
                        Instance.attr c.Snapshot.image "Tag",
                        v )
            | _ :: _ :: _ -> fresh_total := 1000 (* impossible: one oid *))
        plan;
      Snapshot.restore snap db;
      match !first with
      | None -> !fresh_total = 0
      | Some (oid_ok, captured, v) ->
          oid_ok
          && !fresh_total = 1
          && captured = Some (Value.Int v)
          && Value.equal (Object_manager.read_attr db leaf "Tag") (Value.Int v))

let () =
  (* ORION_LOCKDEP=1: watch this suite's real lock traffic; install's
     exit hook fails the run on any discipline violation. *)
  Orion_analysis.Lockdep.install_from_env ();
  Alcotest.run "orion_tx"
    [
      ( "snapshots",
        [
          Alcotest.test_case "restore attrs" `Quick test_snapshot_restores_attrs;
          Alcotest.test_case "resurrect deleted" `Quick
            test_snapshot_resurrects_deleted;
          Alcotest.test_case "first capture wins" `Quick
            test_snapshot_first_capture_wins;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit" `Quick test_commit_keeps_changes;
          Alcotest.test_case "abort removes created" `Quick test_abort_removes_created;
          Alcotest.test_case "abort restores deletion" `Quick
            test_abort_restores_deleted_composite;
          Alcotest.test_case "abort restores writes" `Quick test_abort_restores_write;
          Alcotest.test_case "abort restores removal" `Quick
            test_abort_restores_remove_component;
          Alcotest.test_case "blocking and wakeup" `Quick test_blocking_and_wakeup;
          Alcotest.test_case "abort by id" `Quick test_abort_id;
          Alcotest.test_case "abort of blocked dequeues request" `Quick
            test_abort_blocked_dequeues_request;
          Alcotest.test_case "commit guards" `Quick
            test_commit_of_blocked_or_finished_raises;
          Alcotest.test_case "double abort idempotent" `Quick
            test_double_abort_is_idempotent;
          Alcotest.test_case "deadlock victim abort wakes survivor" `Quick
            test_deadlock_victim_abort_wakes_survivor;
          Alcotest.test_case "deadlock check due tracks blocks" `Quick
            test_deadlock_check_due;
          Alcotest.test_case "lock escalation" `Quick test_lock_escalation;
          Alcotest.test_case "escalation counts distinct instances" `Quick
            test_escalation_counts_distinct_instances;
          Alcotest.test_case "escalation denied under contention" `Quick
            test_escalation_denied_under_contention;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "serialization" `Quick test_scheduler_serial_equivalence;
          Alcotest.test_case "deadlock recovery" `Quick
            test_scheduler_deadlock_recovery;
          Alcotest.test_case "trace generators" `Quick test_trace_generators_complete;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_abort_consistency;
          QCheck_alcotest.to_alcotest prop_extend_first_capture_wins;
        ] );
    ]
