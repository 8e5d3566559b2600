open Orion_core
module Lock_table = Orion_locking.Lock_table
module Lock_mode = Orion_locking.Lock_mode
module Protocol = Orion_locking.Protocol
module Obs = Orion_obs.Metrics
module Version_store = Orion_mvcc.Version_store
module Snapshot_read = Orion_mvcc.Snapshot_read

type state = Active | Blocked | Committing | Committed | Aborted

type tx = {
  id : int;
  mutable tx_state : state;
  snapshot : Snapshot.t;
  mutable created : Oid.t list;
  instance_locks : (string * Protocol.access, unit Oid.Tbl.t) Hashtbl.t;
      (* distinct instances locked per (class, access), for escalation *)
  mutable escalated_classes : (string * Protocol.access) list;
}

type t = {
  db : Database.t;
  table : Lock_table.t;
  mutable generation : int;
      (* bumped whenever a request blocks — the only event that can add
         a waits-for edge *)
  mutable searched : int;  (* the generation last searched clean *)
  txs : (int, tx) Hashtbl.t;
  mutable next_tx : int;
  escalation_threshold : int option;
  wal : Orion_wal.Wal.t option;
  mvcc : Version_store.t;
  escalations : Obs.counter;
  acquire_hist : Obs.histogram;
}

(* A read-only snapshot transaction: no lock-table entries, no undo —
   just a registered view into the version store at its begin clock. *)
type snapshot_tx = { snap_id : int; view : Snapshot_read.t }

let create ?compat ?escalation_threshold ?wal db =
  let table = Lock_table.create ?compat () in
  Lock_table.set_classifier table (fun oid ->
      Option.map (fun i -> i.Instance.cls) (Database.find db oid));
  {
    db;
    table;
    generation = 0;
    searched = 0;
    txs = Hashtbl.create 16;
    next_tx = 0;
    escalation_threshold;
    wal;
    mvcc = Version_store.create db;
    escalations = Obs.counter "tx.escalations";
    acquire_hist = Obs.histogram "lock.acquire_seconds";
  }

let database t = t.db

let lock_table t = t.table
let version_store t = t.mvcc

(* Runnable transactions: [Active] only — neither parked on a lock nor
   submitted to the group committer.  The committer's eager heuristic
   keys off this (a blocked transaction cannot join a commit batch). *)
let active_count t =
  Hashtbl.fold
    (fun _ tx n -> if tx.tx_state = Active then n + 1 else n)
    t.txs 0

let begin_tx t =
  let id = t.next_tx in
  t.next_tx <- id + 1;
  let tx =
    {
      id;
      tx_state = Active;
      snapshot = Snapshot.take t.db [];
      created = [];
      instance_locks = Hashtbl.create 8;
      escalated_classes = [];
    }
  in
  Hashtbl.replace t.txs id tx;
  tx

let tx_id tx = tx.id
let state tx = tx.tx_state

(* Locking ------------------------------------------------------------------ *)

let acquire_set t tx locks =
  match
    Obs.Span.time ~histogram:t.acquire_hist "lock.acquire" (fun () ->
        Protocol.acquire_all t.table ~tx:tx.id locks)
  with
  | `Granted ->
      tx.tx_state <- Active;
      `Granted
  | `Blocked _ ->
      t.generation <- t.generation + 1;
      tx.tx_state <- Blocked;
      `Blocked

let lock_composite t tx ~root access =
  acquire_set t tx (Protocol.composite_object_locks t.db ~root access)

(* Escalation: at the threshold, trade n instance locks for one
   whole-class lock (classic multi-granularity escalation; §7's
   protocols make the class granule available for exactly this). *)
let escalation_mode access =
  match access with Protocol.Read_ -> Lock_mode.S | Protocol.Update -> Lock_mode.X

let covers_access held wanted =
  match (held, wanted) with
  | _, Protocol.Read_ -> true
  | Protocol.Update, Protocol.Update -> true
  | Protocol.Read_, Protocol.Update -> false

let lock_instance t tx oid access =
  let cls = Database.class_of t.db oid in
  if
    List.exists
      (fun (c, held) -> String.equal c cls && covers_access held access)
      tx.escalated_classes
  then begin
    tx.tx_state <- Active;
    `Granted
  end
  else begin
    let result = acquire_set t tx (Protocol.instance_locks t.db oid access) in
    (match (result, t.escalation_threshold) with
    | `Granted, Some threshold ->
        let key = (cls, access) in
        (* Count distinct instances, not acquisitions: re-locking one
           hot object must not creep toward the threshold, or a
           whole-class lock replaces a single-instance lock and
           strangles unrelated readers of the class. *)
        let oids =
          match Hashtbl.find_opt tx.instance_locks key with
          | Some oids -> oids
          | None ->
              let oids = Oid.Tbl.create 8 in
              Hashtbl.replace tx.instance_locks key oids;
              oids
        in
        Oid.Tbl.replace oids oid ();
        if
          Oid.Tbl.length oids >= threshold
          && Lock_table.try_acquire t.table ~tx:tx.id (Lock_table.G_class cls)
               (escalation_mode access)
        then begin
          tx.escalated_classes <- key :: tx.escalated_classes;
          Obs.incr t.escalations
        end
    | (`Granted | `Blocked), _ -> ());
    result
  end

let escalated _t tx =
  List.sort_uniq String.compare (List.map fst tx.escalated_classes)

(* Undo capture -------------------------------------------------------------- *)

(* Close a touched set over version bookkeeping: a version instance
   drags in its generic and every sibling version (a cascade may delete
   the whole versionable object). *)
let with_generics db oids =
  let extra =
    List.concat_map
      (fun oid ->
        match Database.find db oid with
        | None -> []
        | Some inst -> (
            let family goid =
              match Database.find db goid with
              | Some g -> (
                  match Instance.generic_info g with
                  | Some gi -> goid :: gi.versions
                  | None -> [ goid ])
              | None -> []
            in
            match inst.Instance.kind with
            | Instance.Version vi -> family vi.generic
            | Instance.Generic _ -> family oid
            | Instance.Plain -> []))
      oids
  in
  List.sort_uniq Oid.compare (oids @ extra)

(* Extend the undo snapshot and, for each object captured for the first
   time by this transaction, seed the version store's chain with the
   committed pre-image (under strict 2PL the first capture happens
   before this transaction's writes, and no other writer holds the
   object).  Pinned until [finish] settles the transaction. *)
let capture t tx oids =
  let fresh = Snapshot.extend tx.snapshot t.db (with_generics t.db oids) in
  List.iter
    (fun (oid, (c : Snapshot.capture)) ->
      Version_store.note_base ~tx:tx.id t.mvcc oid
        (Some { Version_store.inst = c.image; rrefs = c.rrefs }))
    fresh

let value_refs_of db oid attr =
  match Database.find db oid with
  | None -> []
  | Some inst -> (
      match Instance.attr inst attr with Some v -> Value.refs v | None -> [])

(* Updates -------------------------------------------------------------------- *)

let create_object t tx ~cls ?(parents = []) ?(attrs = []) () =
  capture t tx
    (List.map fst parents @ List.concat_map (fun (_, v) -> Value.refs v) attrs);
  let oid = Object_manager.create t.db ~cls ~parents ~attrs () in
  (* A versionable create also made a generic instance; track both. *)
  let created =
    match Database.find t.db oid with
    | Some inst -> (
        match Instance.version_info inst with
        | Some vi -> [ oid; vi.generic ]
        | None -> [ oid ])
    | None -> [ oid ]
  in
  tx.created <- created @ tx.created;
  (* Creations chain from absence: a snapshot older than the commit
     must not see the object (nor the uncommitted live one). *)
  List.iter (fun o -> Version_store.note_base ~tx:tx.id t.mvcc o None) created;
  oid

let write_attr t tx oid attr value =
  capture t tx ((oid :: value_refs_of t.db oid attr) @ Value.refs value);
  Object_manager.write_attr t.db oid attr value

let make_component t tx ~parent ~attr ~child =
  capture t tx [ parent; child ];
  Object_manager.make_component t.db ~parent ~attr ~child

let remove_component t tx ~parent ~attr ~child =
  (* Removal may cascade a deletion into the child's components. *)
  capture t tx
    ((parent :: child :: Traversal.components_of t.db child)
    @ Traversal.parents_of t.db child);
  Object_manager.remove_component t.db ~parent ~attr ~child

let delete_object t tx oid =
  let comps = oid :: Traversal.components_of t.db oid in
  let touched = comps @ List.concat_map (fun o -> Traversal.parents_of t.db o) comps in
  capture t tx touched;
  Object_manager.delete t.db oid

(* Completion ------------------------------------------------------------------ *)

let finish t tx state =
  tx.tx_state <- state;
  (* Unpin the version chains this transaction held open (its commit,
     if any, already published — the committer publishes before it
     notifies, and [commit] publishes before it finishes). *)
  Version_store.settle t.mvcc ~tx:tx.id;
  (* Releasing also dequeues any lock request the transaction still has
     queued, so finishing a [Blocked] transaction (deadlock victim,
     wire-level cancel or lock timeout) leaves no orphan waiter to be
     granted later. *)
  let unblocked = Lock_table.release_all t.table ~tx:tx.id in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.txs id with
      | Some other when other.tx_state = Blocked -> other.tx_state <- Active
      | Some _ | None -> ())
    unblocked;
  (* A finished transaction can never be woken again; dropping it keeps
     the manager's footprint flat across a long-running server. *)
  Hashtbl.remove t.txs tx.id;
  unblocked

let validate_commitable tx =
  match tx.tx_state with
  | Active -> ()
  | Blocked -> invalid_arg "Tx_manager.commit: transaction is blocked on a lock"
  | Committing ->
      invalid_arg "Tx_manager.commit: commit already submitted"
  | Committed | Aborted ->
      invalid_arg "Tx_manager.commit: transaction already finished"

(* Nothing captured, nothing created: the transaction changed no
   object, so its commit has nothing to log, seal or publish. *)
let read_only tx = tx.created = [] && Snapshot.is_empty tx.snapshot

(* Group-commit split of [commit]: capture the after-image records now
   (while the workspace still holds this transaction's writes) and park
   the transaction in [Committing] until the batch sync settles.  The
   point of no return for abort: locks stay held (strict 2PL across the
   sync), and only the committer's verdict finishes the transaction. *)
let submit_commit t tx =
  validate_commitable tx;
  let records =
    Orion_wal.Wal.commit_records t.db ~tx:tx.id
      ~touched:(Snapshot.captured tx.snapshot @ tx.created)
  in
  (* Each submission claims its own clock, so batch seals (the max of
     their members') are strictly increasing and a group's records all
     publish at its one seal clock — atomic visibility for snapshots. *)
  let clock = Database.tick t.db in
  let next_oid, _ = Database.counters t.db in
  let cc = Database.current_cc t.db in
  tx.tx_state <- Committing;
  (records, (next_oid, clock, cc))

let complete_commit t tx =
  (match tx.tx_state with
  | Committing -> ()
  | _ -> invalid_arg "Tx_manager.complete_commit: no commit in flight");
  finish t tx Committed

let commit_failed t tx =
  (match tx.tx_state with
  | Committing -> ()
  | _ -> invalid_arg "Tx_manager.commit_failed: no commit in flight");
  (* The log never sealed the batch, so durably the transaction never
     happened — roll the workspace back to match (same order as abort:
     restore before removing creations). *)
  Snapshot.restore tx.snapshot t.db;
  List.iter
    (fun oid -> if Database.exists t.db oid then Database.remove t.db oid)
    tx.created;
  finish t tx Aborted

(* Durability point: the group committer's protocol run inline — the
   after-images reach the log, sealed by a commit record, before any
   lock is released.  No log attached — in-memory semantics, commit is
   lock release.  Either way the commit claims a fresh clock
   (visibility point for snapshot reads) and publishes its after-images
   to the version store before locks drop. *)
let commit t tx =
  validate_commitable tx;
  if read_only tx then
    (* Commit is lock release: no record, no sync, no clock tick.
       Strict 2PL makes that safe — every writer holds its locks across
       its own sync, so whatever this transaction read was durable. *)
    finish t tx Committed
  else
    match t.wal with
    | Some wal -> (
        let records, (next_oid, clock, cc) = submit_commit t tx in
        match
          Orion_wal.Wal.log_batch wal ~records
            ~seal:(Orion_wal.Wal_record.Commit { tx = tx.id; next_oid; clock; cc })
        with
        | () ->
            Version_store.publish_records t.mvcc ~clock records;
            complete_commit t tx
        | exception e ->
            ignore (commit_failed t tx : int list);
            raise e)
    | None ->
        let clock = Database.tick t.db in
        Version_store.publish t.mvcc ~clock
          (List.map
             (fun oid ->
               match Database.find t.db oid with
               | Some inst ->
                   ( oid,
                     Some
                       {
                         Version_store.inst = Instance.copy inst;
                         rrefs = Database.rrefs t.db oid;
                       } )
               | None -> (oid, None))
             (List.sort_uniq Oid.compare
                (Snapshot.captured tx.snapshot @ tx.created)));
        finish t tx Committed

let abort t tx =
  match tx.tx_state with
  | Committed | Aborted ->
      (* Idempotent: a second abort (say a client cancel racing the
         deadlock detector) must not restore the stale snapshot over
         state other transactions have since committed. *)
      []
  | Committing ->
      (* Past the point of no return: the batch may already be durable.
         The committer's notification decides the outcome; meanwhile
         there is nothing to release. *)
      []
  | Active | Blocked ->
      (* Restore first: an object created by this transaction may have
         been captured by a later operation's snapshot, and restoring it
         after removal would resurrect it. *)
      Snapshot.restore tx.snapshot t.db;
      List.iter
        (fun oid -> if Database.exists t.db oid then Database.remove t.db oid)
        tx.created;
      finish t tx Aborted

let abort_id t id =
  match Hashtbl.find_opt t.txs id with Some tx -> abort t tx | None -> []

let deadlock_check_due t = t.generation <> t.searched

(* Searches only when a request has blocked since the last clean
   search.  A found cycle leaves the mark alone, so the search reruns
   after the victim's abort. *)
let find_deadlock t =
  if not (deadlock_check_due t) then None
  else
    match Lock_table.find_deadlock t.table with
    | Some _ as cycle -> cycle
    | None ->
        t.searched <- t.generation;
        None

(* Snapshot transactions ------------------------------------------------------ *)

(* Read-only transactions against the version store: no entry in the
   lock table (by construction — nothing below touches [t.table]), no
   undo snapshot, no slot in [t.txs].  The id comes from the shared
   counter so it can never collide with a 2PL transaction's. *)

let begin_snapshot t =
  let id = t.next_tx in
  t.next_tx <- id + 1;
  let clock = Version_store.open_snap t.mvcc ~id in
  { snap_id = id; view = Snapshot_read.make ~store:t.mvcc ~db:t.db ~id ~clock }

let end_snapshot t snap = Version_store.close_snap t.mvcc ~id:snap.snap_id
let snapshot_id snap = snap.snap_id
let snapshot_clock snap = Snapshot_read.clock snap.view
let snapshot_view snap = snap.view
