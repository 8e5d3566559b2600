module Eval = Orion_dsl.Eval
module Tx = Orion_tx.Tx_manager
module Obs = Orion_obs.Metrics
module Omutex = Orion_util.Omutex
module Tailer = Orion_replication.Tailer
module Replica = Orion_replication.Replica
open Orion_core

(* Mail for the reactor thread.  The group committer settles a
   submitted commit on its own thread; the verdict travels into the
   reactor's inbox, and the reactor finishes the transaction under the
   service lock. *)
type peer_msg =
  | Commit_done of { sid : int; tx : Tx.tx; ok : bool; err : string }

(* Replication role.  [Primary] tails its log for subscribed replicas;
   [Replica_of] applies a primary's stream and refuses writes until
   {!promote} flips it into a [Primary].  [promote_gate] is the DDL
   gate the CLI configured for primaries, deferred until promotion
   (replicas run with an unconditionally-refusing gate instead). *)
type repl =
  | Standalone
  | Primary of Tailer.t
  | Replica_of of {
      replica : Replica.t;
      promote_gate : (Orion_schema.Schema.t -> unit) option;
    }

type t = {
  env : Eval.env;
  db : Database.t;
  manager : Tx.t;
  window : float;  (* group-commit window, kept for promotion *)
  mutable gc : Orion_wal.Group_commit.t option;
      (* [Some] exactly when a log is attached: every write commit is
         made durable by this committer, never inline by the reactor *)
  mutable repl : repl;
  mutable read_only : bool;
  mu : Omutex.t;
  tx_owner : (int, int) Hashtbl.t;  (* tx id -> session id *)
  mutable schema_seen : int;
      (* Schema.version at the last checkpoint: schema DDL is
         non-transactional, so with a log attached it is only durable
         once a checkpoint absorbs it — taken as soon as the catalog
         changes and no transaction is open. *)
  (* Service-lock contention: the proof (or refutation) that one mutex
     around the transactional core is not the new bottleneck. *)
  acquires : Obs.counter;
  contended : Obs.counter;
  lock_wait_seconds : Obs.histogram;
  lock_hold_seconds : Obs.histogram;
  (* Server-wide instruments. *)
  accepted : Obs.counter;
  rejected : Obs.counter;
  requests : Obs.counter;
  parks : Obs.counter;
  deadlock_victims : Obs.counter;
  lock_timeouts : Obs.counter;
  idle_closes : Obs.counter;
  lock_wait_hist : Obs.histogram;
  class_wait_hists : (string, Obs.histogram) Hashtbl.t;
  dispatch_hist : Obs.histogram;
}

let committer ~window manager wal =
  Orion_wal.Group_commit.create ~window
    ~on_sealed:(fun ~clock records ->
      Orion_mvcc.Version_store.publish_records (Tx.version_store manager)
        ~clock records)
    wal

let create ?wal ~window ?(repl = Standalone) env =
  let db = Eval.database env in
  (* The manager logs nothing: the committer is the durability point. *)
  let manager = Tx.create db in
  {
    env;
    db;
    manager;
    window;
    gc = Option.map (committer ~window manager) wal;
    repl;
    read_only = (match repl with Replica_of _ -> true | _ -> false);
    mu = Omutex.create Omutex.txsvc_core;
    tx_owner = Hashtbl.create 32;
    schema_seen = Orion_schema.Schema.version (Database.schema db);
    acquires = Obs.counter "txsvc.acquires";
    contended = Obs.counter "txsvc.contended";
    lock_wait_seconds = Obs.histogram "txsvc.wait_seconds";
    lock_hold_seconds = Obs.histogram "txsvc.hold_seconds";
    accepted = Obs.counter "server.accepted";
    rejected = Obs.counter "server.rejected";
    requests = Obs.counter "server.requests";
    parks = Obs.counter "server.parks_total";
    deadlock_victims = Obs.counter "server.deadlock_victims";
    lock_timeouts = Obs.counter "server.lock_timeouts";
    idle_closes = Obs.counter "server.idle_closes";
    lock_wait_hist = Obs.histogram "lock.wait_seconds";
    class_wait_hists = Hashtbl.create 16;
    dispatch_hist = Obs.histogram "server.dispatch_seconds";
  }

(* The serialization point of the transactional core: the database, the
   lock table (it has no mutex of its own) and the session-transaction
   bookkeeping ([tx_owner], group-commit submit, checkpoint policy).
   The reactor takes the core lock at most once per tick, and only on
   ticks that have work for it, dispatching its whole batch of ready
   requests under one hold; a replica's applier thread takes it around
   each applied batch.  The wait/hold histograms and the contended
   counter measure exactly what this mutex costs. *)
let with_lock t f =
  let t0 = Unix.gettimeofday () in
  if not (Omutex.try_lock t.mu) then begin
    Obs.incr t.contended;
    Omutex.lock t.mu
  end;
  Obs.incr t.acquires;
  let acquired = Unix.gettimeofday () in
  Obs.observe t.lock_wait_seconds (acquired -. t0);
  Fun.protect
    ~finally:(fun () ->
      Obs.observe t.lock_hold_seconds (Unix.gettimeofday () -. acquired);
      Omutex.unlock t.mu)
    f

(* Transaction ownership (under the service lock). *)

let claim t ~tx_id ~sid = Hashtbl.replace t.tx_owner tx_id sid
let disown t ~tx_id = Hashtbl.remove t.tx_owner tx_id
let owner t ~tx_id = Hashtbl.find_opt t.tx_owner tx_id
let open_txs t = Hashtbl.length t.tx_owner

let deadlock_check_due t = Tx.deadlock_check_due t.manager

(* Whether the catalog changed since the last checkpoint — the lock-free
   pre-check that lets an idle tick skip the core lock entirely.
   [maybe_checkpoint] re-reads both sides under the lock before acting. *)
let checkpoint_due t =
  Orion_schema.Schema.version (Database.schema t.db) <> t.schema_seen

(* Group commit helpers (under the service lock). *)

(* Nobody else can join the batch when no other transaction could still
   reach its commit point: waiting out the window would be pure added
   latency, so tell the committer to flush eagerly.  Only [Active]
   transactions count — a [Blocked] one is parked behind a lock the
   submitters still hold (strict 2PL keeps it parked across the
   durability point), and [Committing] ones are already in the batch.
   The submitter itself is [Committing] by the time this runs
   ({!Orion_tx.Tx_manager.submit_commit} first), so zero means solo. *)
let submit_is_eager t = Tx.active_count t.manager = 0

let class_wait_hist t cls =
  match Hashtbl.find_opt t.class_wait_hists cls with
  | Some h -> h
  | None ->
      let h = Obs.histogram (Obs.labeled "lock.wait_seconds" ("class", cls)) in
      Hashtbl.replace t.class_wait_hists cls h;
      h

(* Checkpoint policy, with one group-commit quiescence condition: a
   checkpoint's truncation must never race a batch mid-flush (its
   unsealed records would be cut out from under the seal).  [tx_owner] keeps [Committing]
   transactions claimed until their [Commit_done], so emptiness almost
   implies committer quiescence — the explicit check closes the gap. *)
let maybe_checkpoint t =
  let v = Orion_schema.Schema.version (Database.schema t.db) in
  if v <> t.schema_seen && Hashtbl.length t.tx_owner = 0 then
    match t.gc with
    | Some gc ->
        if Orion_wal.Group_commit.quiescent gc then begin
          Orion_core.Persist.save t.db;
          t.schema_seen <- v
        end
    | None -> t.schema_seen <- v

(* Promote-on-demand (under the service lock — that is what orders the
   flip against the applier's in-flight batch and against the reactor's
   dispatch).  Sequence: seal the applier; attach the local log to the
   serving database ([~truncate_on_checkpoint:false]: the log's byte
   offsets must stay valid — the promoted node is immediately a
   shippable primary) — the log is non-empty, so attach skips the base
   backup; start a group committer on the log, so the promoted node's
   write commits take the same durable path as any primary's; lift the
   read-only guards (Eval mutator, DDL gate); checkpoint once as a
   primary; and start tailing for downstream replicas of our own. *)
let promote t =
  match t.repl with
  | Standalone -> Error "not a replica (started without --replica-of)"
  | Primary _ -> Error "already a primary"
  | Replica_of { replica; promote_gate } ->
      if Replica.sealed replica then Error "promotion already in progress"
      else begin
        Replica.seal replica;
        let wal = Replica.wal replica in
        Orion_wal.Wal.attach ~snapshot_path:(Replica.db_path replica)
          ~truncate_on_checkpoint:false wal t.db;
        t.gc <- Some (committer ~window:t.window t.manager wal);
        t.read_only <- false;
        Eval.set_mutator t.env None;
        Orion_schema.Schema.set_ddl_gate (Database.schema t.db) promote_gate;
        Orion_core.Persist.save t.db;
        t.schema_seen <- Orion_schema.Schema.version (Database.schema t.db);
        t.repl <- Primary (Tailer.create wal);
        Ok ()
      end

let shutdown_committer ~killed t =
  match t.gc with
  | None -> ()
  | Some gc ->
      if killed then Orion_wal.Group_commit.kill gc
      else Orion_wal.Group_commit.shutdown gc
