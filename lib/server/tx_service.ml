module Eval = Orion_dsl.Eval
module Tx = Orion_tx.Tx_manager
module Obs = Orion_obs.Metrics
module Group_commit = Orion_wal.Group_commit
module Tailer = Orion_replication.Tailer
module Replica = Orion_replication.Replica
open Orion_core

(* A commit submitted to the group committer, as the reactor knows it.
   The committer seals a batch of them on its own thread and posts the
   whole batch into the reactor's inbox; the reactor publishes it to
   the version store, then finishes each member. *)
type member = { sid : int; tx : Tx.tx }

type batch = member Group_commit.batch

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
  post : batch -> unit;  (* into the reactor's inbox, kept for promotion *)
  mutable gc : member Group_commit.t option;
      (* [Some] exactly when a log is attached: every write commit is
         made durable by this committer, never inline by the reactor *)
  mutable repl : repl;
  mutable read_only : bool;
  tx_owner : (int, int) Hashtbl.t;  (* tx id -> session id *)
  mutable schema_seen : int;
      (* Schema.version at the last checkpoint: schema DDL is
         non-transactional, so with a log attached it is only durable
         once a checkpoint absorbs it — taken as soon as the catalog
         changes and no transaction is open. *)
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

let create ?wal ~window ~post ?(repl = Standalone) env =
  let db = Eval.database env in
  (* The manager logs nothing: the committer is the durability point. *)
  let manager = Tx.create db in
  (match repl with
  | Replica_of { replica; _ } ->
      Replica.set_mvcc replica (Tx.version_store manager)
  | Standalone | Primary _ -> ());
  {
    env;
    db;
    manager;
    window;
    post;
    gc = Option.map (Group_commit.create ~window ~post) wal;
    repl;
    read_only = (match repl with Replica_of _ -> true | _ -> false);
    tx_owner = Hashtbl.create 32;
    schema_seen = Orion_schema.Schema.version (Database.schema db);
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

(* Transaction ownership. *)

let claim t ~tx_id ~sid = Hashtbl.replace t.tx_owner tx_id sid
let disown t ~tx_id = Hashtbl.remove t.tx_owner tx_id
let owner t ~tx_id = Hashtbl.find_opt t.tx_owner tx_id

let deadlock_check_due t = Tx.deadlock_check_due t.manager

(* Group commit helpers. *)

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
   transactions claimed until their batch is settled, so emptiness almost
   implies committer quiescence — the explicit check closes the gap. *)
let maybe_checkpoint t =
  let v = Orion_schema.Schema.version (Database.schema t.db) in
  if v <> t.schema_seen && Hashtbl.length t.tx_owner = 0 then
    match t.gc with
    | Some gc ->
        if Group_commit.quiescent gc then begin
          Orion_core.Persist.save t.db;
          t.schema_seen <- v
        end
    | None -> t.schema_seen <- v

(* Promote-on-demand, on the reactor between two requests, so no
   shipped batch is half applied.  Sequence: stop the stream; attach
   the local log to the serving database
   ([~truncate_on_checkpoint:false]: the log's byte offsets must stay
   valid — the promoted node is immediately a shippable primary) — the
   log is non-empty, so attach skips the base backup; start a group committer on the log, so the promoted node's
   write commits take the same durable path as any primary's; lift the
   read-only guards (Eval mutator, DDL gate); checkpoint once as a
   primary; and start tailing for downstream replicas of our own. *)
let promote t =
  match t.repl with
  | Standalone -> Error "not a replica (started without --replica-of)"
  | Primary _ -> Error "already a primary"
  | Replica_of { replica; promote_gate } ->
      Replica.stop replica;
      let wal = Replica.wal replica in
      Orion_wal.Wal.attach ~snapshot_path:(Replica.db_path replica)
        ~truncate_on_checkpoint:false wal t.db;
      t.gc <- Some (Group_commit.create ~window:t.window ~post:t.post wal);
      t.read_only <- false;
      Eval.set_mutator t.env None;
      Orion_schema.Schema.set_ddl_gate (Database.schema t.db) promote_gate;
      Orion_core.Persist.save t.db;
      t.schema_seen <- Orion_schema.Schema.version (Database.schema t.db);
      t.repl <- Primary (Tailer.create wal);
      Ok ()

let shutdown_committer ~killed t =
  match t.gc with
  | None -> ()
  | Some gc ->
      if killed then Group_commit.kill gc else Group_commit.shutdown gc
