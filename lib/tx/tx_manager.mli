(** Transactions over the composite-object store.

    Strict two-phase locking against {!Orion_locking.Lock_table} using
    the §7 protocols, with snapshot-based undo: each update operation
    captures the objects it may touch before mutating, and abort
    restores them.  This is a single-process simulation — [`Blocked]
    results park the transaction rather than suspend a thread; the
    {!Scheduler} drives interleavings for the concurrency benchmarks.

    A manager and its one lock table are not thread-safe: the caller
    serialises every call.  The network server makes every call from
    its reactor thread (the lock table has no mutex of its own). *)

open Orion_core

type t

type tx

type state = Active | Blocked | Committing | Committed | Aborted
(** [Committing]: the commit has been submitted to the group-commit
    batcher ({!submit_commit}) and awaits the batch sync.  Locks stay
    held — strict 2PL across the durability point — and the transaction
    can no longer be aborted; {!complete_commit}/{!commit_failed} settle
    it when the committer reports. *)

val create :
  ?compat:(Orion_locking.Lock_mode.t -> Orion_locking.Lock_mode.t -> bool) ->
  ?escalation_threshold:int ->
  ?wal:Orion_wal.Wal.t ->
  Database.t ->
  t
(** [?escalation_threshold]: when a transaction accumulates that many
    instance locks on one class, the manager opportunistically upgrades
    to a whole-class S/X lock ({!Orion_locking.Lock_table.try_acquire});
    further instance locks on the class are then free.  Default: no
    escalation.

    [?wal]: a write-ahead log ({!Orion_wal.Wal.attach}ed to the same
    database).  Each {!commit} then appends the transaction's
    after-images and a commit record before releasing locks, making the
    commit durable for {!Orion_wal.Recovery.replay}.  Default: no
    logging (in-memory transaction semantics). *)

val database : t -> Database.t

val lock_table : t -> Orion_locking.Lock_table.t

val active_count : t -> int
(** Open transactions in [Active] state — runnable, neither parked on a
    lock nor submitted to the group committer. *)

val version_store : t -> Orion_mvcc.Version_store.t
(** The MVCC version store every commit publishes into (directly, or —
    under group commit — by the server's reactor when the batch comes
    back sealed; a replica's stream feeds its server's store too).
    Snapshot transactions read from it. *)

val begin_tx : t -> tx
val tx_id : tx -> int
val state : tx -> state

(** {1 Locking}

    Lock acquisition returns [`Blocked] when the request queues; the
    transaction is then parked until a release unblocks it. *)

val lock_composite :
  t -> tx -> root:Oid.t -> Orion_locking.Protocol.access -> [ `Granted | `Blocked ]

val lock_instance :
  t -> tx -> Oid.t -> Orion_locking.Protocol.access -> [ `Granted | `Blocked ]

val escalated : t -> tx -> string list
(** Classes on which the transaction's instance locks escalated to a
    class lock. *)

(** {1 Updates with undo} *)

val create_object :
  t ->
  tx ->
  cls:string ->
  ?parents:(Oid.t * string) list ->
  ?attrs:(string * Value.t) list ->
  unit ->
  Oid.t

val write_attr : t -> tx -> Oid.t -> string -> Value.t -> unit

val make_component : t -> tx -> parent:Oid.t -> attr:string -> child:Oid.t -> unit

val remove_component : t -> tx -> parent:Oid.t -> attr:string -> child:Oid.t -> unit

val delete_object : t -> tx -> Oid.t -> unit

(** {1 Completion} *)

val read_only : tx -> bool
(** The transaction has changed no object so far: nothing captured for
    undo, nothing created.  Its commit writes no log record. *)

val commit : t -> tx -> int list
(** Log the after-images and a [Commit] seal, sync, publish, then
    release locks; returns transactions unblocked by the release.  On a
    logged manager this is the group-commit protocol run inline on the
    caller's thread — {!submit_commit}, {!Orion_wal.Wal.log_batch},
    publish, {!complete_commit} — so its log bytes are identical to a
    committer's batch of one.  A {!read_only} transaction only releases
    its locks: no record, no sync, no clock tick.
    @raise Invalid_argument on a [Blocked] transaction (its lock
    request is still queued — commit would break two-phase locking) or
    an already-finished one.  A log failure propagates after
    {!commit_failed} has undone the workspace and finished the
    transaction [Aborted]; a later {!abort} is a no-op. *)

val submit_commit : t -> tx -> Orion_wal.Wal_record.t list * (int * int * int)
(** Group-commit first half: capture the transaction's after-image
    records and the database counters [(next_oid, clock, cc)] it would
    seal with, and move it to [Committing].  The caller hands the
    records to {!Orion_wal.Group_commit.submit} and must finish the
    transaction with {!complete_commit} or {!commit_failed} once the
    committer reports.  Raises as {!commit} on a non-[Active]
    transaction. *)

val complete_commit : t -> tx -> int list
(** The batch sync succeeded: release locks, finish [Committed].
    Returns unblocked transactions, like {!commit}. *)

val commit_failed : t -> tx -> int list
(** The batch never became durable (the log crashed before the seal):
    undo the workspace and finish [Aborted].  Returns unblocked
    transactions. *)

val abort : t -> tx -> int list
(** Undo every update of the transaction (newest first), release locks
    — including any still-queued lock request of a [Blocked]
    transaction, which is dequeued without ever being granted; returns
    unblocked transactions.  Aborting an already-finished transaction
    is a no-op (the undo must not clobber state committed since). *)

val abort_id : t -> int -> int list
(** {!abort} by transaction id, for supervisors that hold ids rather
    than handles (the network server's deadlock breaker, which must be
    able to finish a victim whose owning session is already gone).
    Unknown or already-finished ids return [[]]. *)

val find_deadlock : t -> int list option
(** A cycle in the waits-for graph.  Incremental: returns [None]
    without searching unless a request has blocked since the last
    search that found nothing. *)

val deadlock_check_due : t -> bool
(** Whether a request has blocked since the last clean search — i.e.
    whether {!find_deadlock} could possibly find anything (one
    generation counter against the clean mark). *)

(** {1 Snapshot transactions}

    Read-only transactions that skip the lock table entirely: reads
    resolve against the MVCC version store at the begin clock (the
    sealed clock of the last published commit), so concurrent writers
    neither block them nor are blocked by them, and a group-commit
    batch is visible all-or-none.  They take no undo snapshot and
    cannot write. *)

type snapshot_tx

val begin_snapshot : t -> snapshot_tx
(** Open a snapshot at the current sealed clock.  Pins version-store
    chains against GC until {!end_snapshot}. *)

val end_snapshot : t -> snapshot_tx -> unit
(** Close the snapshot and let the version store prune.  Idempotent. *)

val snapshot_id : snapshot_tx -> int
val snapshot_clock : snapshot_tx -> int

val snapshot_view : snapshot_tx -> Orion_mvcc.Snapshot_read.t
(** The read view: attribute fetch and [components-of]/[ancestors-of]
    traversals at the snapshot's clock. *)
