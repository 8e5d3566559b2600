(** Group commit: one WAL sync for many commits.

    PR2 measured the WAL at ~1.2x per-commit overhead, almost all of it
    in the per-commit sync.  The committer amortizes it: commits
    submitted within a {e batching window} are written as one batch —
    every member's after-image records, one sealing record, one
    {!Wal.sync}.

    {2 Crash safety}

    A batch of K > 1 commits is sealed by a single
    {!Wal_record.Commit_group} record.  Until the seal is on the log,
    none of the members' [Obj_*] records are covered by any commit
    record, so a crash (or torn write) anywhere inside the batch
    replays as {e zero} commits — the PR2 redo-only invariant, never a
    partial batch.  A batch of one seals with a plain
    {!Wal_record.Commit}, byte-identical to
    {!Orion_tx.Tx_manager.commit} on a logged manager.

    {2 Protocol}

    The submitting reactor must have moved the transaction into the
    [Committing] state ({!Orion_tx.Tx_manager.submit_commit}) first:
    its locks stay held — strict 2PL across the sync — and it can no
    longer be aborted.  Once a batch's sync returned (or failed), the
    committer posts the whole batch once, from its own thread: every
    member's token, the seal clock and the records.  The reactor then
    publishes the batch to the MVCC version store at that one clock and
    only afterwards finishes each member ([complete_commit] /
    [commit_failed]) and replies — so a batch becomes visible to
    snapshots atomically and before its locks release.  Durability rule
    unchanged: the client sees the commit acknowledged only after the
    batch's sync returned.  The network server has one committer
    whenever a log is attached. *)

type 'a t
(** A committer whose submitters identify their commits by an ['a]
    token (the server uses the session and the transaction). *)

type 'a batch = {
  members : 'a list;  (** submission order *)
  clock : int;  (** the seal clock: the largest member clock *)
  records : Wal_record.t list;  (** every member's records, in order *)
  outcome : (unit, string) result;
      (** [Error] carries {!Wal.failure_message} of the failed write *)
}

val create : window:float -> post:('a batch -> unit) -> Wal.t -> 'a t
(** Start the committer thread.  [window] (seconds) is how long the
    committer holds a batch open for stragglers after the first commit
    arrives; [0.] flushes as soon as the committer is free.  [post]
    runs on the committer thread once per flushed batch and must only
    hand it off (e.g. push to the reactor's inbox); it must not
    raise. *)

val submit :
  'a t ->
  tx:int ->
  records:Wal_record.t list ->
  next_oid:int ->
  clock:int ->
  cc:int ->
  eager:bool ->
  member:'a ->
  unit
(** Enqueue one commit.  [eager] asserts no other in-flight transaction
    could join the batch (the submitter sees every open transaction),
    letting the committer skip the window — group commit then adds no
    latency to a lone client.  [member] comes back in the batch's
    {!batch.members}.
    @raise Invalid_argument after {!shutdown}/{!kill}. *)

val quiescent : 'a t -> bool
(** No commit is submitted but not yet durable (nor a batch being
    flushed right now) — checkpoints must only run here. *)

val shutdown : 'a t -> unit
(** Drain: flush any pending batch, then stop and join the committer
    thread.  Part of graceful server stop. *)

val kill : 'a t -> unit
(** Simulated kill -9: stop without flushing — submitted-but-unsynced
    commits are lost, exactly as un-acknowledged commits should be. *)
