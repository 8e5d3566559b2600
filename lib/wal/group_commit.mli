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
    longer be aborted.  [notify] is called exactly once from the
    committer thread with the outcome; the reactor then finishes the
    transaction ([complete_commit] / [commit_failed]) and replies to
    the client.  Durability rule unchanged: the client sees the commit
    acknowledged only after the batch's sync returned.  The network
    server has one committer whenever a log is attached. *)

type t

val create :
  window:float ->
  ?on_sealed:(clock:int -> Wal_record.t list -> unit) ->
  Wal.t ->
  t
(** Start the committer thread.  [window] (seconds) is how long the
    committer holds a batch open for stragglers after the first commit
    arrives; [0.] flushes as soon as the committer is free.
    [on_sealed] runs on the committer thread right after a batch's seal
    became durable and {e before} any member is notified, with the
    batch's seal clock and every member's records: the MVCC version
    store publishes there, so the whole batch becomes visible to
    snapshot readers atomically, no later than its locks release.  It
    must not raise. *)

val submit :
  t ->
  tx:int ->
  records:Wal_record.t list ->
  next_oid:int ->
  clock:int ->
  cc:int ->
  eager:bool ->
  notify:(ok:bool -> err:string -> unit) ->
  unit
(** Enqueue one commit.  [eager] asserts no other in-flight transaction
    could join the batch (the submitter holds the service lock and sees
    every open transaction), letting the committer skip the window —
    group commit then adds no latency to a lone client.  [notify] runs
    on the committer thread and must only hand the outcome off (e.g.
    post to a shard inbox).
    @raise Invalid_argument after {!shutdown}/{!kill}. *)

val quiescent : t -> bool
(** No commit is submitted but not yet durable (nor a batch being
    flushed right now) — checkpoints must only run here. *)

val shutdown : t -> unit
(** Drain: flush any pending batch, then stop and join the committer
    thread.  Part of graceful server stop. *)

val kill : t -> unit
(** Simulated kill -9: stop without flushing — submitted-but-unsynced
    commits are lost, exactly as un-acknowledged commits should be. *)
