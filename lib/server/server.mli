(** The network server: one reactor serving many clients over one
    database.

    The reactor is a single-threaded select loop: it owns the listener
    and the session table, multiplexes every connection with
    [Unix.select], and never blocks a thread on a database lock.  The
    transactional core (database, lock table, transaction bookkeeping)
    sits behind one service mutex, taken once per tick around the whole
    dispatch batch ([txsvc.*] instruments measure what it costs).
    Besides the reactor, two threads run: the group committer (below)
    and, on a replica, the applier that mirrors the primary's log.  A
    primary's log tailer has no thread of its own; the reactor pumps it
    for each subscribed replica.

    Each connection is a {e session} holding at most one open
    {!Orion_tx.Tx_manager} transaction.  A lock request that comes back
    [`Blocked] {e parks} the session — the request is left queued in the
    lock table, no reply is sent, and the reactor moves on.  When
    another session's commit or abort unblocks the transaction, the
    reactor re-polls the parked request and answers [Granted].  Deadlock cycles are broken by
    aborting the youngest transaction in the cycle; the victim's session
    is told with a [Deadlock_victim] push (plus a [Conflict] error reply
    if it was parked) and can retry.

    Group commit: with a log attached — from start-up, or from a
    replica's promotion — every write commit is submitted to the
    batching committer; the reactor never syncs a commit itself.
    Commits that arrive within [group_commit_window] coalesce into one
    log append + one [fsync], sealed by a single commit-group record —
    all-or-none on replay, so a crash mid-batch aborts the whole batch
    (see {!Orion_wal.Group_commit}).  A read-only commit, or any commit
    without a log, is lock release.  Locks stay held across the batch
    sync (strict 2PL); the client's commit reply is sent only after the
    sync, so an acknowledged commit is always durable.  The committer
    thread hands each verdict back through the reactor's inbox.

    Admission control: at most [max_sessions] concurrent sessions
    (excess connections are refused with
    [Too_many_sessions]); at most [queue_limit] decoded-but-unprocessed
    requests per session, after which the reactor stops reading the
    socket (TCP backpressure).  A session parked longer than
    [lock_timeout] has its transaction aborted and gets a [Timeout]
    error; a session idle longer than [idle_timeout] is closed.

    {!stop} drains the server: no new connections, every session gets a
    [Goodbye] push, open transactions are aborted, in-flight group
    commits are flushed to the log, buffered replies are flushed, and
    {!run} returns — the caller then checkpoints the database
    ({!Orion_core.Persist.save}) and retires the log, exactly like a
    clean CLI exit.  {!kill} makes {!run} return without any of that —
    it simulates a crash for recovery tests. *)

type addr = Orion_protocol.Addr.t = Tcp of string * int | Unix_path of string

val pp_addr : Format.formatter -> addr -> unit

val parse_addr : string -> addr
(** See {!Orion_protocol.Addr.parse}: ["host:port"], [":port"]
    (localhost), a bare port number, or a filesystem path (anything
    containing [/]) as a Unix-domain socket.
    @raise Invalid_argument on none of those. *)

type config = Shard.config = {
  max_sessions : int;  (** admission bound (default 64) *)
  queue_limit : int;  (** per-session pending-request bound (default 16) *)
  idle_timeout : float option;  (** seconds; [None] = never (default) *)
  lock_timeout : float option;  (** max lock wait (default [Some 30.]) *)
  metrics_interval : float option;
      (** emit a one-line metrics digest to stderr this often;
          [None] = never (default) *)
  group_commit_window : float;
      (** seconds the group committer holds a batch open for
          stragglers; [0.] (default) flushes as soon as the committer
          is free.  Only effective with a log attached. *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?wal:Orion_wal.Wal.t ->
  ?repl:Tx_service.repl ->
  Orion_dsl.Eval.env ->
  addr ->
  t
(** Bind and listen.  The environment's database is the one served;
    its bindings ([setq] names) are shared by every session.  [?wal]
    is the log already attached to the database — write transactions
    commit through it via the group committer.  [?repl] is the replication
    role (default [Standalone]): a [Primary] tails its log for
    subscribed replicas, a [Replica_of] serves read-only sessions
    while its applier mirrors the primary (and can be promoted).
    @raise Unix.Unix_error when the address cannot be bound. *)

val address : t -> addr
(** The bound address — with [Tcp (host, 0)] the actual port. *)

val run : t -> unit
(** Run the reactor on the calling thread; returns after {!stop} or
    {!kill}, once the reactor has exited and the group committer (if
    any) has been settled.  Sets [SIGPIPE] to ignore. *)

val stop : t -> unit
(** Begin graceful shutdown.  Callable from a signal handler or
    another thread (it only writes to the reactor's wake pipe). *)

val kill : t -> unit
(** Make {!run} return as soon as possible without draining — the
    simulated [kill -9] for crash-recovery tests. *)

type stats = {
  accepted : int;
  rejected : int;  (** refused by admission control *)
  requests : int;  (** requests processed *)
  parks_total : int;  (** lifetime count of lock requests that parked *)
  parked : int;  (** gauge: sessions parked on a lock {e right now} *)
  deadlock_victims : int;
  lock_timeouts : int;
  idle_closes : int;
}

val stats : t -> stats

val session_count : t -> int

val service : t -> Tx_service.t
(** The shared transactional service (promotion state, service lock). *)

val role : t -> [ `Standalone | `Primary | `Replica ]
(** Current replication role — a node started as a replica reads
    [`Primary] once a [Promote] request lands. *)
