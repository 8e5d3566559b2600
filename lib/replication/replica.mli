(** The replica side of WAL shipping: mirror the primary's log
    byte-for-byte, apply it incrementally, serve reads, and promote on
    demand.

    Shipped batches feed three layers at once:

    - the {e local log} — appended verbatim ({!Orion_wal.Wal.append_raw}),
      synced, then acknowledged, so the replica's [.wal] file is
      fsck-checkable and byte-identical to the primary's shipped prefix;
    - the {e mirror store} — physical records ([Page_write],
      directory ops) replayed exactly as
      {!Orion_wal.Recovery.rebuild_from} would, reproducing the
      primary's store image; saved to [db_path] at every sealed
      checkpoint (byte-identical to the primary's snapshot);
    - the {e serving database} — built by [Persist.load] from the
      mirror at the first sealed checkpoint, then kept fresh by commit
      records between checkpoints and a full catalog resync
      (instances, schema, counters) at each one.  Its instances never
      own record slots ([rid = None]): record lifecycle belongs to the
      physical stream alone.

    The stream survives primary restarts (redial with backoff,
    resubscribing from the local log's size) and replica restarts
    (local replay, then subscribe for the rest).  After {!bootstrap}
    the server's reactor drives the stream without ever blocking: it
    selects on the descriptors {!poll_fds} names and calls {!service}
    each tick.  {!stop} ends the stream for promotion. *)

type t

exception Fatal of string
(** Unrecoverable stream damage: a gap, a refused subscription, a
    checkpoint without a catalog, a failing local log.  During
    {!bootstrap} it propagates; under {!service} it is recorded in
    {!failed} and the stream stops (reads keep being served from the
    last good state). *)

val create :
  primary:Orion_protocol.Addr.t ->
  ?client_name:string ->
  wal:Orion_wal.Wal.t ->
  db_path:string ->
  unit ->
  t
(** [wal] is the local mirror log (backing file already set); a
    non-empty one resumes a previous replica session. *)

val bootstrap : ?dial_attempts:int -> t -> Orion_core.Database.t
(** Replay the local log, connect (redialling with backoff up to
    [dial_attempts] failures — the primary may still be starting),
    subscribe from the local size, and ingest until the serving
    database exists (first sealed checkpoint), then close the
    connection.  Runs on the caller's thread and blocks.
    @raise Fatal when the primary refuses the subscription or stays
    unreachable *)

val set_mvcc : t -> Orion_mvcc.Version_store.t -> unit
(** Install the version store replica-side snapshot reads resolve
    against.  From then on each sealed commit notes the touched
    objects' pre-images before applying and publishes its after-images
    at the commit's clock — so a snapshot opened on the replica reads
    a commit-clock-consistent view at the applied clock, exactly as on
    the primary.  The server installs its own store at creation. *)

val poll_fds :
  t -> now:float -> Unix.file_descr list * Unix.file_descr list
(** The descriptors to select on for reading and for writing this
    tick.  Dials the primary (a non-blocking [connect]) once the redial
    deadline has passed; empty while the link is down or stopped. *)

val service :
  t -> readable:Unix.file_descr list -> writable:Unix.file_descr list -> unit
(** One tick of streaming: finish a pending connect, read at most one
    chunk and apply every complete push in it, [Wal.sync] the local log
    once if frames were applied, then acknowledge the durable size.  A
    lost connection redials after a backoff (0.2 s doubling to 2 s,
    counted in [repl.reconnects]); a {!Fatal} error stops the stream
    and is recorded in {!failed}.  Never raises, never blocks. *)

val stop : t -> unit
(** Close the connection and never redial: promotion's first step, and
    shutdown's. *)

val save : t -> unit
(** Graceful-shutdown persistence: save the mirror store image to
    [db_path] and sync the local log.  Deliberately not the primary
    shutdown path — checkpointing the serving database's workspace
    into the mirror would diverge it from the primary's bytes. *)

val db : t -> Orion_core.Database.t
(** The serving database.
    @raise Fatal before {!bootstrap} completes *)

val wal : t -> Orion_wal.Wal.t
val db_path : t -> string
val applied_lsn : t -> int
val failed : t -> string option
val checkpoints : t -> int
