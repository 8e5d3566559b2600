(** The redo-only write-ahead log.

    An append-only stream of length-prefixed, checksummed
    {!Wal_record.t} frames ([len:u32le][adler32:u32le][payload]),
    kept in a memory buffer (replication and {!scan} read from it) and,
    with a backing file ({!set_backing}), made durable there: each
    {!sync} appends the bytes written since the previous one and
    fsyncs them ({!Orion_storage.Durable_file}).  [syncs] counts the
    persistence points (one per write commit, one per checkpoint).

    {2 Protocol}

    {!attach} wires a log under a database: every physical page write
    and store-directory mutation is journaled as it happens, and
    {!Orion_core.Persist.save} becomes a fuzzy checkpoint — bracketed by
    [Checkpoint_begin]/[Checkpoint] records, snapshotted to
    [?snapshot_path] (atomically, write-then-rename), and followed by a
    log truncation.  Transaction commits append their after-images
    through {!log_batch} (from {!Group_commit}, or inline from
    {!Orion_tx.Tx_manager.commit}).  Crash semantics assume
    checkpoints run at transaction-quiescent points;
    commit durability between checkpoints is entirely the log's.

    {2 Crash injection}

    {!inject_fault} arms the same fail-after-N / torn-write faults as
    {!Orion_storage.Disk.inject_fault}, so a scripted crash can land
    between any two appends or mid-frame, plus disk-full and
    failed-fsync faults on the backing file's writes; {!tear} chops
    bytes off the tail after the fact.  {!scan} never raises on damage:
    it decodes the longest intact prefix and reports [torn_tail]. *)

open Orion_core
module Store = Orion_storage.Store

type t

exception Crashed

val failure_message : exn -> string
(** What a client is told about a commit the log refused: ["log I/O
    error: <reason> (<call>)"] for a [Unix.Unix_error], ["log crashed"]
    for {!Crashed}, the exception text for anything else. *)

val create : unit -> t

val append : t -> Wal_record.t -> unit
(** @raise Crashed when an injected fault fires (a torn fault leaves a
    partial frame on the log) or the log is already crashed. *)

val sync : t -> unit
(** One persistence point.  Without a backing file the in-memory
    buffer is always "durable" and the counter is the cost model.  With
    one ({!set_backing}) the bytes appended since the last sync are
    written at the end of the file and fsynced; the first sync after
    {!set_backing} writes the whole buffer by replace (temporary file,
    fsync, rename, directory fsync).
    @raise Crashed when the log is crashed.  A failed write or fsync
    re-raises its [Unix.Unix_error] and crashes the log (fail-stop):
    the buffer drops back to the last durable point, and every later
    append, sync or truncate raises {!Crashed}. *)

val set_backing : t -> string option -> unit
(** File the log is made durable in (the CLI's [--wal] mode); [None]
    reverts to in-memory only. *)

val size : t -> int
(** Bytes currently in the log. *)

val durable_lsn : t -> int
(** Bytes of the log guaranteed to survive a crash: the buffer length
    at the last {!sync} (or load).  Replication ships only up to this
    point — the log's byte offsets are the stream's LSNs. *)

val stats : t -> Database.wal_stats

val truncate : t -> unit
(** Drop every record and restart the log with a fresh [Genesis]
    (called after a checkpoint's snapshot is durable).  A backing file
    is replaced by the [Genesis]-only log. *)

(** {1 Crash injection} *)

val inject_fault :
  t ->
  [ `Fail_after of int
  | `Torn_after of int
  | `Io_error_after of int
  | `Fsync_error_after of int ]
  option ->
  unit
(** [`Fail_after n]: the next [n] appends succeed, the one after raises
    {!Crashed} leaving the log unchanged.  [`Torn_after n]: same, but
    half of the failing frame reaches the log (a torn tail).
    [`Io_error_after n]: the next [n] file writes (appends and replaces
    by {!sync}, {!truncate}, {!tear} and {!save_file}) succeed; the one
    after writes half its bytes, then raises [Unix.Unix_error ENOSPC].
    [`Fsync_error_after n]: the failing write goes out whole, then its
    fsync raises [Unix.Unix_error EIO] ({!Orion_storage.Durable_file}). *)

val crashed : t -> bool
val revive : t -> unit

val tear : t -> bytes:int -> unit
(** Chop the last [bytes] bytes off the log (simulates losing the tail
    of the log device).  A backing file is cut to match. *)

(** {1 Reading} *)

type scan = {
  records : Wal_record.t list;  (** longest intact prefix, in order *)
  torn_tail : bool;  (** a truncated / checksum-failed frame was hit *)
  valid_bytes : int;  (** bytes covered by [records] *)
}

val scan : t -> scan

val contents : t -> bytes
val of_bytes : bytes -> t
(** The surviving log image, e.g. carried across a simulated crash. *)

val read_from : t -> lsn:int -> max_bytes:int -> (bytes * int * int) option
(** [read_from t ~lsn ~max_bytes] is [Some (data, end_lsn, frames)]:
    the whole frames starting at byte offset [lsn], up to the durable
    point and roughly [max_bytes] (at least one frame is always
    returned, even when it alone exceeds the budget).  [None] when
    [lsn] is out of range or no whole durable frame lies past it.  The
    bytes are verbatim log content — a receiver appending them
    ({!append_raw}) reproduces the log byte-for-byte. *)

val append_raw : t -> bytes -> unit
(** Append pre-framed bytes shipped from another log, verbatim.  The
    caller owns framing integrity ({!read_from} only ships whole,
    checksummed frames). *)

val decode_frames : bytes -> Wal_record.t list
(** Decode a run of whole frames (as returned by {!read_from}).
    @raise Failure on a short or checksum-failed frame — shipped bytes
    come from below the sender's durable point, so damage is a
    transport bug, never legal crash residue. *)

val save_file : t -> string -> unit
(** Write the whole log to a file by replace, like
    {!Orion_storage.Store.save_file}.  Saving over the backing file
    re-bases later syncs on it.
    @raise Crashed when saving over the backing file of a crashed log. *)

val load_file : string -> t
(** Never raises on a damaged tail — damage surfaces in {!scan}. *)

(** {1 Attachment} *)

val attach :
  ?snapshot_path:string -> ?truncate_on_checkpoint:bool -> t -> Database.t -> unit
(** Journal every storage write of [db]'s store into the log (appending
    a [Genesis] record if the log is empty), publish WAL counters into
    {!Orion_core.Database.stats}, and hook the checkpoint protocol into
    {!Orion_core.Persist.save}: with [?snapshot_path] the store is saved
    there and the log truncated once the checkpoint completes; without
    it the log is retained whole (recovery can then rebuild the store
    from the log alone).  Attaching an empty log to a store that already
    has history first journals a {e base backup} — every page and
    directory entry — so the log always reaches back to a complete base.
    A database carrying un-checkpointed state (one just returned by
    [Recovery.replay]) must be checkpointed after attach before the old
    log is discarded: the base backup captures the store, not the
    in-memory workspace.  [?truncate_on_checkpoint] (default [true])
    governs whether a snapshotting checkpoint also truncates: a
    replication primary passes [false] so the log keeps its full
    history and its byte offsets stay valid as stream LSNs. *)

val attach_store : t -> Store.t -> unit
(** The storage-level half of {!attach} (no checkpoint hook, no stats
    publication) — enough to journal a bare store. *)

val commit_records : Database.t -> tx:int -> touched:Oid.t list -> Wal_record.t list
(** The unsealed after-image/tombstone records of [tx] — captured at commit-submission time so the
    group-commit committer can batch several transactions' records
    under one {!Wal_record.Commit_group} seal. *)

val log_batch : t -> records:Wal_record.t list -> seal:Wal_record.t -> unit
(** Append [records], then [seal], then {!sync} — one durability point
    for a whole batch, atomic under the log mutex.  A batch of one
    (a committer's, or {!Orion_tx.Tx_manager.commit}'s) seals with a
    [Commit]; a larger group-commit batch with a [Commit_group].
    @raise Crashed as {!append}/{!sync} (an injected fault can land on
    any append inside the batch, leaving an unsealed — hence
    replayed-as-nothing — prefix). *)

(** {1 Thread-safety}

    Every operation that touches the log buffer takes an internal
    mutex, so the threads that share one log — the reactor (journaling
    page writes, checkpoints, pumping the replication tailer, a
    replica's mirror appends) and the group committer — never see a
    torn buffer.  Observability
    counters follow the registry-wide convention: racing increments may
    lose a count, never crash. *)
