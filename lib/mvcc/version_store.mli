(** Multi-version object cache keyed by commit clock (MVCC-lite).

    The write-ahead log already produces logical after-images sealed by
    a [Commit]/[Commit_group] record carrying the database clock; this
    store keeps those after-images in memory, per object, newest first,
    so a read-only transaction can resolve every read against the state
    as of its begin clock without touching the lock table.

    {2 Visibility rule}

    A snapshot opened by {!open_snap} reads at the {e sealed clock} —
    the clock of the last published commit — not the database's raw
    clock: a transaction that has ticked the clock but whose seal has
    not reached the log (a group-commit batch in flight) is invisible,
    and will {!publish} at a strictly greater clock.  {!read} at clock
    [c] answers with the newest version at-or-below [c]:

    - [`Image]: the object existed at [c] with that after-image;
    - [`Absent]: the object did not exist at [c] (created later, or
      deleted at-or-before [c]);
    - [`Fallthrough]: no chain — the object has not been written since
      the store was created, so the live database holds the one version
      there is and the caller reads it directly (lock-free: writers
      always {!note_base} an object's committed pre-image {e before}
      mutating it in place, so a chain exists for anything dirty).

    {2 Pre-images and pinning}

    The live database mutates objects in place under strict 2PL, so the
    store must capture an object's committed state before the first
    uncommitted write lands: {!note_base} records it as the chain's base
    (clock 0 — valid for every older snapshot) and, when a transaction
    id is supplied, {e pins} the chain until {!settle} so garbage
    collection cannot drop it while the writer is dirty.

    {2 Watermark GC}

    The watermark is the oldest open snapshot's clock (the sealed clock
    when none is open).  Pruning keeps, per chain, the newest version
    at-or-below the watermark plus everything above it; a chain reduced
    to a single version that the live database also holds (not pinned,
    nothing older visible) is dropped entirely so reads fall through.
    GC runs incrementally at publish/settle time and as a sweep when a
    snapshot closes.

    The store has no mutex: one thread owns it — in the server, the
    reactor, which also publishes each sealed group-commit batch. *)

open Orion_core

type t

type image = { inst : Instance.t; rrefs : Rref.t list }
(** A committed after-image: the instance (never mutated once handed to
    the store — callers pass a {!Instance.copy} or a freshly decoded
    record) and its reverse references as the database reported them. *)

val create : Database.t -> t
(** A store whose sealed clock starts at the database's current clock;
    everything committed so far is served by fall-through. *)

val current_clock : t -> int
(** The sealed clock: the visibility point of the last published
    commit. *)

val note_base : ?tx:int -> t -> Oid.t -> image option -> unit
(** Record the committed pre-image of an object about to be written
    (first call wins; later calls are no-ops on the chain).  [None]
    means the object does not exist yet (a creation's base).  With
    [?tx], additionally pin the chain until [settle ~tx]. *)

val settle : t -> tx:int -> unit
(** The transaction finished (committed, aborted, or failed): release
    its pins and drop chains nothing needs anymore.  Idempotent. *)

val publish : t -> clock:int -> (Oid.t * image option) list -> unit
(** A commit sealed at [clock] became durable: append each after-image
    ([None] = deletion) to its chain and advance the sealed clock.  A
    group-commit batch publishes every member at the single seal clock,
    so the batch becomes visible atomically. *)

val publish_records : t -> clock:int -> Orion_wal.Wal_record.t list -> unit
(** {!publish} from the WAL's logical records ([Obj_put]/[Obj_delete];
    anything else is ignored), decoding the after-images. *)

val read : t -> clock:int -> Oid.t -> [ `Image of image | `Absent | `Fallthrough ]

val open_snap : t -> id:int -> int
(** Register an open snapshot and return its begin clock (the sealed
    clock).  The id must be unique among open snapshots (the
    transaction manager uses its transaction ids). *)

val close_snap : t -> id:int -> unit
(** Unregister and garbage-collect.  Idempotent. *)

val open_snaps : t -> int

val chain_count : t -> int
(** Number of version chains held (the [mvcc.chains] gauge). *)

val gc : t -> unit
(** Force a full sweep (normally triggered by {!close_snap}). *)
