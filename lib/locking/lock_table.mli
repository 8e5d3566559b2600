(** A multi-granularity lock table.

    Granules are class objects and instances (the roots of composite
    objects are instances).  A transaction may hold several modes on
    one granule; a request is granted when its mode is compatible with
    every mode held by {e other} transactions.  Incompatible requests
    join a FIFO wait queue; releases wake compatible waiters in order.
    Deadlocks are detected on the waits-for graph. *)

open Orion_core

type granule = G_class of string | G_instance of Oid.t

val pp_granule : Format.formatter -> granule -> unit

type tx_id = int

type t

val create : ?compat:(Lock_mode.t -> Lock_mode.t -> bool) -> unit -> t
(** [?compat] defaults to {!Lock_mode.compat} (the paper's matrix);
    pass {!Lock_mode.compat_refined} for ablation A3.  Registers the
    table's [lock.*] counters in the obs registry. *)

val set_classifier : t -> (Oid.t -> string option) -> unit
(** Install the instance→class mapping used to label per-class block
    counters ([lock.blocks{class=C}] in the obs registry).  Class
    granules are labeled directly; instance granules go through the
    classifier ([None] — the default for every oid — records only the
    unlabeled total).  {!Orion_tx.Tx_manager.create} installs a
    classifier backed by its database. *)

val acquire : t -> tx:tx_id -> granule -> Lock_mode.t -> [ `Granted | `Blocked ]
(** On [`Blocked] the request stays queued; it may be granted later by
    {!release_all} (see {!newly_granted}).  Requesting a mode already
    held (or covered by a held mode) is granted immediately. *)

val try_acquire : t -> tx:tx_id -> granule -> Lock_mode.t -> bool
(** Like {!acquire} but never queues: [false] leaves no trace (used for
    opportunistic lock escalation). *)

val holds : t -> tx:tx_id -> granule -> Lock_mode.t -> bool
(** Whether the transaction holds the mode (or a supremum covering it). *)

val holders : t -> granule -> (tx_id * Lock_mode.t) list

val locks_of : t -> tx:tx_id -> (granule * Lock_mode.t) list

val waiting : t -> (tx_id * granule * Lock_mode.t) list

val release_all : t -> tx:tx_id -> tx_id list
(** Release every lock and pending request of the transaction; returns
    transactions whose queued requests became fully unblocked (no
    request of theirs remains queued). *)

val blocked_on : t -> tx:tx_id -> tx_id list
(** The transactions whose held locks block this transaction's queued
    requests (the waits-for edges). *)

val find_deadlock : t -> tx_id list option
(** A cycle in the waits-for graph, if any. *)

type stats = { acquisitions : int; blocks : int; wakeups : int }

val stats : t -> stats
val reset_stats : t -> unit
(** Zero every [lock.*] counter the table feeds, the per-class
    [lock.blocks{class=C}] family included. *)
