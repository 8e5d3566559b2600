(** Ranked mutexes: every internal engine mutex belongs to a declared
    {e lock class} with a rank, and (when a tracer is installed — see
    {!Lockdep} in [orion_analysis]) each acquisition and release is
    reported as an {!event}.

    The hierarchy is the whole point: ranks order the classes from
    outermost (lowest rank, acquired first) to innermost, so the legal
    nesting relation is "may acquire a strictly higher rank while
    holding a lower one"; two instances of one class are never held at
    once.

    When no tracer is installed ([enabled] false), every operation is a
    flat [bool ref] test away from the raw [Mutex] call — cheap enough
    to leave compiled in everywhere. *)

type klass
(** A lock class: one per mutex {e role}, shared by all its instances
    (two servers in one process each have a [shard_inbox]). *)

val declare : doc:string -> name:string -> rank:int -> unit -> klass
(** Declare a new lock class.  Raises [Invalid_argument] on a duplicate
    name. *)

val name : klass -> string
val rank : klass -> int
val doc : klass -> string

val classes : unit -> klass list
(** All declared classes, sorted by rank. *)

val hierarchy_markdown : unit -> string
(** The lock hierarchy as a markdown table (rank-sorted), the exact
    text DESIGN.md §17 embeds between its [lockdep] markers — a test
    keeps the two in sync. *)

(** {1 Engine classes}

    The global hierarchy, outermost first.  Declared centrally so the
    ranks live in one place and {!hierarchy_markdown} can render them
    all. *)

val shard_inbox : klass
val group_commit : klass
val obs_registry : klass
val wal_log : klass

(** {1 Events} *)

type event =
  | Acquire of { cls : klass; inst : int; site : string }
  | Release of { cls : klass; inst : int }

val enabled : bool ref
(** The flat guard every wrapped operation tests.  Managed by
    {!set_tracer}; read-only for everyone else. *)

val set_tracer : (event -> unit) option -> unit
(** Install (or remove) the event consumer.  [Some f] sets [enabled];
    [None] clears it.  [f] is called on the acquiring thread, {e before}
    a blocking [lock] (so an inversion is reported even if the lock
    then deadlocks) and {e after} a successful [try_lock]. *)

(** {1 Wrapped mutexes} *)

type t

val create : ?inst:int -> klass -> t
(** A mutex in [klass]; [inst] distinguishes instances of
    multi-instance classes.  Omitted, each
    mutex gets a unique negative instance — distinct singletons (two
    servers in one process) never alias. *)

val lock : t -> unit
val try_lock : t -> bool
val unlock : t -> unit
val with_lock : t -> (unit -> 'a) -> 'a

val wait : Condition.t -> t -> unit
(** [Condition.wait] through the wrapper: the implicit release and
    re-acquisition are reported as events, so the held-set stays
    truthful across the wait. *)
