(** Ranked mutexes: every internal engine mutex belongs to a declared
    {e lock class} with a rank, and (when a tracer is installed — see
    {!Lockdep} in [orion_analysis]) each acquisition, release, blocking
    operation, and blocking exemption is reported as an {!event}.

    The hierarchy is the whole point: ranks order the classes from
    outermost (lowest rank, acquired first) to innermost, so the legal
    nesting relation is "may acquire a strictly higher rank while
    holding a lower one"; two instances of one class are never held at
    once.  The one exception is first-class here rather than folklore:
    {!allow_blocking} brackets code that holds a no-block class across
    a declared durability point by design (the checkpoint bracket).

    When no tracer is installed ([enabled] false), every operation is a
    flat [bool ref] test away from the raw [Mutex] call — cheap enough
    to leave compiled in everywhere. *)

type klass
(** A lock class: one per mutex {e role}, shared by all its instances
    (two servers in one process each have a [shard_inbox]). *)

val declare :
  ?no_block:bool ->
  doc:string ->
  name:string ->
  rank:int ->
  unit ->
  klass
(** Declare a new lock class.  [no_block] marks classes that must never
    be held across a blocking operation ({!blocking}).  Raises
    [Invalid_argument] on a duplicate name. *)

val name : klass -> string
val rank : klass -> int
val no_block : klass -> bool
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

val txsvc_core : klass
val shard_inbox : klass
val group_commit : klass
val obs_registry : klass
val repl_tailer : klass
val wal_log : klass
val mvcc_version_store : klass

(** {1 Events} *)

type event =
  | Acquire of { cls : klass; inst : int; site : string }
  | Release of { cls : klass; inst : int }
  | Blocking of { op : string; site : string }
      (** A blocking operation (fsync, select, socket write) is about
          to run on this thread. *)
  | Allow_enter of string
  | Allow_exit of string

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

(** {1 Discipline annotations} *)

val blocking : op:string -> (unit -> 'a) -> 'a
(** Declare that [f] performs the blocking operation [op] ("wal.fsync",
    "unix.select", "socket.write").  Holding a [no_block] class here is
    a violation unless inside {!allow_blocking}. *)

val allow_blocking : string -> (unit -> 'a) -> 'a
(** Bracket a declared exemption: blocking inside is legal even while
    holding no-block classes.  Nests (a depth count per thread). *)
