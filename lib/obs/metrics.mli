(** Process-wide observability: a metrics registry and span timing.

    Subsystems create {e instruments} — counters, gauges, fixed-bucket
    latency histograms — registered by name into a {!registry} (the
    process-wide {!default} unless one is passed explicitly).  A
    {!snapshot} collects every registered instrument into one
    structured value; the network server ships it over the wire and
    the bench writers embed it in [BENCH_*.json], so per-module [stats]
    views, server counters and perf numbers all read the same cells.

    Instruments are per-instance: creating a second instrument under a
    name already taken (say a test building its tenth database) simply
    {e re-points} the registration at the new instrument.  The old
    owner keeps its private counter — its [stats]/[reset_stats] view
    stays correct — while the registry reflects the most recently
    created instance, which in a server process is the one serving
    traffic.

    Thread-safety: counter and histogram updates are plain field
    writes.  The server runs both of its threads — the reactor and the
    group committer — on one domain, and an
    increment has no allocation or poll point between its read and its
    write, so no thread switch can split it.  Registry {e structure} —
    registering an instrument, iterating at snapshot/reset time — is
    guarded by a per-registry mutex, so any thread can create
    instruments and serve [Stats] concurrently.  The {e span stack}
    (used for the slow-op breakdown) is domain-local and assumes the
    nested spans of one operation run on one thread, which holds in
    the single-threaded reactor loop where spans are taken. *)

type registry

val default : registry
(** The process-wide registry. *)

val create_registry : unit -> registry
(** A private registry, for tests that must not observe the rest of
    the process. *)

(** {1 Instruments} *)

type counter

val counter : ?registry:registry -> string -> counter
(** A fresh counter registered under the name (replacing any previous
    registration of that name). *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val reset_counter : counter -> unit

val gauge : ?registry:registry -> string -> (unit -> int) -> unit
(** Register a callback gauge: read at snapshot time, so it can derive
    its value from live structures (e.g. the number of currently
    parked sessions). *)

type histogram

(** What a histogram's observations measure: durations in seconds
    (printed in milliseconds), or plain counts (printed as they are). *)
type measure = Seconds | Count

val histogram : ?registry:registry -> ?unit:measure -> string -> histogram
(** A histogram over fixed log-spaced buckets from 10µs to ~100s (or
    from 0.00001 to ~100 of a count), registered under the name.
    [unit] defaults to [Seconds]. *)

val observe : histogram -> float -> unit
(** Record one observation, in the histogram's unit. *)

val histogram_count : histogram -> int
val reset_histogram : histogram -> unit

type histogram_summary = {
  unit : measure;
  count : int;
  sum : float;  (** in [unit] *)
  max : float;  (** in [unit] *)
  p50 : float;  (** in [unit], estimated from bucket upper bounds *)
  p95 : float;
  p99 : float;
  buckets : int array;
      (** raw per-bucket counts, one per {!bucket_bounds} entry plus a
          final overflow cell — shipped so summaries from different
          servers can be {!merge_summaries}'d without the
          percentile-averaging fallacy *)
}

val bucket_bounds : float array
(** The shared bucket upper bounds (seconds), log-spaced, three per
    decade from 10µs to ~100s.  Every histogram and every summary uses
    exactly this geometry, which is what makes merging sound. *)

val merge_summaries : histogram_summary list -> histogram_summary
(** Pointwise-sum the bucket arrays and recompute count/sum/max and the
    quantiles from the merged buckets.  [merge_summaries []] is the
    empty summary. *)

(** {1 Snapshot} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  histograms : (string * histogram_summary) list;  (** sorted by name *)
}

val snapshot : ?registry:registry -> unit -> snapshot

val reset : ?registry:registry -> unit -> unit
(** Reset every registered counter and histogram (gauges are callbacks
    and have no state to reset). *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option
val find_histogram : snapshot -> string -> histogram_summary option

(** {1 Labels}

    A light label convention over flat instrument names:
    [labeled "lock.blocks" ("class", "Widget")] is
    ["lock.blocks{class=Widget}"].  Per-class lock cells use it so the
    static analyzer can join schema fan-in against observed
    contention. *)

val labeled : string -> string * string -> string

val label_value : string -> base:string -> key:string -> string option
(** [label_value "lock.blocks{class=Widget}" ~base:"lock.blocks"
    ~key:"class"] is [Some "Widget"]; [None] when the name is not a
    labeled instance of [base]. *)

val counter_labels : ?registry:registry -> string -> key:string -> string list
(** The label values of every counter registered as [base{key=V}], in
    no particular order. *)

(** {1 Rates}

    Client-side diffing of two snapshots ([orion stats --watch]): the
    deltas of every counter and histogram count divided by the sample
    interval.  Unchanged instruments are omitted. *)

type rates = {
  dt : float;  (** seconds between the snapshots *)
  counter_rates : (string * float) list;  (** increments per second *)
  gauge_values : (string * int) list;  (** from the later snapshot *)
  histogram_rates : (string * float * histogram_summary) list;
      (** observations per second, plus the later summary *)
}

val rates : before:snapshot -> after:snapshot -> dt:float -> rates

val pp_rates : Format.formatter -> rates -> unit

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Human-readable rendering: counters and gauges one per line,
    histograms with count/p50/p95/p99/max — durations in milliseconds,
    counts unscaled. *)

val one_line : snapshot -> string
(** A compact single-line digest (for the server's periodic metrics
    line): a few load-bearing counters and gauges. *)

(** {1 Spans}

    [Span.time] wraps an operation: it times it, optionally records
    the duration into a histogram, and maintains a stack so nested
    spans become a {e breakdown} of their root.  When a root span
    (no parent on the stack) exceeds the slow-op threshold, one line
    with the breakdown goes to the slow-op sink. *)

module Span : sig
  val time : ?histogram:histogram -> string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a named span.  Exceptions propagate; the
      span still closes (and can still be reported slow). *)

  val set_slow_threshold : float option -> unit
  (** Root spans slower than this many seconds are reported.
      [None] (the default) disables the slow-op log. *)

  val slow_threshold : unit -> float option

  val set_slow_sink : (string -> unit) -> unit
  (** Where slow-op lines go; default [prerr_endline]. *)

  val slow_ops_reported : unit -> int
  (** How many slow-op lines have been emitted (for tests). *)
end
