(** Lockdep: the runtime lock-discipline checker behind
    {!Orion_util.Omutex} ([--lockdep] / [ORION_LOCKDEP=1]).

    Linux-lockdep in spirit: every wrapped acquisition feeds a
    per-thread held-set and a global may-precede graph over lock
    {e classes}, so an ordering bug is reported the first time the two
    orders are ever {e observed} — the run does not have to deadlock.
    Findings reuse {!Schema_analysis.finding}, so [orion lockdep-check]
    speaks the same severity-sorted sexp vocabulary as [orion analyze].

    Detectors:
    - {b rank-inversion} (error): a class acquired while holding a
      strictly higher-ranked one.
    - {b lock-order-inversion} (error): a new may-precede edge closes a
      cycle among equal-ranked classes; the witness names both
      acquisition sites of this observation and of the first
      contradicting one.
    - {b recursive-lock} (error): same class, same instance,
      re-acquired.
    - {b same-class-nesting} (error): two instances of one class held
      at once.

    Besides the detectors, the engine records which threads took each
    mutex.  {!single_thread_findings} names every class whose mutexes
    were each only ever taken by one thread — a mutex that serialises
    nothing, and a candidate for deletion. *)

type engine
(** One checker instance: held-sets, may-precede graph, findings.
    The installed global engine consumes live {!Orion_util.Omutex}
    events; private engines serve tests and trace replay. *)

val create_engine : ?trace:string -> unit -> engine
(** [trace] appends a replayable event log to the file, exactly as the
    installed engine's [--lockdep-trace] does ({!flush_trace} forces
    the buffered lines out). *)

val flush_trace : engine -> unit

val handle : engine -> key:string -> Orion_util.Omutex.event -> unit
(** Feed one event attributed to thread [key] (any stable token; live
    installation uses ["pid.domain.thread"]).  Tests synthesize events
    under distinct keys to model cross-thread interleavings
    deterministically. *)

val self_key : unit -> string
(** The calling thread's key, ["pid.domain.thread"]. *)

val tracer_of : engine -> Orion_util.Omutex.event -> unit
(** [handle] pre-applied with {!self_key} — the function a test passes
    to {!Orion_util.Omutex.set_tracer} to watch real lock traffic with
    a private engine. *)

val engine_findings : engine -> Schema_analysis.finding list
(** Deduplicated detector findings so far, most severe first. *)

val single_thread_findings : engine -> Schema_analysis.finding list
(** One [Info] finding, code [single-thread-class], for each class
    every mutex of which only one thread ever took (a mutex is a class
    instance within one process; thread keys name the process).  Never
    affects {!exit_code}. *)

val edge_count : engine -> int
(** Distinct may-precede edges observed (the [lockdep.edges] gauge). *)

(** {1 Global installation} *)

val install : ?trace:string -> unit -> unit
(** Install the global engine as the Omutex tracer, register
    [lockdep.violations]/[lockdep.classes]/[lockdep.edges] with the
    metrics registry, and hook process exit: findings dump to stderr
    and force the exit code to their {!exit_code} — how CI fails a
    lockdep-enabled suite on any violation.  [trace] appends a
    replayable event log to the file ({!check_trace} reads it back).
    Idempotent. *)

val installed : unit -> engine option
val findings : unit -> Schema_analysis.finding list
(** Findings of the installed engine ([[]] when not installed). *)

val install_from_env : unit -> unit
(** {!install} when [ORION_LOCKDEP] is set truthy (or
    [ORION_LOCKDEP_TRACE] names a trace file); a no-op otherwise.
    Called by every engine entry point (CLI, test mains), so the env
    vars work uniformly. *)

(** {1 Offline replay} *)

val check_trace : string -> Schema_analysis.finding list
(** Replay a [--lockdep-trace] file through a fresh engine: its
    detector findings, then its {!single_thread_findings}.  Raises
    [Failure] with file/line context on an unparseable line. *)

val exit_code : Schema_analysis.finding list -> int
(** The analyze/fsck/lockdep-check contract: 2 if any error, 1 if any
    warning, 0 clean. *)
