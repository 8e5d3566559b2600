(** Blocking client for the ORION network server.

    One connection, one request in flight at a time: each call frames a
    {!Orion_protocol.Message.request}, writes it, and blocks until the
    reply arrives.  Server pushes (deadlock-victim notifications,
    shutdown notices) interleaved with the reply are collected; drain
    them with {!notices}.

    A [Lock_composite]/[Lock_instance] request the server parks simply
    keeps this client blocked in {!lock_composite}/{!lock_instance}
    until the lock is granted — or until the wait ends in a deadlock
    abort ({!Error} with [Conflict]) or lock timeout ([Timeout]). *)

open Orion_core
module Message = Orion_protocol.Message
module Addr = Orion_protocol.Addr

type t

exception Error of Message.err_code * string
(** An error reply from the server.  After [Conflict] or [Timeout] the
    transaction is already aborted server-side; the connection remains
    usable and the client can retry with a fresh {!begin_tx}. *)

exception Disconnected of string
(** The connection died (EOF, reset, or a protocol-corrupt frame). *)

val connect : ?client_name:string -> Addr.t -> t
(** Dial, then perform the [Hello]/[Welcome] handshake.
    @raise Error with [Unsupported_version] or [Too_many_sessions]
    @raise Unix.Unix_error when the dial fails *)

val session_id : t -> int
val close : t -> unit
(** Polite [Bye] (best effort), then close the socket. *)

val eval : t -> string -> Message.v
(** Evaluate DSL forms server-side; the value of the last form. *)

val begin_tx : t -> int
(** Open this session's transaction; its id. *)

val commit : t -> unit
val abort : t -> unit

val lock_composite : t -> root:Oid.t -> Message.access -> unit
(** Blocks until granted (see the module preamble for how waits end). *)

val lock_instance : t -> Oid.t -> Message.access -> unit

val make :
  t ->
  cls:string ->
  ?parents:(Oid.t * string) list ->
  ?attrs:(string * Value.t) list ->
  unit ->
  Oid.t

val components_of : t -> Oid.t -> Oid.t list

val ancestors_of : t -> Oid.t -> Oid.t list

val read_attr : t -> Oid.t -> string -> Value.t
(** Attribute fetch ([Value.Null] when the attribute is unset).  Inside
    a snapshot, the value as of the begin clock. *)

(** {1 Snapshot reads}

    Between {!begin_snapshot} and {!end_snapshot} the session's reads
    ({!read_attr}, {!components_of}, {!ancestors_of}) resolve against
    the server's MVCC version store at the snapshot's begin clock:
    lock-free and commit-clock consistent, even on a read-only replica
    (which answers at its applied clock). *)

val begin_snapshot : t -> int
(** Open a lock-free read-only snapshot; returns its begin clock.
    @raise Error with [Bad_request] if the session already has a
    transaction or snapshot open *)

val end_snapshot : t -> unit

val ping : t -> unit

val stats : t -> Orion_obs.Metrics.snapshot
(** One metrics snapshot of the server process: every registered
    counter, gauge and latency-histogram summary. *)

val notices : t -> Message.push list
(** Drain the pushes received so far, oldest first. *)

(** {1 Replication}

    After {!repl_subscribe} the connection switches from
    request/reply to streaming: the server pushes
    [Repl_frames]/[Repl_heartbeat] unprompted and the only legal
    upstream traffic is [Repl_ack] (the protocol's one no-reply
    request).  A replica server consumes the stream without this
    blocking client ({!Orion_replication.Replica}). *)

val repl_subscribe : t -> from_lsn:int -> int
(** Subscribe to the primary's WAL stream from byte offset [from_lsn];
    returns the primary's durable LSN at subscription time.
    @raise Error with [Repl_error] if the server is not a streaming
    primary or the LSN is out of range *)

val shutdown : t -> unit
(** Shut the socket down both ways without closing the fd — wakes a
    thread blocked on this connection with {!Disconnected}.  Safe from
    another thread; the owner still calls {!close}. *)

val promote : t -> unit
(** Ask a replica server to seal its stream and become a standalone
    primary.
    @raise Error with [Repl_error] if the server is not a replica *)
