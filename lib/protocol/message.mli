(** The request/response vocabulary of the ORION wire protocol.

    One frame carries one message.  Client frames are {!request}s;
    server frames are {!server_msg}s — either the {!reply} to the
    oldest outstanding request (requests are answered in order) or an
    unsolicited {!push} (deadlock-victim notification, shutdown
    notice).

    Version negotiation happens in-band: the first request on a
    connection must be [Hello], and the server answers [Welcome] with
    the negotiated version or [Error (Unsupported_version, _)].

    {b Replication} rides the same framing: a replica sends
    [Repl_subscribe] (answered [Repl_ok] with the primary's durable
    LSN) and the primary then pushes [Repl_frames] — verbatim
    write-ahead-log bytes, length+adler32 framed exactly as on disk —
    and [Repl_heartbeat] when idle.  [Repl_ack] is the one request with
    {e no reply}: the replica fires it upstream while frames keep
    flowing downstream, so the stream stays full-duplex without
    breaking the in-order reply rule for every other request.

    Payload encoding uses {!Orion_storage.Bytes_rw} (zig-zag varints,
    length-prefixed strings) and {!Orion_core.Codec}'s tagged value
    encoding, the same primitives as the object store and the
    write-ahead log. *)

open Orion_core

val version : int
(** Current protocol version (4: snapshot reads). *)

type access = Read | Update

type request =
  | Hello of { version : int; client : string }
  | Eval of string  (** one or more DSL forms, evaluated in order *)
  | Begin
  | Commit
  | Abort
  | Lock_composite of { root : Oid.t; access : access }
  | Lock_instance of { oid : Oid.t; access : access }
  | Make of {
      cls : string;
      parents : (Oid.t * string) list;
      attrs : (string * Value.t) list;
    }
  | Components_of of Oid.t
  | Ping
  | Stats  (** one {!Orion_obs.Metrics.snapshot} of the server process *)
  | Bye
  | Repl_subscribe of { from_lsn : int }
      (** start streaming WAL frames from this byte offset of the
          primary's log; answered [Repl_ok] with the durable LSN *)
  | Repl_ack of { lsn : int }
      (** replica's durable progress — fire-and-forget, {e never}
          answered *)
  | Promote
      (** flip a replica into a standalone primary: its stream is
          sealed and it starts accepting writes *)
  | Begin_snapshot
      (** open a lock-free read-only snapshot at the server's sealed
          commit clock; answered [Result (Num clock)].  Accepted by a
          read-only replica too (at its applied clock).  Mutually
          exclusive with an open [Begin] transaction on the session. *)
  | End_snapshot  (** close the session's snapshot; answered [Result Unit] *)
  | Read_attr of { oid : Oid.t; attr : string }
      (** attribute fetch — as of the snapshot's begin clock when the
          session has one open, the live committed value otherwise;
          answered [Result (Value v)] *)
  | Ancestors_of of Oid.t
      (** upward closure over reverse composite references —
          snapshot-scoped like [Read_attr]/[Components_of] *)

(** Result values, mirroring the REPL's: an object, a list of objects,
    or a primitive. *)
type v =
  | Unit
  | Bool of bool
  | Num of int
  | Str of string
  | Obj of Oid.t
  | Objs of Oid.t list
  | Value of Value.t
      (** a full attribute value ([Read_attr]): references, sets and
          nil travel intact where [Num]/[Str] could not carry them *)

type err_code =
  | Unsupported_version
  | Bad_request  (** malformed or out-of-place (e.g. [Commit] without [Begin]) *)
  | Parse_error
  | Eval_error
  | Conflict  (** the transaction was aborted as a deadlock victim *)
  | Timeout  (** a lock wait exceeded the server's lock timeout *)
  | Too_many_sessions
  | Queue_full
  | Shutting_down
  | Read_only  (** a write request reached a read-only replica *)
  | Repl_error
      (** replication protocol misuse: subscribe on a non-primary,
          promote of a non-replica, an out-of-range LSN *)
  | Io_error
      (** the log failed to make a commit durable (disk full, failed
          write or fsync, or a log already crashed by one); the
          transaction was aborted.  Not retryable: the log stays down
          until the server restarts. *)

type reply =
  | Welcome of { version : int; session : int }
  | Result of v
  | Granted
  | Pong
  | Stats_reply of Orion_obs.Metrics.snapshot
  | Repl_ok of { lsn : int }  (** subscription accepted; durable LSN *)
  | Error of { code : err_code; msg : string }

type push =
  | Deadlock_victim of { tx : int; msg : string }
  | Goodbye of { msg : string }  (** server is shutting down *)
  | Repl_frames of { lsn : int; data : bytes }
      (** verbatim WAL frames starting at byte offset [lsn] — append
          unchanged and the local log mirrors the primary's
          byte-for-byte (fsck-checkable as-is) *)
  | Repl_heartbeat of { lsn : int }
      (** the stream is idle at [lsn]; lets a replica detect a dead
          primary *)

type server_msg = Reply of reply | Push of push

val err_code_to_string : err_code -> string
val pp_request : Format.formatter -> request -> unit
val pp_v : Format.formatter -> v -> unit

(** {1 Codec}

    Decoders raise {!Orion_storage.Bytes_rw.Reader.Corrupt} on
    malformed payloads. *)

val encode_request : request -> bytes
val decode_request : bytes -> request
val encode_server : server_msg -> bytes
val decode_server : bytes -> server_msg
