(** The primary side of WAL shipping: tail the log, batch sealed
    frames per subscriber, track acknowledgement progress.

    One tailer serves every replica of a primary.  A subscriber is a
    cursor pair [(sent, acked)] into the log's byte offsets (the
    stream's LSNs): {!pump} advances [sent] by whole durable frames —
    verbatim bytes, so the receiver's log mirrors the primary's
    byte-for-byte — and {!ack} advances [acked] from the replica's
    [Repl_ack]s, feeding the lag gauges ([repl.lag_bytes],
    [repl.lag_records], worst replica; plus per-replica
    [repl.lag_bytes{replica=N}] cells) and the ack-RTT histogram
    ([repl.ack_seconds]).

    The tailer has no mutex: the server's reactor alone subscribes,
    pumps, acknowledges and unsubscribes. *)

type t

val create : Orion_wal.Wal.t -> t
(** Tail this log (the primary's, attached with
    [~truncate_on_checkpoint:false] so offsets stay valid), and
    register the replication instruments. *)

val subscribe : t -> from_lsn:int -> (int * int, string) result
(** [Ok (id, durable_lsn)], or [Error reason] when [from_lsn] is
    negative or past the durable point. *)

val unsubscribe : t -> int -> unit
(** Idempotent; the subscriber's gauges read 0 afterwards. *)

val ack : t -> int -> lsn:int -> unit
(** The replica reported [lsn] durable: advance [acked], observe an
    ack RTT for every in-flight batch this covers. *)

type pumped =
  | Frames of { lsn : int; data : bytes }
      (** whole WAL frames starting at byte offset [lsn] *)
  | Heartbeat of int  (** stream idle at this LSN (paced, ~1/s) *)
  | Idle

val pump : ?max_bytes:int -> t -> int -> pumped
(** One scheduling quantum for subscriber [id]: the next batch of
    durable frames if any (default budget 1 MiB, always at least one
    frame), else a heartbeat when one is due.  Unknown subscribers
    pump [Idle].  Called from the reactor tick. *)

val replica_count : t -> int
