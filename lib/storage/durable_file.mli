(** The one persistence path for the store snapshot and the log: every
    byte this module writes has been [fsync]ed when the call returns.

    [op] names the blocking operation for lockdep
    ({!Orion_util.Omutex.blocking}): ["wal.fsync"] for the log,
    ["store.fsync"] for the snapshot.
    [fault] is fault injection ({!fault}).

    Errors surface as [Unix.Unix_error] (or [Sys_error] from a
    {!replace} writer); a failed write leaves whatever partial bytes the
    failure left. *)

type fault =
  | Disk_full  (** half the bytes are written, then [ENOSPC] ([write]) *)
  | Fsync_error  (** every byte is written, then [EIO] ([fsync]) *)

val replace :
  ?fault:fault -> op:string -> string -> (out_channel -> unit) -> unit
(** [replace ~op path write]: [write] the content into [path ^ ".tmp"],
    fsync it, rename it over [path], then fsync the directory — after a
    crash [path] holds either its old content or the new one, never a
    mix.  Errors from [write] surface as [Sys_error]. *)

val open_append : string -> Unix.file_descr
(** An append-mode descriptor on an existing file. *)

val append :
  ?fault:fault ->
  op:string ->
  Unix.file_descr ->
  string ->
  pos:int ->
  len:int ->
  unit
(** Write [len] bytes of the string from [pos] at the end of the file
    (resuming after short writes), then fsync.  A failed fsync cuts the
    file back to its length before the write (best effort) before
    re-raising: bytes that never became durable must not be read back. *)

val truncate : op:string -> Unix.file_descr -> int -> unit
(** Cut the file to [len] bytes and fsync. *)
