module Omutex = Orion_util.Omutex

type fault = Disk_full | Fsync_error

(* Write [len] bytes of [s] from [pos], resuming after short writes.
   A [Disk_full] fault lets only half the bytes out before the write
   fails with ENOSPC — what a filling device does to a real log. *)
let write_all ?fault fd s ~pos ~len =
  let disk_full = match fault with Some Disk_full -> true | _ -> false in
  let len = if disk_full then len / 2 else len in
  let rec go pos len =
    if len > 0 then
      match Unix.write_substring fd s pos len with
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
  in
  go pos len;
  if disk_full then raise (Unix.Unix_error (Unix.ENOSPC, "write", ""))

let fsync ?fault ~op fd =
  Omutex.blocking ~op (fun () ->
      match fault with
      | Some Fsync_error -> raise (Unix.Unix_error (Unix.EIO, "fsync", ""))
      | Some Disk_full | None -> Unix.fsync fd)

(* A rename is durable only once the directory entry is: fsync the
   directory too.  Filesystems that cannot fsync a directory say so
   with EINVAL; there is nothing more to do on those. *)
let fsync_dir ~op path =
  let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close dir)
    (fun () ->
      try fsync ~op dir with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let open_append path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

(* A failed fsync cuts the [len] bytes just appended back off the file:
   they were never durable, so a refused commit must not replay from
   them.  The success path makes no extra system call. *)
let append ?fault ~op fd s ~pos ~len =
  write_all ?fault fd s ~pos ~len;
  try fsync ?fault ~op fd
  with Unix.Unix_error _ as e ->
    (try Unix.ftruncate fd ((Unix.fstat fd).Unix.st_size - len)
     with Unix.Unix_error _ -> ());
    raise e

let replace ?fault ~op path write =
  let tmp = path ^ ".tmp" in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      write oc;
      flush oc;
      let fd = Unix.descr_of_out_channel oc in
      if fault = Some Disk_full then begin
        Unix.ftruncate fd (out_channel_length oc / 2);
        raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp))
      end;
      fsync ?fault ~op fd);
  Unix.rename tmp path;
  fsync_dir ~op path

let truncate ~op fd len =
  Unix.ftruncate fd len;
  fsync ~op fd
