open Orion_core
module Store = Orion_storage.Store
module Disk = Orion_storage.Disk
module R = Orion_storage.Bytes_rw.Reader
module Obs = Orion_obs.Metrics
module Omutex = Orion_util.Omutex
module Checksum = Orion_storage.Checksum
module Durable_file = Orion_storage.Durable_file

exception Crashed

let failure_message = function
  | Unix.Unix_error (err, call, _) ->
      Printf.sprintf "log I/O error: %s (%s)" (Unix.error_message err) call
  | Crashed -> "log crashed"
  | e -> Printexc.to_string e

type fault_kind = Fail | Torn | File of Durable_file.fault

type fault = { kind : fault_kind; mutable remaining : int }

type t = {
  mutable buf : Buffer.t;
  (* The log buffer is shared between the reactor (via the mutator
     observers, and a replica's mirror appends) and the group-commit
     committer thread; every buffer
     mutation or read happens under [mu].  The mutex is never held
     across a callback, so there is no nesting.  Ranked wal.log: held
     across the fsync-point by design — that cost is exactly what
     group commit amortizes. *)
  mu : Omutex.t;
  appends : Obs.counter;
  bytes_logged : Obs.counter;
  syncs : Obs.counter;
  truncations : Obs.counter;
  append_hist : Obs.histogram;
  sync_hist : Obs.histogram;
  mutable fault : fault option;
  mutable is_crashed : bool;
  mutable page_size : int option;
  mutable backing : string option;
  mutable file : Unix.file_descr option;
      (* append descriptor on [backing], open only while the file holds
         exactly [buf[0..written)]; [None] makes the next sync replace
         the whole file *)
  mutable written : int;
  mutable durable : int;
      (* buffer length at the last sync: the durable LSN replication
         ships up to (bytes past it may still be torn by a crash) *)
}

let create () =
  {
    buf = Buffer.create 4096;
    mu = Omutex.create Omutex.wal_log;
    appends = Obs.counter "wal.appends";
    bytes_logged = Obs.counter "wal.bytes";
    syncs = Obs.counter "wal.syncs";
    truncations = Obs.counter "wal.truncations";
    append_hist = Obs.histogram "wal.append_seconds";
    sync_hist = Obs.histogram "wal.sync_seconds";
    fault = None;
    is_crashed = false;
    page_size = None;
    backing = None;
    file = None;
    written = 0;
    durable = 0;
  }

let with_mu t f = Omutex.with_lock t.mu f

let size t = with_mu t (fun () -> Buffer.length t.buf)

let stats t : Database.wal_stats =
  {
    Database.appends = Obs.counter_value t.appends;
    bytes = Obs.counter_value t.bytes_logged;
    syncs = Obs.counter_value t.syncs;
    truncations = Obs.counter_value t.truncations;
  }

let inject_fault t spec =
  t.fault <-
    (match spec with
    | None -> None
    | Some (`Fail_after n) -> Some { kind = Fail; remaining = n }
    | Some (`Torn_after n) -> Some { kind = Torn; remaining = n }
    | Some (`Io_error_after n) ->
        Some { kind = File Durable_file.Disk_full; remaining = n }
    | Some (`Fsync_error_after n) ->
        Some { kind = File Durable_file.Fsync_error; remaining = n })

let crashed t = t.is_crashed

let revive t =
  t.is_crashed <- false;
  t.fault <- None

let frame record =
  let payload = Wal_record.encode record in
  let len = Bytes.length payload in
  let framed = Bytes.create (8 + len) in
  Bytes.set_int32_le framed 0 (Int32.of_int len);
  Bytes.set_int32_le framed 4 (Int32.of_int (Checksum.bytes payload));
  Bytes.blit payload 0 framed 8 len;
  framed

let append_unlocked t record =
  if t.is_crashed then raise Crashed;
  let started = Unix.gettimeofday () in
  (* Remember the geometry: truncation restarts the log with it. *)
  (match record with
  | Wal_record.Genesis { page_size } -> t.page_size <- Some page_size
  | _ -> ());
  let framed = frame record in
  (match t.fault with
  | Some ({ kind = Fail | Torn; _ } as f) when f.remaining <= 0 ->
      t.is_crashed <- true;
      if f.kind = Torn then
        (* Half the frame reaches the log device: a torn tail. *)
        Buffer.add_subbytes t.buf framed 0 (Bytes.length framed / 2);
      raise Crashed
  | Some ({ kind = Fail | Torn; _ } as f) -> f.remaining <- f.remaining - 1
  | Some { kind = File _; _ } | None -> ());
  Buffer.add_bytes t.buf framed;
  Obs.incr t.appends;
  Obs.incr t.bytes_logged ~by:(Bytes.length framed);
  Obs.observe t.append_hist (Unix.gettimeofday () -. started)

let append t record = with_mu t (fun () -> append_unlocked t record)

(* File I/O ----------------------------------------------------------------- *)

(* The file fault this write suffers, once an [`Io_error_after] or
   [`Fsync_error_after] fault's count runs out. *)
let file_fault t =
  match t.fault with
  | Some ({ kind = File fault; _ } as f) ->
      if f.remaining <= 0 then Some fault
      else begin
        f.remaining <- f.remaining - 1;
        None
      end
  | Some { kind = Fail | Torn; _ } | None -> None

let close_file t =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.file;
  t.file <- None

(* A failed write or fsync of the backing file is fail-stop: the file
   may end in a partial frame, so nothing may be appended or
   acknowledged over it.  The buffer drops back to the durable point,
   so the failed bytes cannot reach the file by any later path either
   ([revive] then rewrites the file from the buffer). *)
let backing_io t f =
  try f ()
  with e ->
    t.is_crashed <- true;
    close_file t;
    Buffer.truncate t.buf (min t.durable (Buffer.length t.buf));
    raise e

(* Write the whole buffer to [path] by replace; on the backing file
   this also (re)opens the append descriptor. *)
let replace_unlocked t path =
  let replace () =
    Durable_file.replace ?fault:(file_fault t) path
      (fun oc -> Buffer.output_buffer oc t.buf)
  in
  if t.backing <> Some path then replace ()
  else begin
    if t.is_crashed then raise Crashed;
    backing_io t (fun () ->
        close_file t;
        replace ();
        t.file <- Some (Durable_file.open_append path);
        t.written <- Buffer.length t.buf)
  end

let save_file t path = with_mu t (fun () -> replace_unlocked t path)

let set_backing t path =
  with_mu t (fun () ->
      close_file t;
      t.backing <- path;
      t.written <- 0)

let sync_unlocked t =
  if t.is_crashed then raise Crashed;
  Obs.incr t.syncs;
  (* With a backing file, a sync is a real persistence point: the bytes
     appended since the last one are written and fsynced (the first
     sync after [set_backing] writes the whole file by replace). *)
  let started = Unix.gettimeofday () in
  let len = Buffer.length t.buf in
  (match (t.backing, t.file) with
  | None, _ -> ()
  | Some path, None -> replace_unlocked t path
  | Some _, Some fd ->
      if t.written < len then
        backing_io t (fun () ->
            let fresh = Buffer.sub t.buf t.written (len - t.written) in
            Durable_file.append ?fault:(file_fault t) fd
              fresh ~pos:0 ~len:(String.length fresh);
            t.written <- len));
  t.durable <- len;
  Obs.observe t.sync_hist (Unix.gettimeofday () -. started)

let sync t = with_mu t (fun () -> sync_unlocked t)

let tear t ~bytes =
  with_mu t (fun () ->
      let keep = max 0 (Buffer.length t.buf - bytes) in
      Buffer.truncate t.buf keep;
      t.durable <- min t.durable keep;
      (* The device loses the same tail: disk and buffer stay equal. *)
      match (t.backing, t.file) with
      | None, _ -> ()
      | Some path, None -> replace_unlocked t path
      | Some _, Some fd ->
          if t.written > keep then
            backing_io t (fun () ->
                Durable_file.truncate fd keep;
                t.written <- keep))

let truncate t =
  with_mu t (fun () ->
      if t.is_crashed then raise Crashed;
      Buffer.clear t.buf;
      t.durable <- 0;
      Obs.incr t.truncations;
      (match t.page_size with
      | Some page_size -> append_unlocked t (Wal_record.Genesis { page_size })
      | None -> ());
      (match t.backing with Some path -> replace_unlocked t path | None -> ());
      t.durable <- Buffer.length t.buf)

let durable_lsn t = with_mu t (fun () -> t.durable)

(* Reading ------------------------------------------------------------------ *)

type scan = {
  records : Wal_record.t list;
  torn_tail : bool;
  valid_bytes : int;
}

let scan t =
  let data = with_mu t (fun () -> Buffer.to_bytes t.buf) in
  let total = Bytes.length data in
  let records = ref [] in
  let pos = ref 0 in
  let torn = ref false in
  (try
     while !pos < total do
       if total - !pos < 8 then begin
         torn := true;
         raise Exit
       end;
       let len = Int32.to_int (Bytes.get_int32_le data !pos) land 0xffffffff in
       let sum = Int32.to_int (Bytes.get_int32_le data (!pos + 4)) land 0xffffffff in
       if total - !pos - 8 < len then begin
         torn := true;
         raise Exit
       end;
       if Checksum.bytes ~pos:(!pos + 8) ~len data <> sum then begin
         torn := true;
         raise Exit
       end;
       (match Wal_record.decode (Bytes.sub data (!pos + 8) len) with
       | record -> records := record :: !records
       | exception R.Corrupt _ ->
           torn := true;
           raise Exit);
       pos := !pos + 8 + len
     done
   with Exit -> ());
  { records = List.rev !records; torn_tail = !torn; valid_bytes = !pos }

let contents t = with_mu t (fun () -> Buffer.to_bytes t.buf)

(* Streaming reads for replication: whole frames only, never past the
   durable point (bytes beyond it could still be torn away by a crash,
   and a replica must only mirror what the primary can survive). *)

let read_from t ~lsn ~max_bytes =
  with_mu t (fun () ->
      if lsn < 0 || lsn > t.durable then None
      else begin
        let header_u32 pos =
          (Char.code (Buffer.nth t.buf pos) lor
           (Char.code (Buffer.nth t.buf (pos + 1)) lsl 8) lor
           (Char.code (Buffer.nth t.buf (pos + 2)) lsl 16) lor
           (Char.code (Buffer.nth t.buf (pos + 3)) lsl 24))
          land 0xffffffff
        in
        let pos = ref lsn in
        let frames = ref 0 in
        let stop = ref false in
        while not !stop do
          if t.durable - !pos < 8 then stop := true
          else begin
            let len = header_u32 !pos in
            let frame_end = !pos + 8 + len in
            if
              frame_end > t.durable
              || (!frames > 0 && frame_end - lsn > max_bytes)
            then stop := true
            else begin
              pos := frame_end;
              incr frames
            end
          end
        done;
        if !frames = 0 then None
        else Some (Buffer.sub t.buf lsn (!pos - lsn) |> Bytes.of_string, !pos, !frames)
      end)

(* A pre-framed byte run shipped from a primary, appended verbatim so
   the replica's local log stays a byte mirror of the primary's. *)
let append_raw t data =
  with_mu t (fun () ->
      if t.is_crashed then raise Crashed;
      Buffer.add_bytes t.buf data;
      Obs.incr t.bytes_logged ~by:(Bytes.length data))

(* Decode a shipped batch back into records.  Raises [Failure] on a
   short or checksum-failed frame: shipped bytes were read below the
   sender's durable point, so damage here is a wire-level bug, not
   crash residue. *)
let decode_frames data =
  let total = Bytes.length data in
  let records = ref [] in
  let pos = ref 0 in
  while !pos < total do
    if total - !pos < 8 then failwith "Wal.decode_frames: short frame header";
    let len = Int32.to_int (Bytes.get_int32_le data !pos) land 0xffffffff in
    let sum = Int32.to_int (Bytes.get_int32_le data (!pos + 4)) land 0xffffffff in
    if total - !pos - 8 < len then failwith "Wal.decode_frames: short frame";
    if Checksum.bytes ~pos:(!pos + 8) ~len data <> sum then
      failwith "Wal.decode_frames: frame checksum mismatch";
    (match Wal_record.decode (Bytes.sub data (!pos + 8) len) with
    | record -> records := record :: !records
    | exception R.Corrupt msg -> failwith ("Wal.decode_frames: " ^ msg));
    pos := !pos + 8 + len
  done;
  List.rev !records

let restore_page_size t =
  match scan t with
  | { records = Wal_record.Genesis { page_size } :: _; _ } ->
      t.page_size <- Some page_size
  | _ -> ()

let of_bytes data =
  let t = create () in
  Buffer.add_bytes t.buf data;
  t.durable <- Bytes.length data;
  restore_page_size t;
  t

let load_file path =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_bytes (Bytes.of_string data)

(* Attachment --------------------------------------------------------------- *)

(* A base backup: the store's full physical state journaled as if every
   page and directory entry had just been written.  Needed when an empty
   log is attached to a store that already has history (a recovered or
   reloaded database): without it the log would not reach back to a
   complete base and log-only rebuild would be impossible. *)
let baseline t store =
  let disk = Store.disk store in
  Store.flush store;
  append t (Wal_record.Genesis { page_size = Disk.page_size disk });
  let allocated = (Disk.stats disk).Disk.allocated in
  for page_no = 0 to allocated - 1 do
    append t (Wal_record.Page_alloc { page_no });
    append t (Wal_record.Page_write { page_no; image = Disk.read disk page_no })
  done;
  for id = 0 to Store.segment_count store - 1 do
    append t (Wal_record.Segment_new { id });
    Store.iter_segment store id (fun rid _ ->
        append t (Wal_record.Record_put { rid }))
  done;
  match Store.catalog_page store with
  | Some page -> append t (Wal_record.Catalog_set { page })
  | None -> ()

let attach_store t store =
  let disk = Store.disk store in
  t.page_size <- Some (Disk.page_size disk);
  if Buffer.length t.buf = 0 then baseline t store;
  Disk.set_observer disk
    (Some (fun page_no image -> append t (Wal_record.Page_write { page_no; image })));
  Disk.set_alloc_observer disk
    (Some (fun page_no -> append t (Wal_record.Page_alloc { page_no })));
  Store.set_journal store
    (Some
       (function
       | Store.J_segment_new id -> append t (Wal_record.Segment_new { id })
       | Store.J_record_put rid -> append t (Wal_record.Record_put { rid })
       | Store.J_record_delete rid -> append t (Wal_record.Record_delete { rid })
       | Store.J_catalog_set page -> append t (Wal_record.Catalog_set { page })))

let attach ?snapshot_path ?(truncate_on_checkpoint = true) t db =
  attach_store t (Database.store db);
  Database.set_wal_stats_source db (Some (fun () -> stats t));
  Database.set_checkpoint_hook db
    (Some
       (function
       | Database.Ckpt_begin -> append t Wal_record.Checkpoint_begin
       | Database.Ckpt_end ->
           (* Force: every dirty page reaches the disk (and hence the
              log) before the checkpoint record seals the bracket.
              Checkpoints run on the reactor between requests, so the
              bracket never interleaves with mutators. *)
           let store = Database.store db in
           Store.flush store;
           (match snapshot_path with
           | Some path -> Store.save_file store path
           | None -> ());
           append t Wal_record.Checkpoint;
           sync t;
           (* Truncation is only safe once a snapshot holds the
              checkpointed state; without one the log stays the sole
              recovery source and must keep its full history.  A
              replication primary keeps the whole log even with a
              snapshot: its byte offsets are the stream's LSNs, and a
              replica subscribing from 0 needs the log to reach back to
              [Genesis]. *)
           (match snapshot_path with
           | Some _ when truncate_on_checkpoint -> truncate t
           | Some _ | None -> ())))

(* The after-image / tombstone records of a commit, without the sealing
   record: a batch of one seals with [Commit]; the group-commit
   committer batches several transactions' records under one
   [Commit_group] seal. *)
let commit_records db ~tx ~touched =
  List.map
    (fun oid ->
      match Database.find db oid with
      | Some inst ->
          Wal_record.Obj_put
            {
              tx;
              oid;
              cluster_with = inst.Instance.cluster_with;
              rrefs = Database.rrefs db oid;
              data = Codec.encode db inst;
            }
      | None -> Wal_record.Obj_delete { tx; oid })
    (List.sort_uniq Oid.compare touched)

(* One durability point for a pre-captured batch: every record, then the
   seal, then a single sync — all under the log mutex so a concurrent
   checkpoint or another committer cannot interleave inside the batch. *)
let log_batch t ~records ~seal =
  with_mu t (fun () ->
      List.iter (append_unlocked t) records;
      append_unlocked t seal;
      sync_unlocked t)
