open Orion_core
module Obs = Orion_obs.Metrics
module Wal = Orion_wal.Wal
module Wal_record = Orion_wal.Wal_record
module Store = Orion_storage.Store
module Disk = Orion_storage.Disk
module Message = Orion_protocol.Message
module Frame = Orion_protocol.Frame
module Addr = Orion_protocol.Addr
module Schema = Orion_schema.Schema
module Version_store = Orion_mvcc.Version_store

exception Fatal of string

(* The connection lost or refused: redial after the backoff. *)
exception Link_down of string

(* The upstream connection, driven without ever blocking: the reactor
   selects on its descriptor and calls {!service} each tick. *)
type conn = {
  fd : Unix.file_descr;
  splitter : Frame.Splitter.t;
  out : Buffer.t;  (* request bytes not yet accepted by the socket *)
}

type link =
  | Down of float  (* redial at this time *)
  | Connecting of Unix.file_descr  (* non-blocking connect in flight *)
  | Up of conn
  | Stopped  (* promoted, stopped or failed: never redial *)

type t = {
  primary : Addr.t;
  client_name : string;
  wal : Wal.t;  (** local byte-for-byte mirror of the primary's log *)
  db_path : string;  (** mirror snapshots land here (checkpoint cadence) *)
  mutable mirror : Store.t option;  (** physical replay target *)
  mutable serving : Database.t option;  (** built at the first sealed checkpoint *)
  pending : (int, Wal_record.t list) Hashtbl.t;  (** tx → ops, newest first *)
  mutable failed : string option;
  mutable link : link;
  mutable backoff : float;  (** the next redial delay: 0.2 s doubling to 2 s *)
  chunk : Bytes.t;  (** read buffer: at most one chunk per tick *)
  mutable mvcc : Version_store.t option;
      (** feeds replica-side snapshot reads; installed by the server
          when it is created *)
  mutable checkpoints : int;
  applied_frames : Obs.counter;
  applied_bytes : Obs.counter;
  applied_commits : Obs.counter;
  reconnects : Obs.counter;
}

let create ~primary ?(client_name = "orion-replica") ~wal ~db_path () =
  let t =
    {
      primary;
      client_name;
      wal;
      db_path;
      mirror = None;
      serving = None;
      pending = Hashtbl.create 16;
      failed = None;
      link = Down 0.;
      backoff = 0.2;
      chunk = Bytes.create 65536;
      mvcc = None;
      checkpoints = 0;
      applied_frames = Obs.counter "repl.applied_frames";
      applied_bytes = Obs.counter "repl.applied_bytes";
      applied_commits = Obs.counter "repl.applied_commits";
      reconnects = Obs.counter "repl.reconnects";
    }
  in
  Obs.gauge "repl.applied_lsn" (fun () -> Wal.size t.wal);
  Obs.gauge "repl.connected" (fun () ->
      match t.link with Up _ -> 1 | Down _ | Connecting _ | Stopped -> 0);
  t

let db t =
  match t.serving with
  | Some db -> db
  | None -> raise (Fatal "replica: no serving database before first checkpoint")

let wal t = t.wal
let db_path t = t.db_path
let applied_lsn t = Wal.size t.wal
let checkpoints t = t.checkpoints
let set_mvcc t vs = t.mvcc <- Some vs

(* {1 Apply} *)

let mirror_exn t =
  match t.mirror with
  | Some s -> s
  | None -> raise (Fatal "replica: stream carries no genesis record")

(* The serving database's instances never own a record slot: record
   lifecycle on a replica belongs exclusively to the shipped physical
   stream (the mirror store).  A [Some rid] leaking into
   [Database.remove] would [Store.delete] a record the primary still
   accounts for and desync the mirror's allocator replay. *)
let detach_rid db oid =
  match Database.find db oid with
  | Some old -> old.Instance.rid <- None
  | None -> ()

let apply_logical db op =
  match op with
  | Wal_record.Obj_put { oid; cluster_with; rrefs; data; _ } ->
      let inst = Codec.decode data in
      inst.Instance.rid <- None;
      inst.Instance.cluster_with <- cluster_with;
      detach_rid db oid;
      Database.add db inst;
      Database.set_rrefs db oid rrefs
  | Obj_delete { oid; _ } ->
      detach_rid db oid;
      Database.remove db oid
  | _ -> ()

let advance_counters db ~next_oid ~clock ~cc =
  let next_oid0, clock0 = Database.counters db in
  Database.restore_counters db ~next_oid:(max next_oid next_oid0)
    ~clock:(max clock clock0);
  Database.set_current_cc db (max cc (Database.current_cc db))

(* Before mutating the serving database, note each touched object's
   committed pre-image in the version store (first capture wins), so a
   snapshot opened at an older applied clock keeps reading the state
   it began at instead of falling through to the freshly-applied
   one. *)
let note_bases t db ops =
  match t.mvcc with
  | None -> ()
  | Some vs ->
      List.iter
        (fun op ->
          match op with
          | Wal_record.Obj_put { oid; _ } | Obj_delete { oid; _ } ->
              let base =
                match Database.find db oid with
                | Some inst ->
                    Some
                      {
                        Version_store.inst = Instance.copy inst;
                        rrefs = Database.rrefs db oid;
                      }
                | None -> None
              in
              Version_store.note_base vs oid base
          | _ -> ())
        ops

let seal_tx t tx ~next_oid ~clock ~cc =
  let ops =
    List.rev (Option.value (Hashtbl.find_opt t.pending tx) ~default:[])
  in
  Hashtbl.remove t.pending tx;
  match t.serving with
  | None -> ()  (* absorbed by the first checkpoint's catalog *)
  | Some db ->
      note_bases t db ops;
      List.iter (apply_logical db) ops;
      advance_counters db ~next_oid ~clock ~cc;
      (match t.mvcc with
      | Some vs -> Version_store.publish_records vs ~clock ops
      | None -> ());
      Obs.incr t.applied_commits;
      if ops <> [] then Database.emit db Database.Invalidated

(* Full catalog resync: make the serving database agree with the
   mirror store exactly as the checkpoint sealed it.  This also heals
   divergence no logical record covers — the primary's
   non-transactional mutations ship physically at its next checkpoint,
   the same durability stance its own crash recovery takes.

   The version store is deliberately not fed here: everything the
   resync rewrites that a commit record also covered is already
   versioned, and what only the checkpoint covers (non-transactional
   DDL-adjacent state) is read live by snapshots anyway — the same
   stance the primary takes for schema reads. *)
let resync db mirror =
  let cat =
    match Store.read_catalog mirror with
    | Some blob -> Persist.decode_catalog blob
    | None -> raise (Fatal "replica: checkpoint sealed without a catalog")
  in
  Schema.reimport (Database.schema db) cat.Persist.cat_schema;
  let live = Hashtbl.create 256 in
  List.iter
    (fun (e : Persist.catalog_entry) ->
      Hashtbl.replace live e.ce_oid ();
      match Store.read mirror e.ce_rid with
      | None -> raise (Fatal "replica: catalog names a missing record")
      | Some data ->
          let inst = Codec.decode data in
          inst.Instance.rid <- None;
          inst.Instance.cluster_with <- e.ce_cluster_with;
          detach_rid db e.ce_oid;
          Database.add db inst;
          if cat.cat_external_rrefs then
            Database.set_rrefs db e.ce_oid e.ce_rrefs)
    cat.cat_entries;
  let stale =
    Database.fold db ~init:[] ~f:(fun acc i ->
        if Hashtbl.mem live i.Instance.oid then acc else i.Instance.oid :: acc)
  in
  List.iter
    (fun oid ->
      detach_rid db oid;
      Database.remove db oid)
    stale;
  advance_counters db ~next_oid:cat.cat_next_oid ~clock:cat.cat_clock
    ~cc:cat.cat_cc;
  Database.emit db Database.Invalidated

let on_checkpoint t =
  Hashtbl.reset t.pending;
  let mirror = mirror_exn t in
  (* Shipped [Page_write]s go straight to the disk image, under any
     pages the buffer pool cached — drop the cache so catalog reads
     see the checkpoint's bytes. *)
  Store.drop_cache mirror;
  (match t.serving with
  | None -> t.serving <- Some (Persist.load mirror)
  | Some db -> resync db mirror);
  t.checkpoints <- t.checkpoints + 1;
  (* The replica's own durable snapshot, byte-identical to the
     primary's: a promoted replica restarts from it like any primary. *)
  Store.save_file mirror t.db_path

let apply_record t r =
  (match r with
  | Wal_record.Genesis { page_size } -> (
      match t.mirror with
      | None -> t.mirror <- Some (Store.create ~page_size ())
      | Some _ -> raise (Fatal "replica: duplicate genesis in stream"))
  | Page_alloc { page_no } ->
      let got = Disk.alloc (Store.disk (mirror_exn t)) in
      if got <> page_no then
        raise
          (Fatal
             (Printf.sprintf
                "replica: page allocation replayed out of order (%d, expected \
                 %d)"
                got page_no))
  | Page_write { page_no; image } ->
      Disk.write (Store.disk (mirror_exn t)) page_no image
  | Segment_new { id } -> Store.restore_segment (mirror_exn t) id
  | Record_put { rid } -> Store.restore_record (mirror_exn t) rid
  | Record_delete { rid } -> Store.forget_record (mirror_exn t) rid
  | Catalog_set { page } -> Store.restore_catalog (mirror_exn t) page
  | Obj_put _ | Obj_delete _ | Commit _ | Commit_group _ | Checkpoint_begin
  | Checkpoint ->
      ());
  match r with
  | Wal_record.Obj_put { tx; _ } | Obj_delete { tx; _ } ->
      let sofar = Option.value (Hashtbl.find_opt t.pending tx) ~default:[] in
      Hashtbl.replace t.pending tx (r :: sofar)
  | Commit { tx; next_oid; clock; cc } -> seal_tx t tx ~next_oid ~clock ~cc
  | Commit_group { txs; next_oid; clock; cc } ->
      List.iter (fun tx -> seal_tx t tx ~next_oid ~clock ~cc) txs
  | Checkpoint -> on_checkpoint t
  | _ -> ()

let ingest t ~lsn data =
  let size = Wal.size t.wal in
  if lsn <> size then
    raise
      (Fatal
         (Printf.sprintf "replica: stream gap (batch at LSN %d, local log at %d)"
            lsn size));
  let records = Wal.decode_frames data in
  Wal.append_raw t.wal data;
  List.iter (apply_record t) records;
  Obs.incr t.applied_frames ~by:(List.length records);
  Obs.incr t.applied_bytes ~by:(Bytes.length data)

(* Restart path: the local log already mirrors a prefix of the
   primary's — rebuild mirror and serving database from it before
   subscribing for the rest.  A torn tail (killed mid-sync) is legal
   crash residue: chop it and resume from the intact prefix. *)
let replay_local t =
  if Wal.size t.wal > 0 then begin
    let { Wal.records; torn_tail; valid_bytes } = Wal.scan t.wal in
    if torn_tail then Wal.tear t.wal ~bytes:(Wal.size t.wal - valid_bytes);
    List.iter (apply_record t) records
  end

(* {1 Streaming} *)

let send conn req =
  Buffer.add_bytes conn.out (Frame.encode (Message.encode_request req))

(* Write what the socket accepts now; the rest waits for writability. *)
let flush conn =
  let pending = Buffer.to_bytes conn.out in
  match Unix.write conn.fd pending 0 (Bytes.length pending) with
  | n ->
      Buffer.clear conn.out;
      Buffer.add_subbytes conn.out pending n (Bytes.length pending - n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (e, _, _) ->
      raise (Link_down ("write: " ^ Unix.error_message e))

let close_link t =
  match t.link with
  | Connecting fd | Up { fd; _ } ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.link <- Down 0.
  | Down _ | Stopped -> ()

(* Greet and subscribe in one burst: the replies come back in order,
   ahead of the first pushes. *)
let established t fd =
  let conn = { fd; splitter = Frame.Splitter.create (); out = Buffer.create 64 } in
  t.link <- Up conn;
  send conn (Message.Hello { version = Message.version; client = t.client_name });
  send conn (Message.Repl_subscribe { from_lsn = Wal.size t.wal });
  flush conn

let dial t =
  (* A write racing the primary's close must surface as EPIPE, not kill
     the process — bootstrap runs before the server ignores SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket (Addr.domain t.primary) Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  t.link <- Connecting fd;
  match Unix.connect fd (Addr.to_sockaddr t.primary) with
  | () -> established t fd
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (e, _, _) ->
      raise (Link_down ("connect: " ^ Unix.error_message e))

(* The one apply function for a message from the primary, during
   bootstrap and on the reactor alike.  [`Frames] means log bytes were
   appended (the caller syncs, then acks); [`Heartbeat] asks for an
   ack alone. *)
let receive t = function
  | Message.Push (Message.Repl_frames { lsn; data }) ->
      ingest t ~lsn data;
      `Frames
  | Message.Push (Message.Repl_heartbeat _) -> `Heartbeat
  | Message.Push (Message.Goodbye { msg }) ->
      raise (Link_down ("primary shut down: " ^ msg))
  | Message.Push (Message.Deadlock_victim _) -> `Nothing
  | Message.Reply (Message.Welcome _) -> `Nothing
  | Message.Reply (Message.Repl_ok _) ->
      t.backoff <- 0.2;
      `Nothing
  | Message.Reply (Message.Error { code = Message.Repl_error; msg }) ->
      raise (Fatal ("replica: subscription refused: " ^ msg))
  | Message.Reply _ -> raise (Link_down "unexpected reply from the primary")

(* Read one chunk, apply every complete message in it, then sync the
   local log once and acknowledge what is now durable. *)
let pull t conn =
  match Unix.read conn.fd t.chunk 0 (Bytes.length t.chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (e, _, _) ->
      raise (Link_down ("read: " ^ Unix.error_message e))
  | 0 -> raise (Link_down "primary closed the connection")
  | n ->
      let frames = ref false and ack = ref false in
      let rec drain () =
        match Frame.Splitter.next conn.splitter with
        | None -> ()
        | Some payload ->
            (match receive t (Message.decode_server payload) with
            | `Frames -> frames := true
            | `Heartbeat -> ack := true
            | `Nothing -> ());
            drain ()
      in
      let broken =
        match
          Frame.Splitter.feed conn.splitter t.chunk ~len:n;
          drain ()
        with
        | () -> None
        | exception (Frame.Corrupt msg | Orion_storage.Bytes_rw.Reader.Corrupt msg)
          ->
            Some (Link_down ("corrupt frame: " ^ msg))
        | exception e -> Some e
      in
      (* What was applied before a goodbye or a bad frame is still
         synced: the resubscription starts from the local log's size. *)
      if !frames then Wal.sync t.wal;
      match broken with
      | Some e -> raise e
      | None ->
          if !frames || !ack then
            send conn (Message.Repl_ack { lsn = Wal.size t.wal })

let watch t ~now =
  (match t.link with
  | Down at when now >= at -> dial t
  | Down _ | Connecting _ | Up _ | Stopped -> ());
  match t.link with
  | Connecting fd -> ([], [ fd ])
  | Up conn -> ([ conn.fd ], if Buffer.length conn.out > 0 then [ conn.fd ] else [])
  | Down _ | Stopped -> ([], [])

let step t ~readable ~writable =
  match t.link with
  | Connecting fd when List.mem fd writable -> (
      match Unix.getsockopt_error fd with
      | None -> established t fd
      | Some e -> raise (Link_down ("connect: " ^ Unix.error_message e)))
  | Up conn ->
      if List.mem conn.fd readable then pull t conn;
      if Buffer.length conn.out > 0 then flush conn
  | Connecting _ | Down _ | Stopped -> ()

(* A dead link redials after the backoff ([f] then yields [down]).
   Anything else — stream damage, a refused subscription, a failing
   local log — stops the stream for good as [Fatal]; reads keep being
   served from the last good state. *)
let guard t ~down f =
  match f () with
  | v -> v
  | exception Link_down _ ->
      close_link t;
      Obs.incr t.reconnects;
      t.link <- Down (Unix.gettimeofday () +. t.backoff);
      t.backoff <- Float.min 2.0 (t.backoff *. 2.);
      down
  | exception e ->
      let msg =
        match e with Fatal msg -> msg | e -> "replica: " ^ Printexc.to_string e
      in
      close_link t;
      t.link <- Stopped;
      t.failed <- Some msg;
      raise (Fatal msg)

(* The reactor's side: a stopped stream is reported once, never raised. *)
let poll_fds t ~now =
  try guard t ~down:([], []) (fun () -> watch t ~now)
  with Fatal msg ->
    prerr_endline msg;
    ([], [])

let service t ~readable ~writable =
  try guard t ~down:() (fun () -> step t ~readable ~writable)
  with Fatal msg -> prerr_endline msg

let bootstrap ?(dial_attempts = 50) t =
  replay_local t;
  let failures () = Obs.counter_value t.reconnects in
  let failed_before = failures () in
  while t.serving = None do
    if failures () - failed_before >= dial_attempts then begin
      close_link t;
      raise (Fatal "replica: primary unreachable during bootstrap")
    end;
    let reads, writes =
      guard t ~down:([], []) (fun () -> watch t ~now:(Unix.gettimeofday ()))
    in
    match Unix.select reads writes [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ -> guard t ~down:() (fun () -> step t ~readable ~writable)
  done;
  close_link t;
  db t

let failed t = t.failed

(* Promotion, or shutdown: drop the connection and never redial. *)
let stop t =
  close_link t;
  t.link <- Stopped

(* Save the replica's durable state on graceful shutdown: the mirror
   store image and the synced local log.  Deliberately NOT the primary
   shutdown path — [Persist.save] on the serving database would
   checkpoint its workspace into the mirror and diverge it from the
   primary's bytes. *)
let save t =
  (match t.mirror with
  | Some mirror -> Store.save_file mirror t.db_path
  | None -> ());
  Wal.sync t.wal
