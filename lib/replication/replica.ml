open Orion_core
module Obs = Orion_obs.Metrics
module Wal = Orion_wal.Wal
module Wal_record = Orion_wal.Wal_record
module Store = Orion_storage.Store
module Disk = Orion_storage.Disk
module Message = Orion_protocol.Message
module Addr = Orion_protocol.Addr
module Schema = Orion_schema.Schema
module Version_store = Orion_mvcc.Version_store

exception Fatal of string

(* Raised inside the stream loop when the replica is sealed (promoted
   or stopping) — unwinds to the loop exit, never escapes. *)
exception Sealed_exn

type t = {
  primary : Addr.t;
  client_name : string;
  wal : Wal.t;  (** local byte-for-byte mirror of the primary's log *)
  db_path : string;  (** mirror snapshots land here (checkpoint cadence) *)
  mutable mirror : Store.t option;  (** physical replay target *)
  mutable serving : Database.t option;  (** built at the first sealed checkpoint *)
  pending : (int, Wal_record.t list) Hashtbl.t;  (** tx → ops, newest first *)
  mutable sealed : bool;
  mutable failed : string option;
  mutable locked : (unit -> unit) -> unit;
  mutable client : Orion_client.t option;
  mutable mvcc : Version_store.t option;
      (** feeds replica-side snapshot reads; installed by the server
          once the serving database exists *)
  mutable thread : Thread.t option;
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
      sealed = false;
      failed = None;
      locked = (fun f -> f ());
      client = None;
      mvcc = None;
      thread = None;
      checkpoints = 0;
      applied_frames = Obs.counter "repl.applied_frames";
      applied_bytes = Obs.counter "repl.applied_bytes";
      applied_commits = Obs.counter "repl.applied_commits";
      reconnects = Obs.counter "repl.reconnects";
    }
  in
  Obs.gauge "repl.applied_lsn" (fun () -> Wal.size t.wal);
  Obs.gauge "repl.connected" (fun () ->
      if t.client <> None && not t.sealed then 1 else 0);
  t

let db t =
  match t.serving with
  | Some db -> db
  | None -> raise (Fatal "replica: no serving database before first checkpoint")

let wal t = t.wal
let db_path t = t.db_path
let applied_lsn t = Wal.size t.wal
let sealed t = t.sealed
let checkpoints t = t.checkpoints
let set_locked t locked = t.locked <- locked
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
     primary's: a promoted replica restarts from it like any primary.
     The applier holds the service lock here (records apply under it),
     so the snapshot's fsync is the replica's side of the primary's
     checkpoint-durability exemption. *)
  Orion_util.Omutex.allow_blocking "checkpoint-durability" (fun () ->
      Store.save_file mirror t.db_path)

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

let dial t =
  let c = Orion_client.connect ~client_name:t.client_name t.primary in
  t.client <- Some c;
  (match Orion_client.repl_subscribe c ~from_lsn:(Wal.size t.wal) with
  | (_ : int) -> ()
  | exception Orion_client.Error (Message.Repl_error, msg) ->
      Orion_client.close c;
      t.client <- None;
      raise (Fatal ("replica: subscription refused: " ^ msg)));
  c

let drop_client t =
  (match t.client with
  | Some c -> ( try Orion_client.close c with _ -> ())
  | None -> ());
  t.client <- None

(* One push.  Raises [Sealed_exn] once sealed, [Disconnected] on a
   dead primary, [Fatal] on stream damage. *)
let step t c =
  match Orion_client.next_push c with
  | Message.Repl_frames { lsn; data } ->
      t.locked (fun () -> if not t.sealed then ingest t ~lsn data);
      if t.sealed then raise Sealed_exn;
      Wal.sync t.wal;
      Orion_client.repl_ack c ~lsn:(Wal.size t.wal)
  | Message.Repl_heartbeat _ ->
      if t.sealed then raise Sealed_exn;
      Orion_client.repl_ack c ~lsn:(Wal.size t.wal)
  | Message.Goodbye { msg } ->
      raise (Orion_client.Disconnected ("primary shut down: " ^ msg))
  | Message.Deadlock_victim _ -> ()

let bootstrap ?(dial_attempts = 50) t =
  replay_local t;
  let backoff = ref 0.2 in
  let attempts = ref 0 in
  let rec go () =
    if t.sealed then raise (Fatal "replica: sealed during bootstrap");
    match
      let c = dial t in
      while t.serving = None && not t.sealed do
        step t c
      done
    with
    | () -> ()
    | exception
        ( Orion_client.Disconnected _ | Orion_client.Error _
        | Unix.Unix_error _ ) ->
        drop_client t;
        incr attempts;
        if !attempts >= dial_attempts then
          raise (Fatal "replica: primary unreachable during bootstrap");
        Unix.sleepf !backoff;
        backoff := Float.min 2.0 (!backoff *. 2.);
        go ()
  in
  go ();
  db t

let start t =
  let run () =
    let backoff = ref 0.2 in
    (try
       while not t.sealed && t.failed = None do
         match
           let c =
             match t.client with Some c -> c | None -> dial t
           in
           backoff := 0.2;
           while true do
             step t c
           done
         with
         | () -> ()
         | exception Sealed_exn -> ()
         | exception Fatal msg ->
             prerr_endline msg;
             t.failed <- Some msg
         | exception
             ( Orion_client.Disconnected _ | Orion_client.Error _
             | Unix.Unix_error _ ) ->
             drop_client t;
             if not t.sealed then begin
               Obs.incr t.reconnects;
               Unix.sleepf !backoff;
               backoff := Float.min 2.0 (!backoff *. 2.)
             end
       done
     with e ->
       t.failed <- Some (Printexc.to_string e);
       prerr_endline ("replica: applier died: " ^ Printexc.to_string e));
    drop_client t
  in
  t.thread <- Some (Thread.create run ())

let failed t = t.failed

(* Promote half one: flip the flag under the service lock so any
   in-flight batch the applier holds is discarded, not applied over
   the new primary's writes. *)
let seal t = t.sealed <- true

let stop t =
  seal t;
  (match t.client with Some c -> Orion_client.shutdown c | None -> ());
  (match t.thread with Some thr -> Thread.join thr | None -> ());
  t.thread <- None

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
