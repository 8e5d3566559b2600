(* The reactor: one select loop that owns the listener, the session
   table, the parked transactions and the read buffer.  Anything
   touching the transactional core (database, lock table, tx ownership)
   runs under the service lock, taken once per tick around the whole
   dispatch batch.  The group committer's verdicts arrive as
   [Tx_service.peer_msg] through the inbox + wake pipe; signal handlers
   stop the reactor through the wake pipe alone. *)

module Eval = Orion_dsl.Eval
module Tx = Orion_tx.Tx_manager
module Frame = Orion_protocol.Frame
module Message = Orion_protocol.Message
module Sexp = Orion_util.Sexp
module Omutex = Orion_util.Omutex
module Obs = Orion_obs.Metrics
module Tailer = Orion_replication.Tailer
module Snapshot_read = Orion_mvcc.Snapshot_read
open Orion_core

type addr = Orion_protocol.Addr.t = Tcp of string * int | Unix_path of string

type config = {
  max_sessions : int;
  queue_limit : int;
  idle_timeout : float option;
  lock_timeout : float option;
  metrics_interval : float option;
  group_commit_window : float;
}

let default_config =
  {
    max_sessions = 64;
    queue_limit = 16;
    idle_timeout = None;
    lock_timeout = Some 30.;
    metrics_interval = None;
    group_commit_window = 0.;
  }

type session = {
  sid : int;
  fd : Unix.file_descr;
  splitter : Frame.Splitter.t;
  queue : Message.request Queue.t;  (* decoded, not yet processed *)
  out : Bytes.t Queue.t;  (* framed replies awaiting the socket *)
  mutable out_off : int;  (* consumed prefix of [Queue.peek out] *)
  mutable greeted : bool;
  mutable tx : Tx.tx option;
  mutable snap : Tx.snapshot_tx option;
      (* open read-only snapshot: Components_of/Ancestors_of/Read_attr
         resolve against the version store at its begin clock, without
         a single lock-table entry.  Mutually exclusive with [tx]. *)
  mutable committing : Tx.tx option;
      (* submitted to the group committer; the session is gated (no
         further requests dispatch) until [Commit_done] settles it *)
  mutable parked_req : Message.request option;
  mutable parked_since : float;
  mutable deadlock_note : string option;
      (* the transaction was aborted as a deadlock victim while the
         session was not parked; the next transactional request is
         answered [Conflict] instead of [Bad_request] *)
  mutable last_activity : float;
  mutable closing : bool;  (* flush [out], then close *)
  mutable repl_sub : int option;
      (* tailer subscription: the session is a replica consuming this
         primary's WAL stream *)
}

type phase = Running | Draining of float (* deadline *) | Killed

type t = {
  config : config;
  svc : Tx_service.t;
  listen : Unix.file_descr;  (* open while [phase = Running] *)
  addr : addr;  (* bound address *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  inbox_mu : Omutex.t;
  inbox : Tx_service.peer_msg Queue.t;
  sessions : (int, session) Hashtbl.t;
  mutable next_sid : int;
  mutable n_parked : int;  (* refreshed every tick, for stats readers *)
  read_buf : Bytes.t;
  mutable phase : phase;
  mutable drain_pending : bool;
  mutable was_killed : bool;
}

let create ~config ~svc ~listen ~addr =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  {
    config;
    svc;
    listen;
    addr;
    wake_r;
    wake_w;
    inbox_mu = Omutex.create Omutex.shard_inbox;
    inbox = Queue.create ();
    sessions = Hashtbl.create 32;
    next_sid = 0;
    n_parked = 0;
    read_buf = Bytes.create 65536;
    phase = Running;
    drain_pending = false;
    was_killed = false;
  }

let session_count t = Hashtbl.length t.sessions
let parked_count t = t.n_parked
let killed t = t.was_killed

let wake t byte =
  try ignore (Unix.write t.wake_w (Bytes.make 1 byte) 0 1 : int)
  with Unix.Unix_error _ -> ()

let enqueue t msg =
  Omutex.lock t.inbox_mu;
  Queue.push msg t.inbox;
  Omutex.unlock t.inbox_mu;
  wake t 'M'

(* [stop]/[kill] bytes bypass the inbox: a signal handler must not take
   the inbox mutex (it could interrupt the owner mid-enqueue). *)
let request_stop t = wake t 'G'
let request_kill t = wake t 'K'

let take_inbox t =
  Omutex.lock t.inbox_mu;
  let msgs = List.of_seq (Queue.to_seq t.inbox) in
  Queue.clear t.inbox;
  Omutex.unlock t.inbox_mu;
  msgs

(* The true gauge: how many sessions are parked right now (the
   lifetime [parks] counter only ever grows). *)
let parked_sessions t =
  Hashtbl.fold
    (fun _ s n -> if s.parked_req <> None then n + 1 else n)
    t.sessions 0

(* Outbound ------------------------------------------------------------------- *)

let send session msg =
  Queue.push (Frame.encode (Message.encode_server msg)) session.out

let reply session r = send session (Message.Reply r)
let push session p = send session (Message.Push p)

let error session code msg = reply session (Message.Error { code; msg })

let flush_out session =
  (* Write as much of the pending frames as the socket accepts.  A
     declared blocking point: sockets are non-blocking, but a write is
     still a syscall a no-block lock holder has no business waiting
     on. *)
  Omutex.blocking ~op:"socket.write" @@ fun () ->
  let progress = ref true in
  while !progress && not (Queue.is_empty session.out) do
    let head = Queue.peek session.out in
    let remaining = Bytes.length head - session.out_off in
    match Unix.write session.fd head session.out_off remaining with
    | written ->
        if written = remaining then begin
          ignore (Queue.pop session.out : Bytes.t);
          session.out_off <- 0
        end
        else begin
          session.out_off <- session.out_off + written;
          progress := false
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        progress := false
    | exception Unix.Unix_error _ ->
        (* EPIPE/ECONNRESET and kin (SIGPIPE is ignored, so a write to
           a vanished peer surfaces here): the pending output is
           undeliverable.  Drop it and mark the session closing; the
           reactor then destroys it — aborting its transaction — the
           same way {!feed} handles read-side death. *)
        Queue.clear session.out;
        session.out_off <- 0;
        session.closing <- true
  done

(* Session lifecycle ----------------------------------------------------------- *)

(* A park just ended (grant, conflict, deadlock abort or timeout):
   record how long the session waited for its lock — in the total
   histogram, and in a per-class one ([lock.wait_seconds{class=C}])
   when the parked request's target still resolves to a class (the
   holder may have deleted it, in which case only the total sees the
   wait). *)
let parked_class t session =
  match session.parked_req with
  | Some (Message.Lock_composite { root = oid; _ })
  | Some (Message.Lock_instance { oid; _ })
  | Some (Message.Components_of oid)
  | Some (Message.Ancestors_of oid)
  | Some (Message.Read_attr { oid; _ }) ->
      Option.map (fun i -> i.Instance.cls) (Database.find t.svc.Tx_service.db oid)
  | _ -> None

let observe_wait t session =
  let elapsed = Unix.gettimeofday () -. session.parked_since in
  Obs.observe t.svc.Tx_service.lock_wait_hist elapsed;
  match parked_class t session with
  | None -> ()
  | Some cls -> Obs.observe (Tx_service.class_wait_hist t.svc cls) elapsed

(* Everything from here to the end of [handle] runs with the service
   lock held (the per-tick dispatch batch). *)

let rec destroy t session =
  Hashtbl.remove t.sessions session.sid;
  (match session.repl_sub with
  | Some id ->
      session.repl_sub <- None;
      (match t.svc.Tx_service.repl with
      | Tx_service.Primary tailer -> Tailer.unsubscribe tailer id
      | Tx_service.Standalone | Tx_service.Replica_of _ -> ())
  | None -> ());
  (match session.tx with
  | Some tx ->
      session.tx <- None;
      Tx_service.disown t.svc ~tx_id:(Tx.tx_id tx);
      resume t (Tx.abort t.svc.Tx_service.manager tx)
  | None -> ());
  (match session.snap with
  | Some snap ->
      session.snap <- None;
      Tx.end_snapshot t.svc.Tx_service.manager snap
  | None -> ());
  (* A commit in flight with the group committer is past the point of
     no return: [Commit_done] finishes the transaction (releasing its
     locks) whether or not the session is still here to be told. *)
  (try Unix.close session.fd with Unix.Unix_error _ -> ())

(* Wake every parked session whose transaction the lock table just
   unblocked: re-poll its parked request. *)
and resume t tx_ids = List.iter (resume_one t) tx_ids

and resume_one t tx_id =
  match Tx_service.owner t.svc ~tx_id with
  | None -> ()
  | Some sid -> (
      match Hashtbl.find_opt t.sessions sid with
      | None -> ()
      | Some session -> (
          match session.parked_req with
          | None -> ()
          | Some req -> (
              match retry_lock t session req with
              | `Granted ->
                  observe_wait t session;
                  session.parked_req <- None;
                  (match answer_granted t session req with
                  | () -> ()
                  | exception Core_error.Error e ->
                      (* The locks came through but the read's target
                         vanished before they did (deleted by the very
                         holder we waited out). *)
                      error session Message.Eval_error
                        (Format.asprintf "%a" Core_error.pp e));
                  pump t session
              | `Blocked ->
                  (* Still waiting, now on a later lock of the set: a
                     fresh wait-for edge.  The manager's generation
                     counter recorded it; the next tick's
                     [deadlock_check_due] sees it. *)
                  ()
              | exception Core_error.Error e ->
                  (* The lock target vanished while the session was
                     parked (the holder deleted it and committed),
                     so the lock set can no longer be re-derived.
                     The transaction is still [Blocked] and could
                     never commit: abort it and answer the parked
                     request with the conflict. *)
                  observe_wait t session;
                  session.parked_req <- None;
                  let note =
                    Format.asprintf "%a; transaction aborted" Core_error.pp e
                  in
                  (match session.tx with
                  | Some tx ->
                      session.tx <- None;
                      Tx_service.disown t.svc ~tx_id:(Tx.tx_id tx);
                      let unblocked = Tx.abort t.svc.Tx_service.manager tx in
                      error session Message.Conflict note;
                      resume t unblocked
                  | None -> error session Message.Conflict note);
                  pump t session)))

and retry_lock t session req =
  match (session.tx, req) with
  | Some tx, Message.Lock_composite { root; access } ->
      Tx.lock_composite t.svc.Tx_service.manager tx ~root (protocol_access access)
  | Some tx, Message.Lock_instance { oid; access } ->
      Tx.lock_instance t.svc.Tx_service.manager tx oid (protocol_access access)
  (* Live reads inside a transaction lock what they read (the §7 read
     protocols), so they serialize against concurrent composite
     updates instead of racing them.  Re-derivation on retry is sound:
     mutations only run under the core lock, which the whole dispatch
     batch holds. *)
  | Some tx, Message.Components_of root ->
      Tx.lock_composite t.svc.Tx_service.manager tx ~root
        Orion_locking.Protocol.Read_
  | Some tx, Message.Read_attr { oid; _ } ->
      Tx.lock_instance t.svc.Tx_service.manager tx oid
        Orion_locking.Protocol.Read_
  | Some tx, Message.Ancestors_of oid -> lock_ancestor_path t tx oid
  | _ -> `Granted

(* [ancestors-of] reads the upward path, not a composite subtree: lock
   the instance itself, then every ancestor on the path.  Strict 2PL
   keeps the prefix granted across a park; the retry re-derives the
   path and re-requests (already-held locks grant immediately). *)
and lock_ancestor_path t tx oid =
  let manager = t.svc.Tx_service.manager in
  match Tx.lock_instance manager tx oid Orion_locking.Protocol.Read_ with
  | `Blocked -> `Blocked
  | `Granted ->
      let rec go = function
        | [] -> `Granted
        | a :: rest -> (
            match Tx.lock_instance manager tx a Orion_locking.Protocol.Read_ with
            | `Granted -> go rest
            | `Blocked -> `Blocked)
      in
      go (Traversal.ancestors_of t.svc.Tx_service.db oid)

(* Answer a request whose locks are (now) granted: lock requests get
   [Granted], transactional live reads get their result, read off the
   live database under the locks just taken. *)
and answer_granted t session req =
  let db = t.svc.Tx_service.db in
  match req with
  | Message.Components_of root ->
      reply session (Message.Result (Message.Objs (Traversal.components_of db root)))
  | Message.Ancestors_of root ->
      reply session (Message.Result (Message.Objs (Traversal.ancestors_of db root)))
  | Message.Read_attr { oid; attr } ->
      let v =
        Option.value ~default:Value.Null (Instance.attr (Database.get db oid) attr)
      in
      reply session (Message.Result (Message.Value v))
  | _ -> reply session Message.Granted

and protocol_access = function
  | Message.Read -> Orion_locking.Protocol.Read_
  | Message.Update -> Orion_locking.Protocol.Update

(* Decode buffered frames into the request queue, up to the bound.
   Frames beyond it stay in the splitter; {!pump} refills as the queue
   drains, so a pipelined burst never stalls even if the client goes
   quiet (the reactor only gets read events for {e new} bytes). *)
and refill t session =
  match
    while Queue.length session.queue < t.config.queue_limit do
      match Frame.Splitter.next session.splitter with
      | Some payload -> Queue.push (Message.decode_request payload) session.queue
      | None -> raise Exit
    done
  with
  | () -> ()
  | exception Exit -> ()
  | exception Frame.Corrupt msg
  | exception Orion_storage.Bytes_rw.Reader.Corrupt msg ->
      error session Message.Bad_request ("protocol error: " ^ msg);
      session.closing <- true

(* Process a session's decoded requests until it parks, closes, gates
   on an in-flight group commit, or runs dry. *)
and pump t session =
  if
    (not session.closing)
    && session.parked_req = None
    && session.committing = None
  then begin
    if Queue.is_empty session.queue then refill t session;
    if (not session.closing) && not (Queue.is_empty session.queue) then begin
      let req = Queue.pop session.queue in
      Obs.incr t.svc.Tx_service.requests;
      Obs.Span.time ~histogram:t.svc.Tx_service.dispatch_hist "server.dispatch"
        (fun () -> handle t session req);
      pump t session
    end
  end

and handle t session req =
  let svc = t.svc in
  let manager = svc.Tx_service.manager in
  let v_of_eval : Eval.v -> Message.v = function
    | Eval.Obj oid -> Message.Obj oid
    | Eval.Objs oids -> Message.Objs oids
    | Eval.Bool b -> Message.Bool b
    | Eval.Num n -> Message.Num n
    | Eval.Str s -> Message.Str s
    | Eval.Unit -> Message.Unit
  in
  (* A session whose transaction was sacrificed to a deadlock while it
     was between requests learns about it on its next transactional
     request. *)
  let conflict_or code msg =
    match session.deadlock_note with
    | Some note ->
        session.deadlock_note <- None;
        error session Message.Conflict note
    | None -> error session code msg
  in
  match req with
  | Message.Hello { version; client = _ } ->
      if version <> Message.version then begin
        error session Message.Unsupported_version
          (Printf.sprintf "server speaks version %d, client sent %d"
             Message.version version);
        session.closing <- true
      end
      else begin
        session.greeted <- true;
        reply session (Message.Welcome { version = Message.version; session = session.sid })
      end
  | _ when not session.greeted ->
      error session Message.Bad_request "first request must be hello";
      session.closing <- true
  | ( Message.Begin | Message.Commit | Message.Abort
    | Message.Lock_composite _ | Message.Lock_instance _ | Message.Make _ )
    when svc.Tx_service.read_only ->
      (* Evaluated mutations and DDL are refused one layer down (the
         replica's mutator and DDL gate); the typed write requests are
         refused here at dispatch. *)
      error session Message.Read_only
        "read-only replica: write on the primary, or promote this node"
  | Message.Eval src -> (
      match Sexp.parse_many src with
      | exception Sexp.Parse_error msg -> error session Message.Parse_error msg
      | forms -> (
          (* Inside a transaction, evaluated object mutations must be
             transactional like the typed requests — undo on abort,
             after-images at commit — so route them through the
             manager for the duration of the eval.  Dispatch holds the
             service lock: no other session can observe the swap. *)
          let ambient_mutator = Eval.mutator svc.Tx_service.env in
          (match session.tx with
          | None -> ()
          | Some tx ->
              Eval.set_mutator svc.Tx_service.env
                (Some
                   {
                     Eval.m_create =
                       (fun ~cls ~parents ~attrs ->
                         Tx.create_object manager tx ~cls ~parents ~attrs ());
                     m_write_attr =
                       (fun oid attr v -> Tx.write_attr manager tx oid attr v);
                     m_make_component =
                       (fun ~parent ~attr ~child ->
                         Tx.make_component manager tx ~parent ~attr ~child);
                     m_remove_component =
                       (fun ~parent ~attr ~child ->
                         Tx.remove_component manager tx ~parent ~attr ~child);
                     m_delete = (fun oid -> Tx.delete_object manager tx oid);
                   }));
          match
            Fun.protect
              ~finally:(fun () ->
                Eval.set_mutator svc.Tx_service.env ambient_mutator)
              (fun () ->
                List.fold_left
                  (fun _ form -> Eval.eval svc.Tx_service.env form)
                  Eval.Unit forms)
          with
          | result -> reply session (Message.Result (v_of_eval result))
          | exception Eval.Eval_error msg -> error session Message.Eval_error msg
          | exception Core_error.Error e ->
              error session Message.Eval_error (Format.asprintf "%a" Core_error.pp e)
          | exception Orion_schema.Schema.Error e ->
              error session Message.Eval_error
                (Format.asprintf "%a" Orion_schema.Schema.pp_error e)))
  | Message.Begin -> (
      match (session.tx, session.snap) with
      | Some tx, _ ->
          error session Message.Bad_request
            (Printf.sprintf "transaction %d already open" (Tx.tx_id tx))
      | None, Some _ ->
          error session Message.Bad_request
            "snapshot open on this session (end-snapshot first)"
      | None, None ->
          let tx = Tx.begin_tx manager in
          session.tx <- Some tx;
          session.deadlock_note <- None;
          Tx_service.claim svc ~tx_id:(Tx.tx_id tx) ~sid:session.sid;
          reply session (Message.Result (Message.Num (Tx.tx_id tx))))
  | Message.Commit -> (
      match session.tx with
      | None -> conflict_or Message.Bad_request "no open transaction"
      | Some tx -> (
          match svc.Tx_service.gc with
          | Some gc when Tx.state tx = Tx.Active && not (Tx.read_only tx) ->
              (* Group commit: capture the after-images, park the
                 transaction in [Committing] (locks stay held across
                 the batch sync — strict 2PL), and gate the session.
                 The reply waits for the committer's verdict; the
                 ownership claim stays until [Commit_done] so
                 checkpoints see the commit as still open. *)
              let records, (next_oid, clock, cc) = Tx.submit_commit manager tx in
              session.tx <- None;
              session.committing <- Some tx;
              let eager = Tx_service.submit_is_eager svc in
              let sid = session.sid in
              Orion_wal.Group_commit.submit gc ~tx:(Tx.tx_id tx) ~records
                ~next_oid ~clock ~cc ~eager
                ~notify:(fun ~ok ~err ->
                  enqueue t (Tx_service.Commit_done { sid; tx; ok; err }))
          | _ -> (
              (* Lock release: a read-only commit, or any commit on a
                 server without a log (the manager logs nothing). *)
              session.tx <- None;
              Tx_service.disown svc ~tx_id:(Tx.tx_id tx);
              match Tx.commit manager tx with
              | unblocked ->
                  reply session (Message.Result Message.Unit);
                  resume t unblocked
              | exception e ->
                  let unblocked = Tx.abort manager tx in
                  error session Message.Conflict
                    ("commit failed: " ^ Printexc.to_string e
                   ^ "; transaction aborted");
                  resume t unblocked)))
  | Message.Abort -> (
      match session.tx with
      | None -> (
          match session.deadlock_note with
          | Some _ ->
              (* The deadlock detector already aborted it; the client's
                 abort is its acknowledgement. *)
              session.deadlock_note <- None;
              reply session (Message.Result Message.Unit)
          | None -> error session Message.Bad_request "no open transaction")
      | Some tx ->
          session.tx <- None;
          Tx_service.disown svc ~tx_id:(Tx.tx_id tx);
          let unblocked = Tx.abort manager tx in
          reply session (Message.Result Message.Unit);
          resume t unblocked)
  | Message.Lock_composite _ | Message.Lock_instance _ -> (
      match session.tx with
      | None -> conflict_or Message.Bad_request "lock requires an open transaction"
      | Some _ -> (
          match retry_lock t session req with
          | `Granted -> reply session Message.Granted
          | `Blocked ->
              Obs.incr svc.Tx_service.parks;
              session.parked_req <- Some req;
              session.parked_since <- Unix.gettimeofday ()
          | exception Core_error.Error e ->
              error session Message.Eval_error (Format.asprintf "%a" Core_error.pp e)))
  | Message.Make { cls; parents; attrs } -> (
      match
        match session.tx with
        | Some tx -> Tx.create_object manager tx ~cls ~parents ~attrs ()
        | None -> Object_manager.create svc.Tx_service.db ~cls ~parents ~attrs ()
      with
      | oid -> reply session (Message.Result (Message.Obj oid))
      | exception Core_error.Error e ->
          error session Message.Eval_error (Format.asprintf "%a" Core_error.pp e))
  | Message.Components_of _ | Message.Ancestors_of _ | Message.Read_attr _ -> (
      match (session.snap, session.tx) with
      | Some snap, _ -> (
          (* Snapshot reads: the version store at the begin clock,
             without a single lock-table entry. *)
          match
            match req with
            | Message.Components_of root ->
                Message.Objs
                  (Snapshot_read.components_of (Tx.snapshot_view snap) root)
            | Message.Ancestors_of root ->
                Message.Objs
                  (Snapshot_read.ancestors_of (Tx.snapshot_view snap) root)
            | Message.Read_attr { oid; attr } ->
                Message.Value
                  (Option.value ~default:Value.Null
                     (Snapshot_read.attr (Tx.snapshot_view snap) oid attr))
            | _ -> assert false
          with
          | v -> reply session (Message.Result v)
          | exception Core_error.Error e ->
              error session Message.Eval_error
                (Format.asprintf "%a" Core_error.pp e))
      | None, Some _ -> (
          (* Transactional live read: take the read locks first (the
             same derivation a retry after a park uses), then read the
             live database under them.  Blocking parks the read like a
             lock request — the resume answers it with its result. *)
          match retry_lock t session req with
          | `Granted -> (
              match answer_granted t session req with
              | () -> ()
              | exception Core_error.Error e ->
                  error session Message.Eval_error
                    (Format.asprintf "%a" Core_error.pp e))
          | `Blocked ->
              Obs.incr svc.Tx_service.parks;
              session.parked_req <- Some req;
              session.parked_since <- Unix.gettimeofday ()
          | exception Core_error.Error e ->
              error session Message.Eval_error
                (Format.asprintf "%a" Core_error.pp e))
      | None, None ->
          (* An unlocked, unversioned read of the live database would
             see concurrent writers' uncommitted state.  Refuse rather
             than serve a dirty read. *)
          conflict_or Message.Bad_request
            "read requires an open transaction (begin) or a snapshot \
             (begin-snapshot; the CLI's --snapshot) — refusing a dirty \
             read of the live database")
  | Message.Begin_snapshot -> (
      match (session.tx, session.snap) with
      | Some _, _ ->
          error session Message.Bad_request
            "transaction open on this session (snapshots are lock-free reads; \
             commit or abort first)"
      | None, Some snap ->
          error session Message.Bad_request
            (Printf.sprintf "snapshot already open at clock %d"
               (Tx.snapshot_clock snap))
      | None, None ->
          (* Never refused on a read-only replica: a snapshot takes no
             locks and writes nothing — it reads at the applied clock. *)
          let snap = Tx.begin_snapshot manager in
          session.snap <- Some snap;
          reply session (Message.Result (Message.Num (Tx.snapshot_clock snap))))
  | Message.End_snapshot -> (
      match session.snap with
      | None -> error session Message.Bad_request "no open snapshot"
      | Some snap ->
          session.snap <- None;
          Tx.end_snapshot manager snap;
          reply session (Message.Result Message.Unit))
  | Message.Ping -> reply session Message.Pong
  | Message.Stats -> reply session (Message.Stats_reply (Obs.snapshot ()))
  | Message.Bye ->
      (match session.tx with
      | Some tx ->
          session.tx <- None;
          Tx_service.disown svc ~tx_id:(Tx.tx_id tx);
          resume t (Tx.abort manager tx)
      | None -> ());
      (match session.snap with
      | Some snap ->
          session.snap <- None;
          Tx.end_snapshot manager snap
      | None -> ());
      reply session (Message.Result Message.Unit);
      session.closing <- true
  | Message.Repl_subscribe { from_lsn } -> (
      match svc.Tx_service.repl with
      | Tx_service.Primary tailer ->
          if session.repl_sub <> None then
            error session Message.Repl_error "session already subscribed"
          else (
            match Tailer.subscribe tailer ~from_lsn with
            | Ok (id, durable) ->
                session.repl_sub <- Some id;
                reply session (Message.Repl_ok { lsn = durable })
            | Error msg -> error session Message.Repl_error msg)
      | Tx_service.Standalone ->
          error session Message.Repl_error
            "not a streaming primary (start with --repl)"
      | Tx_service.Replica_of _ ->
          error session Message.Repl_error
            "this node is a replica; subscribe to its primary")
  | Message.Repl_ack { lsn } -> (
      (* The protocol's one no-reply request: answering would desync
         the replica's in-order reply bookkeeping. *)
      match (svc.Tx_service.repl, session.repl_sub) with
      | Tx_service.Primary tailer, Some id -> Tailer.ack tailer id ~lsn
      | _ -> ())
  | Message.Promote -> (
      match Tx_service.promote svc with
      | Ok () ->
          prerr_endline
            (Printf.sprintf "orion: session %d promoted this replica to primary"
               session.sid);
          reply session (Message.Result Message.Unit)
      | Error msg -> error session Message.Repl_error msg)

(* Group-commit verdicts ------------------------------------------------------- *)

let process_msg t (Tx_service.Commit_done { sid; tx; ok; err }) =
  let svc = t.svc in
  Tx_service.disown svc ~tx_id:(Tx.tx_id tx);
  let unblocked =
    if ok then Tx.complete_commit svc.Tx_service.manager tx
    else Tx.commit_failed svc.Tx_service.manager tx
  in
  (match Hashtbl.find_opt t.sessions sid with
  | Some session
    when (match session.committing with
         | Some tx' -> Tx.tx_id tx' = Tx.tx_id tx
         | None -> false) ->
      session.committing <- None;
      if ok then reply session (Message.Result Message.Unit)
      else
        (* The batch's log write failed: [err] is the log's
           {!Orion_wal.Wal.failure_message}. *)
        error session Message.Io_error (err ^ "; transaction aborted");
      resume t unblocked;
      pump t session
  | Some _ | None ->
      (* The session died while its commit was in flight; the
         transaction still had to be finished (its locks freed). *)
      resume t unblocked)

(* Deadlock resolution --------------------------------------------------------- *)

let break_deadlocks t =
  let svc = t.svc in
  let manager = svc.Tx_service.manager in
  let rec go () =
    match Tx.find_deadlock manager with
    | None -> ()
    | Some cycle ->
        (* Abort the youngest transaction in the cycle (the same victim
           policy as the in-process Scheduler). *)
        let victim = List.fold_left max min_int cycle in
        Obs.incr svc.Tx_service.deadlock_victims;
        let msg =
          Format.asprintf "transaction %d aborted to break deadlock cycle [%a]"
            victim
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
               Format.pp_print_int)
            cycle
        in
        (* A victim with no live owning session must still be aborted
           through the manager: merely forgetting its id would leave
           its locks (and any queued request) in the table, and
           find_deadlock would return the same cycle forever. *)
        let abort_orphan () =
          Tx_service.disown svc ~tx_id:victim;
          resume t (Tx.abort_id manager victim)
        in
        (match Tx_service.owner svc ~tx_id:victim with
        | None -> abort_orphan ()
        | Some sid -> (
            match Hashtbl.find_opt t.sessions sid with
            | None -> abort_orphan ()
            | Some session ->
                (match session.tx with
                | Some tx when Tx.tx_id tx = victim ->
                    session.tx <- None;
                    Tx_service.disown svc ~tx_id:victim;
                    push session (Message.Deadlock_victim { tx = victim; msg });
                    (if session.parked_req <> None then begin
                       (* The parked lock request dies with the
                          transaction: answer it with the conflict. *)
                       observe_wait t session;
                       session.parked_req <- None;
                       error session Message.Conflict msg
                     end
                     else session.deadlock_note <- Some msg);
                    let unblocked = Tx.abort manager tx in
                    resume t unblocked;
                    pump t session
                | Some _ | None -> abort_orphan ())));
        go ()
  in
  go ()

(* Timeouts -------------------------------------------------------------------- *)

let enforce_timeouts t now =
  let expired = ref [] in
  Hashtbl.iter
    (fun _ session ->
      match t.config.lock_timeout with
      | Some limit
        when session.parked_req <> None && now -. session.parked_since > limit ->
          expired := (`Lock, session) :: !expired
      | _ -> (
          match t.config.idle_timeout with
          | Some limit
            when (not session.closing)
                 && session.parked_req = None
                 && now -. session.last_activity > limit ->
              expired := (`Idle, session) :: !expired
          | _ -> ()))
    t.sessions;
  List.iter
    (fun (kind, session) ->
      match kind with
      | `Lock ->
          (* Cancel the whole transaction: aborting dequeues the pending
             lock request (see Tx_manager.abort), so the queue holds no
             orphan waiter. *)
          Obs.incr t.svc.Tx_service.lock_timeouts;
          observe_wait t session;
          session.parked_req <- None;
          (match session.tx with
          | Some tx ->
              session.tx <- None;
              Tx_service.disown t.svc ~tx_id:(Tx.tx_id tx);
              let unblocked = Tx.abort t.svc.Tx_service.manager tx in
              error session Message.Timeout "lock wait timed out; transaction aborted";
              resume t unblocked
          | None -> error session Message.Timeout "lock wait timed out");
          pump t session
      | `Idle ->
          Obs.incr t.svc.Tx_service.idle_closes;
          push session (Message.Goodbye { msg = "idle timeout" });
          session.closing <- true)
    !expired

(* Accept ---------------------------------------------------------------------- *)

let refuse_full t fd =
  Obs.incr t.svc.Tx_service.rejected;
  (* Best effort: tell the client why before closing. *)
  let frame =
    Frame.encode
      (Message.encode_server
         (Message.Reply
            (Message.Error
               {
                 code = Message.Too_many_sessions;
                 msg =
                   Printf.sprintf "server full (%d sessions)"
                     t.config.max_sessions;
               })))
  in
  (try ignore (Unix.write fd frame 0 (Bytes.length frame) : int)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept t =
  match Unix.accept t.listen with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | fd, _peer ->
      Unix.set_nonblock fd;
      if Hashtbl.length t.sessions >= t.config.max_sessions then
        refuse_full t fd
      else begin
        Obs.incr t.svc.Tx_service.accepted;
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        Hashtbl.replace t.sessions sid
          {
            sid;
            fd;
            splitter = Frame.Splitter.create ();
            queue = Queue.create ();
            out = Queue.create ();
            out_off = 0;
            greeted = false;
            tx = None;
            snap = None;
            committing = None;
            parked_req = None;
            parked_since = 0.;
            deadlock_note = None;
            last_activity = Unix.gettimeofday ();
            closing = false;
            repl_sub = None;
          }
      end

(* Inbound --------------------------------------------------------------------- *)

let feed t session =
  match Unix.read session.fd t.read_buf 0 (Bytes.length t.read_buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ ->
      (* ECONNRESET/EPIPE, but also ETIMEDOUT (keepalive on a dead
         peer) and other socket errors: the peer is unreachable.  Drop
         any undeliverable output; the end-of-tick sweep destroys the
         session (aborting its transaction) under the service lock. *)
      Queue.clear session.out;
      session.out_off <- 0;
      session.closing <- true
  | 0 ->
      Queue.clear session.out;
      session.out_off <- 0;
      session.closing <- true
  | n ->
      session.last_activity <- Unix.gettimeofday ();
      Frame.Splitter.feed session.splitter t.read_buf ~len:n;
      (* Decode up to the queue bound; leftover frames stay buffered in
         the splitter and the socket stops being selected for reads
         until the queue drains (backpressure). *)
      refill t session

(* Shutdown -------------------------------------------------------------------- *)

let drain_grace = 5.0

let begin_drain t =
  if t.phase = Running then begin
    t.phase <- Draining (Unix.gettimeofday () +. drain_grace);
    (try Unix.close t.listen with Unix.Unix_error _ -> ());
    (* A graceful exit leaves no stale socket file; a [kill] does, like a
       real crash would. *)
    (match t.addr with
    | Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ());
    Hashtbl.iter
      (fun _ session ->
        push session (Message.Goodbye { msg = "server shutting down" });
        (match session.tx with
        | Some tx ->
            session.tx <- None;
            Tx_service.disown t.svc ~tx_id:(Tx.tx_id tx);
            ignore (Tx.abort t.svc.Tx_service.manager tx : int list)
        | None -> ());
        session.parked_req <- None;
        session.closing <- true)
      t.sessions
  end

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | 0 -> ()
    | n ->
        for i = 0 to n - 1 do
          match Bytes.get b i with
          | 'K' ->
              if t.phase = Running then
                (try Unix.close t.listen with Unix.Unix_error _ -> ());
              t.phase <- Killed;
              t.was_killed <- true
          | 'G' -> t.drain_pending <- true
          | _ -> ()
        done;
        go ()
  in
  go ()

(* The reactor tick loop -------------------------------------------------------- *)

let run t =
  let finished = ref false in
  let next_metrics =
    ref
      (match t.config.metrics_interval with
      | Some interval -> Unix.gettimeofday () +. interval
      | None -> infinity)
  in
  while not !finished do
    let now = Unix.gettimeofday () in
    (match t.config.metrics_interval with
    | Some interval when now >= !next_metrics ->
        prerr_endline ("orion metrics: " ^ Obs.one_line (Obs.snapshot ()));
        next_metrics := now +. interval
    | _ -> ());
    (match t.phase with
    | Draining deadline when now > deadline || Hashtbl.length t.sessions = 0 ->
        (* Grace expired or everyone is gone: close what remains. *)
        let remaining = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
        (* Flush outside the service lock (socket writes under it were
           a held-across-blocking violation), then destroy under it —
           the same split the closing-session sweep uses. *)
        List.iter flush_out remaining;
        Tx_service.with_lock t.svc (fun () ->
            List.iter (fun s -> destroy t s) remaining);
        finished := true
    | Killed ->
        (* A kill simulates a crash for transactions — their locks and
           effects die with the process image and recovery replays the
           log — but snapshot pins are pure reader bookkeeping on the
           shared version store: leaking them would block MVCC pruning
           for as long as the process (tests, an embedding supervisor)
           lives on.  End them; abort nothing. *)
        Tx_service.with_lock t.svc (fun () ->
            Hashtbl.iter
              (fun _ s ->
                match s.snap with
                | Some snap ->
                    s.snap <- None;
                    Tx.end_snapshot t.svc.Tx_service.manager snap
                | None -> ())
              t.sessions);
        Hashtbl.iter (fun _ s -> try Unix.close s.fd with Unix.Unix_error _ -> ())
          t.sessions;
        Hashtbl.reset t.sessions;
        finished := true
    | Running | Draining _ -> ());
    if not !finished then begin
      let reads =
        t.wake_r
        :: (if t.phase = Running then [ t.listen ] else [])
        @ Hashtbl.fold
            (fun _ s acc ->
              (* Backpressure: a full request queue or a closing session
                 stops reads. *)
              if (not s.closing) && Queue.length s.queue < t.config.queue_limit then
                s.fd :: acc
              else acc)
            t.sessions []
      in
      let writes =
        Hashtbl.fold
          (fun _ s acc -> if not (Queue.is_empty s.out) then s.fd :: acc else acc)
          t.sessions []
      in
      match
        Omutex.blocking ~op:"unix.select" (fun () ->
            Unix.select reads writes [] 0.1)
      with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          if List.mem t.wake_r readable then drain_wake t;
          let msgs = take_inbox t in
          if t.phase <> Killed then begin
            if t.phase = Running && List.mem t.listen readable then accept t;
            let session_of fd =
              Hashtbl.fold
                (fun _ s acc -> if s.fd = fd then Some s else acc)
                t.sessions None
            in
            (* Socket reads and frame decoding stay outside the service
               lock; the whole dispatch batch below takes it once. *)
            let fed =
              List.filter_map
                (fun fd ->
                  if fd = t.wake_r || fd = t.listen then None
                  else
                    match session_of fd with
                    | Some session ->
                        feed t session;
                        Some session
                    | None -> None)
                readable
            in
            (* Take the core lock only on ticks that have work for it:
               requests to dispatch, peer messages, a drain, a grown
               wait-for edge ([deadlock_check_due] reads the manager's
               generation lock-free), a timeout that could have
               expired, or a catalog change awaiting its checkpoint.
               An idle reactor's select timeout then costs no core-lock
               traffic at all. *)
            let timeouts_possible =
              (t.config.lock_timeout <> None && parked_sessions t > 0)
              || t.config.idle_timeout <> None
                 && Hashtbl.length t.sessions > 0
            in
            if
              t.drain_pending || msgs <> [] || fed <> []
              || Tx_service.deadlock_check_due t.svc
              || timeouts_possible
              || Tx_service.checkpoint_due t.svc
            then
              Tx_service.with_lock t.svc (fun () ->
                  if t.drain_pending then begin
                    t.drain_pending <- false;
                    begin_drain t
                  end;
                  List.iter (process_msg t) msgs;
                  List.iter
                    (fun s -> if Hashtbl.mem t.sessions s.sid then pump t s)
                    fed;
                  if Tx_service.deadlock_check_due t.svc then break_deadlocks t;
                  enforce_timeouts t (Unix.gettimeofday ());
                  Tx_service.maybe_checkpoint t.svc);
            (* WAL shipping: pump each subscribed session's cursor
               (bounded per tick; the tailer and log carry their own
               mutexes, so this runs outside the service lock) and
               flush immediately — frames are pushes, born outside the
               request/reply cycle, so the socket may not be in this
               tick's writable set yet. *)
            (match t.svc.Tx_service.repl with
            | Tx_service.Primary tailer ->
                Hashtbl.iter
                  (fun _ s ->
                    match s.repl_sub with
                    | Some id when not s.closing ->
                        let budget = ref 8 in
                        let more = ref true in
                        while !more && !budget > 0 do
                          decr budget;
                          match Tailer.pump tailer id with
                          | Tailer.Frames { lsn; data } ->
                              push s (Message.Repl_frames { lsn; data })
                          | Tailer.Heartbeat lsn ->
                              push s (Message.Repl_heartbeat { lsn });
                              more := false
                          | Tailer.Idle -> more := false
                        done;
                        flush_out s
                    | Some _ | None -> ())
                  t.sessions
            | Tx_service.Standalone | Tx_service.Replica_of _ -> ());
            List.iter
              (fun fd ->
                match session_of fd with
                | Some session -> flush_out session
                | None -> ())
              writable;
            (* Close sessions that have said goodbye and flushed. *)
            let done_ =
              Hashtbl.fold
                (fun _ s acc ->
                  if s.closing then begin
                    flush_out s;
                    if Queue.is_empty s.out then s :: acc else acc
                  end
                  else acc)
                t.sessions []
            in
            if done_ <> [] then
              Tx_service.with_lock t.svc (fun () ->
                  List.iter (fun s -> destroy t s) done_);
            t.n_parked <- parked_sessions t
          end
    end
  done;
  t.n_parked <- 0
