(* The network server, as of the multicore refactor a thin supervisor:
   it binds the listener, builds the shared transactional service and
   the shard reactors, and runs them — on one domain the single shard
   owns the listener and this module just delegates; on several, each
   shard runs on its own domain and the supervisor keeps the acceptor
   loop, dealing connections out to shards by session id. *)

module Obs = Orion_obs.Metrics

type addr = Orion_protocol.Addr.t = Tcp of string * int | Unix_path of string

let pp_addr = Orion_protocol.Addr.pp
let parse_addr = Orion_protocol.Addr.parse

type config = Shard.config = {
  max_sessions : int;
  queue_limit : int;
  idle_timeout : float option;
  lock_timeout : float option;
  metrics_interval : float option;
  domains : int;
  group_commit_window : float option;
}

let default_config = Shard.default_config

type stats = {
  accepted : int;
  rejected : int;
  requests : int;
  parks_total : int;
  parked : int;
  deadlock_victims : int;
  lock_timeouts : int;
  idle_closes : int;
}

type t = {
  config : config;
  svc : Tx_service.t;
  shards : Shard.t array;
  listen_fd : Unix.file_descr;
  bound : addr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
}

let listen_on addr =
  match addr with
  | Tcp _ ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Orion_protocol.Addr.to_sockaddr addr);
      Unix.listen fd 64;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (a, p) -> Tcp (Unix.string_of_inet_addr a, p)
        | Unix.ADDR_UNIX p -> Unix_path p
      in
      (fd, bound)
  | Unix_path path ->
      (* A leftover socket file from a dead server would make bind fail;
         connecting distinguishes live from stale. *)
      if Sys.file_exists path then begin
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let alive =
          try
            Unix.connect probe (Unix.ADDR_UNIX path);
            true
          with Unix.Unix_error _ -> false
        in
        Unix.close probe;
        if alive then
          raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
        else Sys.remove path
      end;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Unix_path path)

let session_count t =
  Array.fold_left (fun n sh -> n + Shard.session_count sh) 0 t.shards

let parked_count t =
  Array.fold_left (fun n sh -> n + Shard.parked_count sh) 0 t.shards

let create ?(config = default_config) ?wal ?repl env addr =
  let config = { config with domains = max 1 config.domains } in
  let listen_fd, bound = listen_on addr in
  let stop_r, stop_w = Unix.pipe () in
  Unix.set_nonblock stop_r;
  let svc =
    Tx_service.create ?wal ?group_commit_window:config.group_commit_window ?repl
      env
  in
  let shards =
    Array.init config.domains (fun idx ->
        (* With one domain the shard owns the listener (no acceptor
           handoff, no extra wakeups: the classic single-threaded
           reactor, byte-for-byte).  With several, the supervisor's
           acceptor keeps it. *)
        if config.domains = 1 then
          Shard.create ~idx ~config ~svc ~listen:listen_fd ~owned_addr:bound ()
        else Shard.create ~idx ~config ~svc ())
  in
  Tx_service.set_posters svc (Array.map Shard.enqueue shards);
  let total () =
    Array.fold_left (fun n sh -> n + Shard.session_count sh) 0 shards
  in
  Array.iter (fun sh -> Shard.set_total_sessions sh total) shards;
  Obs.gauge "server.sessions" total;
  Obs.gauge "server.parked" (fun () ->
      Array.fold_left (fun n sh -> n + Shard.parked_count sh) 0 shards);
  (* No log attached: register zeroed WAL counters so the wire snapshot
     always covers the WAL subsystem (matching Database.stats, which
     reports zeros without a source). *)
  if Option.is_none wal then begin
    List.iter
      (fun name -> ignore (Obs.counter name : Obs.counter))
      [ "wal.appends"; "wal.bytes"; "wal.syncs"; "wal.truncations" ];
    List.iter
      (fun name -> ignore (Obs.histogram name : Obs.histogram))
      [ "wal.append_seconds"; "wal.sync_seconds" ]
  end;
  (* Likewise for the group-commit instruments when batching is off. *)
  if svc.Tx_service.gc = None then begin
    List.iter
      (fun name -> ignore (Obs.counter name : Obs.counter))
      [
        "wal.group_commit.batches";
        "wal.group_commit.batched_txs";
        "wal.group_commit.solo_txs";
      ];
    ignore (Obs.histogram "wal.group_commit.batch_size" : Obs.histogram)
  end;
  { config; svc; shards; listen_fd; bound; stop_r; stop_w }

let address t = t.bound
let service t = t.svc

let role t =
  match t.svc.Tx_service.repl with
  | Tx_service.Standalone -> `Standalone
  | Tx_service.Primary _ -> `Primary
  | Tx_service.Replica_of _ -> `Replica

let stats t =
  let svc = t.svc in
  {
    accepted = Obs.counter_value svc.Tx_service.accepted;
    rejected = Obs.counter_value svc.Tx_service.rejected;
    requests = Obs.counter_value svc.Tx_service.requests;
    parks_total = Obs.counter_value svc.Tx_service.parks;
    parked = parked_count t;
    deadlock_victims = Obs.counter_value svc.Tx_service.deadlock_victims;
    lock_timeouts = Obs.counter_value svc.Tx_service.lock_timeouts;
    idle_closes = Obs.counter_value svc.Tx_service.idle_closes;
  }

(* [stop]/[kill] only write pipe bytes (to the acceptor and to every
   shard's wake pipe), so both are safe to call from a signal handler —
   and from any domain. *)

let signal t byte =
  try ignore (Unix.write t.stop_w (Bytes.make 1 byte) 0 1 : int)
  with Unix.Unix_error _ -> ()

let stop t =
  signal t 'G';
  Array.iter Shard.request_stop t.shards

let kill t =
  signal t 'K';
  Array.iter Shard.request_kill t.shards

(* The acceptor loop (domains > 1): accept, pick the shard by session
   id, hand the connection over.  Admission control runs here against
   the shard-count sum; the target shard is charged at accept time so a
   burst cannot over-admit through the handoff window. *)

let accept_one t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | fd, _peer ->
      Unix.set_nonblock fd;
      if session_count t >= t.config.max_sessions then
        Shard.refuse_full fd ~max_sessions:t.config.max_sessions
          ~rejected:t.svc.Tx_service.rejected
      else begin
        Obs.incr t.svc.Tx_service.accepted;
        let sid = Tx_service.fresh_sid t.svc in
        let shard = t.shards.(sid mod Array.length t.shards) in
        Shard.note_incoming shard;
        Shard.enqueue shard (Tx_service.New_session { sid; fd })
      end

let acceptor_loop t =
  let killed = ref false in
  let finished = ref false in
  let b = Bytes.create 16 in
  while not !finished do
    match Unix.select [ t.stop_r; t.listen_fd ] [] [] 0.5 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if List.mem t.stop_r readable then begin
          let rec drain () =
            match Unix.read t.stop_r b 0 16 with
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
              -> ()
            | 0 -> ()
            | n ->
                for i = 0 to n - 1 do
                  if Bytes.get b i = 'K' then killed := true
                done;
                drain ()
          in
          drain ();
          finished := true
        end;
        if (not !finished) && List.mem t.listen_fd readable then accept_one t
  done;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* A graceful exit leaves no stale socket file; a [kill] does, like a
     real crash would. *)
  if not !killed then
    match t.bound with
    | Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ()

let run t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Array.length t.shards = 1 then Shard.run t.shards.(0)
  else begin
    let domains =
      Array.map (fun sh -> Domain.spawn (fun () -> Shard.run sh)) t.shards
    in
    (* The shards got their stop/kill bytes directly; the acceptor loop
       returns when it sees its own. *)
    acceptor_loop t;
    Array.iter Domain.join domains
  end;
  (* Reactors are quiet: settle the group committer.  A graceful stop
     flushes any still-pending batch (their sessions are gone, but
     submitted commits are past the point of no return and must reach
     the log); a kill abandons it, like the crash it simulates. *)
  Tx_service.shutdown_committer
    ~killed:(Array.exists Shard.killed t.shards)
    t.svc
