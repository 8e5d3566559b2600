(* The network server: binds the listener, builds the reactor and the
   transactional service it owns, and runs the reactor on the calling
   thread beside the group-committer thread. *)

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
  group_commit_window : float;
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

type t = { svc : Tx_service.t; shard : Shard.t }

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

let session_count t = Shard.session_count t.shard

let create ?(config = default_config) ?wal ?repl env addr =
  let listen, bound = listen_on addr in
  let shard =
    Shard.create ~config ~listen ~addr:bound
      ~service:(Tx_service.create ?wal ~window:config.group_commit_window ?repl env)
  in
  let svc = shard.Shard.svc in
  Obs.gauge "server.sessions" (fun () -> Shard.session_count shard);
  Obs.gauge "server.parked" (fun () -> Shard.parked_count shard);
  (* A process with no log at all (hence no committer): register zeroed
     WAL and group-commit instruments so the wire snapshot always covers
     the WAL subsystem (matching Database.stats, which reports zeros
     without a source).  A replica has a log — its mirror — whose live
     instruments these zeros would replace by name. *)
  let has_log =
    Option.is_some wal
    || match repl with Some (Tx_service.Replica_of _) -> true | _ -> false
  in
  if not has_log then begin
    List.iter
      (fun name -> ignore (Obs.counter name : Obs.counter))
      [ "wal.appends"; "wal.bytes"; "wal.syncs"; "wal.truncations";
        "wal.group_commit.batches"; "wal.group_commit.batched_txs";
        "wal.group_commit.solo_txs" ];
    List.iter
      (fun name -> ignore (Obs.histogram name : Obs.histogram))
      [ "wal.append_seconds"; "wal.sync_seconds" ];
    ignore
      (Obs.histogram ~unit:Obs.Count "wal.group_commit.batch_size"
        : Obs.histogram)
  end;
  { svc; shard }

let address t = t.shard.Shard.addr
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
    parked = Shard.parked_count t.shard;
    deadlock_victims = Obs.counter_value svc.Tx_service.deadlock_victims;
    lock_timeouts = Obs.counter_value svc.Tx_service.lock_timeouts;
    idle_closes = Obs.counter_value svc.Tx_service.idle_closes;
  }

(* [stop]/[kill] only write a byte to the reactor's wake pipe, so both
   are safe to call from a signal handler or another thread. *)

let stop t = Shard.request_stop t.shard
let kill t = Shard.request_kill t.shard

let run t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Shard.run t.shard;
  (* The reactor is quiet: settle the group committer.  A graceful stop
     flushes any still-pending batch (their sessions are gone, but
     submitted commits are past the point of no return and must reach
     the log); a kill abandons it, like the crash it simulates. *)
  Tx_service.shutdown_committer ~killed:(Shard.killed t.shard) t.svc
