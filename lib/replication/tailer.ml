module Obs = Orion_obs.Metrics
module Wal = Orion_wal.Wal

(* One shipped-but-unacknowledged batch: enough to turn the replica's
   ack into an RTT observation and a record-level lag figure without
   re-decoding any frames. *)
type inflight = { end_lsn : int; frames : int; sent_at : float }

type sub = {
  id : int;
  mutable sent : int;  (** LSN shipped so far *)
  mutable acked : int;  (** LSN the replica reported durable *)
  mutable last_send : float;  (** heartbeat pacing *)
  mutable active : bool;
  inflight : inflight Queue.t;
}

type t = {
  wal : Wal.t;
  subs : (int, sub) Hashtbl.t;
  shipped_frames : Obs.counter;
  shipped_bytes : Obs.counter;
  heartbeats : Obs.counter;
  acks : Obs.counter;
  ack_hist : Obs.histogram;
}

let heartbeat_interval = 1.0
let default_max_bytes = 1 lsl 20

let lag_bytes_of t s = max 0 (Wal.durable_lsn t.wal - s.acked)

let lag_records_of s =
  Queue.fold (fun n i -> n + i.frames) 0 s.inflight

let create wal =
  let t =
    {
      wal;
      subs = Hashtbl.create 4;
      shipped_frames = Obs.counter "repl.shipped_frames";
      shipped_bytes = Obs.counter "repl.shipped_bytes";
      heartbeats = Obs.counter "repl.heartbeats";
      acks = Obs.counter "repl.acks";
      ack_hist = Obs.histogram "repl.ack_seconds";
    }
  in
  (* Aggregate lag: the worst replica is the one failover cares about. *)
  Obs.gauge "repl.replicas" (fun () -> Hashtbl.length t.subs);
  Obs.gauge "repl.lag_bytes" (fun () ->
      Hashtbl.fold (fun _ s m -> max m (lag_bytes_of t s)) t.subs 0);
  Obs.gauge "repl.lag_records" (fun () ->
      Hashtbl.fold (fun _ s m -> max m (lag_records_of s)) t.subs 0);
  t

let subscribe t ~from_lsn =
  let durable = Wal.durable_lsn t.wal in
  if from_lsn < 0 || from_lsn > durable then
    Error
      (Printf.sprintf "subscribe LSN %d out of range (durable %d)" from_lsn
         durable)
  else begin
    (* Smallest free id, so a reconnecting replica reclaims the slot it
       held before: its labeled lag gauges below re-register over the
       dead subscription's (the metrics registry replaces on name
       collision), resetting them to the live figures instead of
       leaving stuck-at-0 cells behind and minting new labels on every
       reconnect. *)
    let rec fresh id = if Hashtbl.mem t.subs id then fresh (id + 1) else id in
    let id = fresh 0 in
    let s =
      {
        id;
        sent = from_lsn;
        acked = from_lsn;
        last_send = Unix.gettimeofday ();
        active = true;
        inflight = Queue.create ();
      }
    in
    Hashtbl.replace t.subs id s;
    (* Per-replica lag cells, label convention as per-class lock cells.
       A gauge can't be unregistered, so it reads 0 once the
       subscription is gone. *)
    let labeled name = Obs.labeled name ("replica", string_of_int id) in
    Obs.gauge (labeled "repl.lag_bytes") (fun () ->
        if s.active then lag_bytes_of t s else 0);
    Obs.gauge (labeled "repl.lag_records") (fun () ->
        if s.active then lag_records_of s else 0);
    Ok (id, durable)
  end

let unsubscribe t id =
  match Hashtbl.find_opt t.subs id with
  | None -> ()
  | Some s ->
      s.active <- false;
      Hashtbl.remove t.subs id

let ack t id ~lsn =
  match Hashtbl.find_opt t.subs id with
  | None -> ()
  | Some s ->
      Obs.incr t.acks;
      if lsn > s.acked then s.acked <- lsn;
      let now = Unix.gettimeofday () in
      let rec pop () =
        match Queue.peek_opt s.inflight with
        | Some i when i.end_lsn <= lsn ->
            ignore (Queue.pop s.inflight : inflight);
            Obs.observe t.ack_hist (now -. i.sent_at);
            pop ()
        | _ -> ()
      in
      pop ()

type pumped =
  | Frames of { lsn : int; data : bytes }
  | Heartbeat of int
  | Idle

let pump ?(max_bytes = default_max_bytes) t id =
  match Hashtbl.find_opt t.subs id with
  | None -> Idle
  | Some s -> (
      match Wal.read_from t.wal ~lsn:s.sent ~max_bytes with
      | Some (data, end_lsn, frames) ->
          let lsn = s.sent in
          s.sent <- end_lsn;
          let now = Unix.gettimeofday () in
          s.last_send <- now;
          Queue.push { end_lsn; frames; sent_at = now } s.inflight;
          Obs.incr t.shipped_frames ~by:frames;
          Obs.incr t.shipped_bytes ~by:(Bytes.length data);
          Frames { lsn; data }
      | None ->
          let now = Unix.gettimeofday () in
          if now -. s.last_send >= heartbeat_interval then begin
            s.last_send <- now;
            Obs.incr t.heartbeats;
            Heartbeat s.sent
          end
          else Idle)

let replica_count t = Hashtbl.length t.subs
