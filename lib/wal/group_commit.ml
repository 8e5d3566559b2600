module Obs = Orion_obs.Metrics
module Omutex = Orion_util.Omutex

(* A commit submitted for batching: its pre-captured records, the
   counters it would seal with, and how to tell the reactor the outcome.
   [notify] runs on the committer thread — implementations must only
   post to the reactor's inbox (or similar), never touch reactor state. *)
type pending = {
  p_tx : int;
  p_records : Wal_record.t list;
  p_next_oid : int;
  p_clock : int;
  p_cc : int;
  p_notify : ok:bool -> err:string -> unit;
}

type t = {
  wal : Wal.t;
  window : float;
  on_sealed : (clock:int -> Wal_record.t list -> unit) option;
      (* runs on the committer thread after a batch's seal is durable,
         before any member is notified: the MVCC version store hooks in
         here, so a batch is visible to snapshots (atomically, at the
         one seal clock) no later than its locks release *)
  mu : Omutex.t;
  cond : Condition.t;
  mutable pending : pending list;  (* newest first *)
  mutable eager : bool;  (* no one else can join: flush without waiting *)
  mutable flushing : bool;
  mutable stopping : bool;
  mutable discard : bool;  (* kill-9: exit without flushing the tail *)
  mutable thread : Thread.t option;
  batches : Obs.counter;
  batched : Obs.counter;
  solo : Obs.counter;
  batch_hist : Obs.histogram;
}

let submit t ~tx ~records ~next_oid ~clock ~cc ~eager ~notify =
  Omutex.lock t.mu;
  if t.stopping then begin
    Omutex.unlock t.mu;
    invalid_arg "Group_commit.submit: committer is shutting down"
  end;
  t.pending <-
    {
      p_tx = tx;
      p_records = records;
      p_next_oid = next_oid;
      p_clock = clock;
      p_cc = cc;
      p_notify = notify;
    }
    :: t.pending;
  if eager then t.eager <- true;
  Condition.signal t.cond;
  Omutex.unlock t.mu

(* Write one batch: every member's records, one seal, one sync.  A solo
   member seals with a plain [Commit] — byte-identical to
   [Tx_manager.commit] on a logged manager — so the window changes
   nothing on disk until two commits actually coincide.  K > 1 seals
   with a single [Commit_group]; recovery then replays the whole batch
   or (on a torn seal) none of it. *)
let flush_batch t batch =
  let batch = List.rev batch in
  let records = List.concat_map (fun p -> p.p_records) batch in
  let seal_clock = List.fold_left (fun acc p -> max acc p.p_clock) 0 batch in
  let seal =
    match batch with
    | [ p ] ->
        Wal_record.Commit
          { tx = p.p_tx; next_oid = p.p_next_oid; clock = p.p_clock; cc = p.p_cc }
    | ps ->
        let next_oid =
          List.fold_left (fun acc p -> max acc p.p_next_oid) 0 ps
        in
        let cc = List.fold_left (fun acc p -> max acc p.p_cc) 0 ps in
        Wal_record.Commit_group
          { txs = List.map (fun p -> p.p_tx) ps; next_oid; clock = seal_clock; cc }
  in
  let outcome =
    match Wal.log_batch t.wal ~records ~seal with
    | () -> Ok ()
    | exception e -> Error (Wal.failure_message e)
  in
  (match outcome with
  | Ok () ->
      (* Publish before notifying: members' locks must not release
         before the batch is visible to snapshot readers. *)
      (match t.on_sealed with
      | Some f -> f ~clock:seal_clock records
      | None -> ());
      Obs.incr t.batches;
      (match batch with
      | [ _ ] -> Obs.incr t.solo
      | ps -> Obs.incr t.batched ~by:(List.length ps));
      Obs.observe t.batch_hist (float_of_int (List.length batch))
  | Error _ -> ());
  List.iter
    (fun p ->
      match outcome with
      | Ok () -> p.p_notify ~ok:true ~err:""
      | Error err -> p.p_notify ~ok:false ~err)
    batch

let committer t () =
  let rec loop () =
    Omutex.lock t.mu;
    while t.pending = [] && not t.stopping do
      Omutex.wait t.cond t.mu
    done;
    if t.pending = [] && t.stopping then Omutex.unlock t.mu
    else begin
      let wait = (not t.eager) && (not t.stopping) && t.window > 0. in
      Omutex.unlock t.mu;
      (* The batching window: stay open for stragglers unless the
         submitter told us nobody else can join (no other transaction
         is in flight) — then the delay would be pure added latency. *)
      if wait then Thread.delay t.window;
      Omutex.lock t.mu;
      let batch = t.pending in
      t.pending <- [];
      t.eager <- false;
      t.flushing <- true;
      Omutex.unlock t.mu;
      flush_batch t batch;
      Omutex.lock t.mu;
      t.flushing <- false;
      Omutex.unlock t.mu;
      loop ()
    end
  in
  loop ();
  (* Shutdown: drain whatever arrived after the last wake-up — unless
     this is a simulated kill-9, where losing the un-synced tail is the
     whole point. *)
  if not t.discard then begin
    Omutex.lock t.mu;
    let tail = t.pending in
    t.pending <- [];
    Omutex.unlock t.mu;
    if tail <> [] then flush_batch t tail
  end

let create ~window ?on_sealed wal =
  let t =
    {
      wal;
      window;
      on_sealed;
      mu = Omutex.create Omutex.group_commit;
      cond = Condition.create ();
      pending = [];
      eager = false;
      flushing = false;
      stopping = false;
      discard = false;
      thread = None;
      batches = Obs.counter "wal.group_commit.batches";
      batched = Obs.counter "wal.group_commit.batched_txs";
      solo = Obs.counter "wal.group_commit.solo_txs";
      batch_hist = Obs.histogram "wal.group_commit.batch_size";
    }
  in
  t.thread <- Some (Thread.create (committer t) ());
  t

let stop ~discard t =
  Omutex.lock t.mu;
  t.stopping <- true;
  t.discard <- discard;
  Condition.signal t.cond;
  Omutex.unlock t.mu;
  match t.thread with
  | Some th ->
      Thread.join th;
      t.thread <- None
  | None -> ()

let shutdown t = stop ~discard:false t
let kill t = stop ~discard:true t

let quiescent t =
  Omutex.lock t.mu;
  let idle = t.pending = [] && not t.flushing in
  Omutex.unlock t.mu;
  idle
