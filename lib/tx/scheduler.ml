open Orion_core
module Lock_table = Orion_locking.Lock_table

type step =
  | Lock_composite of Oid.t * Orion_locking.Protocol.access
  | Lock_instance of Oid.t * Orion_locking.Protocol.access
  | Mutate of (Database.t -> unit)

type script = step list

type result = {
  committed : int;
  aborted : int;
  rounds : int;
  blocks : int;
  deadlocks : int;
}

type runner = {
  script : script;
  mutable cursor : step list;
  mutable tx : Tx_manager.tx option;
  mutable done_ : bool;
}

let run ?(max_rounds = 100_000) manager scripts =
  let runners =
    List.map (fun script -> { script; cursor = script; tx = None; done_ = false }) scripts
  in
  let committed = ref 0 and aborted = ref 0 and deadlocks = ref 0 in
  let rounds = ref 0 in
  Lock_table.reset_stats (Tx_manager.lock_table manager);
  let tx_of runner =
    match runner.tx with
    | Some tx -> tx
    | None ->
        let tx = Tx_manager.begin_tx manager in
        runner.tx <- Some tx;
        tx
  in
  let step runner =
    let tx = tx_of runner in
    match Tx_manager.state tx with
    | Tx_manager.Blocked -> (
        (* Retry the pending lock step. *)
        match runner.cursor with
        | (Lock_composite (root, access)) :: rest -> (
            match Tx_manager.lock_composite manager tx ~root access with
            | `Granted -> runner.cursor <- rest
            | `Blocked -> ())
        | (Lock_instance (oid, access)) :: rest -> (
            match Tx_manager.lock_instance manager tx oid access with
            | `Granted -> runner.cursor <- rest
            | `Blocked -> ())
        | (Mutate _) :: _ | [] -> ())
    (* [Committing] never appears here: the scheduler commits with
       [Tx_manager.commit], never through a group committer. *)
    | Tx_manager.Committing | Tx_manager.Committed | Tx_manager.Aborted -> ()
    | Tx_manager.Active -> (
        match runner.cursor with
        | [] ->
            ignore (Tx_manager.commit manager tx : int list);
            incr committed;
            runner.done_ <- true
        | (Lock_composite (root, access)) :: rest -> (
            match Tx_manager.lock_composite manager tx ~root access with
            | `Granted -> runner.cursor <- rest
            | `Blocked -> ())
        | (Lock_instance (oid, access)) :: rest -> (
            match Tx_manager.lock_instance manager tx oid access with
            | `Granted -> runner.cursor <- rest
            | `Blocked -> ())
        | (Mutate f) :: rest ->
            f (Tx_manager.database manager);
            runner.cursor <- rest)
  in
  let resolve_deadlocks () =
    match Tx_manager.find_deadlock manager with
    | None -> ()
    | Some cycle ->
        incr deadlocks;
        (* Abort the youngest transaction in the cycle; its script
           restarts from scratch. *)
        let victim_id = List.fold_left max min_int cycle in
        List.iter
          (fun runner ->
            match runner.tx with
            | Some tx when Tx_manager.tx_id tx = victim_id ->
                ignore (Tx_manager.abort manager tx : int list);
                incr aborted;
                runner.tx <- None;
                runner.cursor <- runner.script
            | Some _ | None -> ())
          runners
  in
  let all_done () = List.for_all (fun r -> r.done_) runners in
  while (not (all_done ())) && !rounds < max_rounds do
    incr rounds;
    List.iter (fun r -> if not r.done_ then step r) runners;
    resolve_deadlocks ()
  done;
  if not (all_done ()) then failwith "Scheduler.run: no progress";
  let stats = Lock_table.stats (Tx_manager.lock_table manager) in
  {
    committed = !committed;
    aborted = !aborted;
    rounds = !rounds;
    blocks = stats.Lock_table.blocks;
    deadlocks = !deadlocks;
  }
