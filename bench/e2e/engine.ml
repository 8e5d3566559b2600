(* The engine-direct layer pass: a workload's op streams replayed in
   this process, one op at a time, on a copy of the saved dataset —
   through the transaction manager with a file-backed log, live
   [Traversal.components_of] and [Snapshot_read.components_of].  Client
   time minus engine time is what the protocol, the reactor and the
   service lock add. *)

open Orion_core
module Tx = Orion_tx.Tx_manager
module Wal = Orion_wal.Wal
module Protocol = Orion_locking.Protocol

type result = {
  ops : int;  (* timed ops *)
  op_ns : int;  (* their total time *)
  calls : (string * (int * int)) list;  (* name -> (count, total ns) *)
}

(* [db_path] is a copy of the dataset, opened here the way
   [orion serve --wal] opens it; its log goes next to it. *)
let run ~db_path (data : Dataset.t) streams ~warmup =
  let db = Dataset.load db_path in
  let log = Wal.create () in
  Wal.attach ~snapshot_path:db_path log db;
  Wal.set_backing log (Some (db_path ^ ".wal"));
  Wal.sync log;
  Persist.save db;
  let m = Tx.create ~wal:log db in
  let calls = Hashtbl.create 8 in
  let timing = ref false in
  let time name f =
    let t0 = Trace.now_ns () in
    let v = f () in
    if !timing then begin
      let n, ns = Option.value (Hashtbl.find_opt calls name) ~default:(0, 0) in
      Hashtbl.replace calls name (n + 1, ns + Trace.now_ns () - t0)
    end;
    v
  in
  let granted = function
    | `Granted -> ()
    | `Blocked -> failwith "engine pass: a lone transaction blocked"
  in
  let one (op : Workload.op) =
    let root = data.Dataset.designs.(op.design) in
    match op.kind with
    | Workload.Append ->
        let tx = time "begin" (fun () -> Tx.begin_tx m) in
        time "lock_composite" (fun () -> granted (Tx.lock_composite m tx ~root Protocol.Update));
        let asm = data.Dataset.assemblies.(op.design).(op.asm) in
        ignore
          (time "make" (fun () ->
               Tx.create_object m tx ~cls:"Part"
                 ~parents:[ (asm, "Parts") ]
                 ~attrs:[ ("Name", Value.Str "engine"); ("Grams", Value.Int 1) ]
                 ())
            : Oid.t);
        ignore (time "commit" (fun () -> Tx.commit m tx) : int list)
    | Workload.Checkout ->
        let tx = time "begin" (fun () -> Tx.begin_tx m) in
        time "lock_composite" (fun () -> granted (Tx.lock_composite m tx ~root Protocol.Read_));
        ignore (time "components_of" (fun () -> Traversal.components_of db root) : Oid.t list);
        ignore (time "commit" (fun () -> Tx.commit m tx) : int list)
    | Workload.Scan ->
        let snap = time "begin_snapshot" (fun () -> Tx.begin_snapshot m) in
        ignore
          (time "snapshot_components_of" (fun () ->
               Orion_mvcc.Snapshot_read.components_of (Tx.snapshot_view snap) root)
            : Oid.t list);
        time "end_snapshot" (fun () -> Tx.end_snapshot m snap)
  in
  (* The clients' streams, interleaved op by op. *)
  let n = Array.length streams.(0) in
  let ops = ref 0 and op_ns = ref 0 in
  for seq = 0 to n - 1 do
    timing := seq >= warmup;
    Array.iter
      (fun stream ->
        let t0 = Trace.now_ns () in
        one stream.(seq);
        if !timing then begin
          incr ops;
          op_ns := !op_ns + Trace.now_ns () - t0
        end)
      streams
  done;
  {
    ops = !ops;
    op_ns = !op_ns;
    calls = List.sort compare (List.of_seq (Hashtbl.to_seq calls));
  }
