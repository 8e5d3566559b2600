(* The four client workloads and the closed loop that drives them.

   An op is one client transaction: an append ([begin],
   [lock_composite Update], [make Part], [commit]), a snapshot scan
   ([begin_snapshot], [components_of], [end_snapshot]) or a 2PL
   check-out ([begin], [lock_composite Read], [components_of],
   [commit]).  Each client sends its next request only when the reply
   to the last one has arrived. *)

module Client = Orion_client
module Message = Orion_protocol.Message
module Oid = Orion_core.Oid
module Value = Orion_core.Value

type kind = Append | Scan | Checkout

type spec = {
  name : string;
  why : string;
  ops_per_second : int;
      (* measured ops per second of --seconds: a run at --seconds 10
         measures 10 times this many ops, whatever the speed of the
         build, so every build grows the same log *)
  pool : int;  (* how many Designs the ops draw from *)
  pick : Random.State.t -> kind;
}

let all =
  [
    {
      name = "append";
      why =
        "uniform appends over 256 designs: group commit and WAL sync with \
         almost no lock waits";
      ops_per_second = 1600;
      pool = Dataset.n_designs;
      pick = (fun _ -> Append);
    };
    {
      name = "hot-append";
      why =
        "the same appends on 4 hot designs: lock parks, wakeups and deadlock \
         checks on the commit path";
      ops_per_second = 1250;
      pool = 4;
      pick = (fun _ -> Append);
    };
    {
      name = "snapshot-scan";
      why =
        "read-only snapshot scans of 136-oid composites: bypasses the WAL and \
         the lock table";
      ops_per_second = 8000;
      pool = Dataset.n_designs;
      pick = (fun _ -> Scan);
    };
    {
      name = "checkout-mix";
      why =
        "80% 2PL check-outs, 20% appends on 16 designs: S-vs-X conflicts and \
         edge-cache invalidation";
      ops_per_second = 2000;
      pool = 16;
      pick = (fun rng -> if Random.State.int rng 100 < 80 then Checkout else Append);
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let clients = 2
let warmup_ops = 500
let max_retries = 20

type op = { kind : kind; design : int; asm : int }

(* Each client's op stream in one round, [n] ops long: a pure function
   of the seed, shared by the client run and the engine pass.  The
   designs a workload draws from are the same in every round. *)
let streams spec ~seed ~round ~n =
  let salt = Hashtbl.hash spec.name in
  let pool =
    let rng = Random.State.make [| seed; salt; -1 |] in
    let ids = Array.init Dataset.n_designs Fun.id in
    for i = Dataset.n_designs - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = ids.(i) in
      ids.(i) <- ids.(j);
      ids.(j) <- x
    done;
    Array.sub ids 0 spec.pool
  in
  Array.init clients (fun client ->
      let rng = Random.State.make [| seed; salt; round; client |] in
      Array.init n (fun _ ->
          let kind = spec.pick rng in
          let design = pool.(Random.State.int rng spec.pool) in
          { kind; design; asm = Random.State.int rng Dataset.assemblies_per_design }))

(* What one client saw.  Latencies, retries and request counts cover
   the measured ops only; [appended] counts every acknowledged append,
   warm-up included, for the durability check. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable retries : int;
  mutable commits : int;  (* commit requests answered, read-only included *)
  mutable scans : int;  (* components_of requests answered *)
  mutable ok_ops : int;
  mutable lat_ns : int array;  (* per successful measured op *)
  mutable kinds : kind array;
  mutable errors : string list;  (* replies that failed a check *)
  mutable last_failure : string option;
  appended : int array array;  (* [design].(asm) *)
}

let new_tally () =
  {
    attempted = 0;
    failed = 0;
    retries = 0;
    commits = 0;
    scans = 0;
    ok_ops = 0;
    lat_ns = [||];
    kinds = [||];
    errors = [];
    last_failure = None;
    appended =
      Array.init Dataset.n_designs (fun _ -> Array.make Dataset.assemblies_per_design 0);
  }

type ctx = {
  client : int;
  conn : Client.t;
  data : Dataset.t;
  acked : int Atomic.t array;  (* acknowledged appends per Design, all clients *)
  tally : tally;
  tracer : Trace.buf option;  (* spans are kept for measured ops only *)
  mutable measuring : bool;
  mutable op_span : int;
}

let tracing ctx = if ctx.measuring then ctx.tracer else None

let call ctx name f =
  match tracing ctx with
  | None -> f ()
  | Some b ->
      let s = Trace.start b ~name ~parent:ctx.op_span ~op:ctx.tally.attempted in
      Fun.protect ~finally:(fun () -> Trace.finish b s) f

let note ctx msg =
  if List.length ctx.tally.errors < 5 then ctx.tally.errors <- msg :: ctx.tally.errors

(* One attempt at [op]; raises [Client.Error] as the server answers. *)
let attempt ctx op =
  let c = ctx.conn and t = ctx.tally in
  let root = ctx.data.Dataset.designs.(op.design) in
  let commit () =
    call ctx "commit" (fun () -> Client.commit c);
    if ctx.measuring then t.commits <- t.commits + 1
  in
  let components () =
    let n = List.length (call ctx "components_of" (fun () -> Client.components_of c root)) in
    if ctx.measuring then t.scans <- t.scans + 1;
    n
  in
  match op.kind with
  | Append ->
      let asm = ctx.data.Dataset.assemblies.(op.design).(op.asm) in
      ignore (call ctx "begin" (fun () -> Client.begin_tx c) : int);
      call ctx "lock_composite" (fun () -> Client.lock_composite c ~root Message.Update);
      ignore
        (call ctx "make" (fun () ->
             Client.make c ~cls:"Part"
               ~parents:[ (asm, "Parts") ]
               ~attrs:
                 [
                   ("Name", Value.Str (Printf.sprintf "new-%d-%d" ctx.client t.attempted));
                   ("Grams", Value.Int (1 + (t.attempted mod 10_000)));
                 ]
               ())
          : Oid.t);
      commit ();
      let row = t.appended.(op.design) in
      row.(op.asm) <- row.(op.asm) + 1;
      Atomic.incr ctx.acked.(op.design)
  | Scan ->
      ignore (call ctx "begin_snapshot" (fun () -> Client.begin_snapshot c) : int);
      let n = components () in
      call ctx "end_snapshot" (fun () -> Client.end_snapshot c);
      if n <> Dataset.components_per_design then
        note ctx
          (Printf.sprintf "snapshot scan of design %d returned %d oids, expected %d"
             op.design n Dataset.components_per_design)
  | Checkout ->
      (* Appends acknowledged before the check-out began are committed,
         so the S-locked read must see them. *)
      let floor = Dataset.components_per_design + Atomic.get ctx.acked.(op.design) in
      ignore (call ctx "begin" (fun () -> Client.begin_tx c) : int);
      call ctx "lock_composite" (fun () -> Client.lock_composite c ~root Message.Read);
      let n = components () in
      commit ();
      if n < floor then
        note ctx
          (Printf.sprintf "check-out of design %d returned %d oids, expected >= %d"
             op.design n floor)

(* Leave the session clean after a failed attempt. *)
let reset ctx =
  (try Client.abort ctx.conn with Client.Error _ -> ());
  try Client.end_snapshot ctx.conn with Client.Error _ -> ()

(* One op, retrying deadlock and lock-timeout aborts up to
   [max_retries] times.  Its latency includes the retries. *)
let run_op ctx op =
  let t = ctx.tally in
  let tracer = tracing ctx in
  Option.iter
    (fun b -> ctx.op_span <- Trace.start b ~name:"op" ~parent:(-1) ~op:t.attempted)
    tracer;
  let t0 = Trace.now_ns () in
  let rec go budget =
    match attempt ctx op with
    | () -> true
    | exception Client.Error ((Message.Conflict | Message.Timeout), _) when budget > 0 ->
        (* The server aborted the transaction; drop its victim notice. *)
        ignore (Client.notices ctx.conn : Message.push list);
        if ctx.measuring then t.retries <- t.retries + 1;
        go (budget - 1)
    | exception Client.Error (code, msg) ->
        t.last_failure <- Some (Message.err_code_to_string code ^ ": " ^ msg);
        reset ctx;
        false
  in
  let ok = go max_retries in
  let dt = Trace.now_ns () - t0 in
  Option.iter (fun b -> Trace.finish b ctx.op_span) tracer;
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1
  else if ctx.measuring then begin
    t.lat_ns.(t.ok_ops) <- dt;
    t.kinds.(t.ok_ops) <- op.kind;
    t.ok_ops <- t.ok_ops + 1
  end

let ping ctx =
  match tracing ctx with
  | None -> Client.ping ctx.conn
  | Some b ->
      let s = Trace.start b ~name:"ping" ~parent:(-1) ~op:(-1) in
      Client.ping ctx.conn;
      Trace.finish b s

(* Run the first [warmup] ops of [stream] unmeasured, call [barrier],
   then run the rest measured.  A ping goes out every 100 ops, the
   first as the measured window opens. *)
let drive ctx stream ~warmup ~barrier =
  let measured = Array.length stream - warmup in
  ctx.tally.lat_ns <- Array.make measured 0;
  ctx.tally.kinds <- Array.make measured Append;
  Array.iteri
    (fun seq op ->
      if seq = warmup then begin
        barrier ();
        ctx.measuring <- true
      end;
      if (seq - warmup) mod 100 = 0 then ping ctx;
      run_op ctx op)
    stream
