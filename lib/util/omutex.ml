(* Ranked mutexes.  See the .mli for the contract; what matters in here
   is the cost model: with no tracer installed every operation is the
   raw Mutex call behind one [if !enabled] — no allocation, no
   callstack capture, nothing the branch predictor cannot hide.  All
   bookkeeping (class registry, site extraction) happens either at
   declaration time or only when a tracer is listening. *)

type klass = { k_name : string; k_rank : int; k_doc : string }

(* Declarations happen at module-init time (and in tests), never on a
   hot path, so a plain mutex guards the registry.  Plain mutexes are
   invisible to the tracer by construction — the checker must never
   observe its own machinery. *)
let registry : (string, klass) Hashtbl.t = Hashtbl.create 16
let registry_mu = Mutex.create ()

let declare ~doc ~name ~rank () =
  let k = { k_name = name; k_rank = rank; k_doc = doc } in
  Mutex.lock registry_mu;
  let dup = Hashtbl.mem registry name in
  if not dup then Hashtbl.replace registry name k;
  Mutex.unlock registry_mu;
  if dup then invalid_arg (Printf.sprintf "Omutex.declare: duplicate class %S" name);
  k

let name k = k.k_name
let rank k = k.k_rank
let doc k = k.k_doc

let classes () =
  Mutex.lock registry_mu;
  let all = Hashtbl.fold (fun _ k acc -> k :: acc) registry [] in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> compare (a.k_rank, a.k_name) (b.k_rank, b.k_name)) all

let hierarchy_markdown () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "| rank | class | role |\n";
  Buffer.add_string b "|-----:|-------|------|\n";
  List.iter
    (fun k ->
      Buffer.add_string b
        (Printf.sprintf "| %d | `%s` | %s |\n" k.k_rank k.k_name k.k_doc))
    (classes ());
  Buffer.contents b

(* The engine hierarchy, outermost (lowest rank) first.  Every class
   guards state that two threads share: the reactor and the group
   committer (inbox, batch queue, log), or any thread with the metrics
   registry.  The rank gaps are room for future classes.  Ordering
   arguments, in brief: Obs.snapshot holds the registry while calling
   gauge closures that read the WAL, so the log ranks above it; the WAL
   log mutex is innermost — everything logs, nothing is acquired under
   it. *)

let shard_inbox =
  declare ~name:"shard.inbox" ~rank:20
    ~doc:"reactor inbox: sealed batches from the committer thread" ()

let group_commit =
  declare ~name:"wal.group_commit" ~rank:40
    ~doc:"group-commit batch queue and committer condition" ()

let obs_registry =
  declare ~name:"obs.registry" ~rank:50
    ~doc:"metrics registry; snapshot holds it across gauge closures" ()

let wal_log =
  declare ~name:"wal.log" ~rank:70
    ~doc:"WAL append/seal/sync; held across the fsync-point by design" ()

type event =
  | Acquire of { cls : klass; inst : int; site : string }
  | Release of { cls : klass; inst : int }

let enabled = ref false
let tracer : (event -> unit) ref = ref (fun _ -> ())

let set_tracer = function
  | None ->
      enabled := false;
      tracer := fun _ -> ()
  | Some f ->
      tracer := f;
      enabled := true

(* First stack slot outside this module: the acquisition site a witness
   names.  Only runs with a tracer installed; without debug info (or
   from a toplevel) it degrades to "?". *)
let site () =
  let bt = Printexc.get_callstack 16 in
  match Printexc.backtrace_slots bt with
  | None -> "?"
  | Some slots ->
      let best = ref "?" in
      (try
         Array.iter
           (fun slot ->
             match Printexc.Slot.location slot with
             | Some loc ->
                 let base = Filename.basename loc.Printexc.filename in
                 if base <> "omutex.ml" && base <> "lockdep.ml" then begin
                   best := Printf.sprintf "%s:%d" base loc.Printexc.line_number;
                   raise Exit
                 end
             | None -> ())
           slots
       with Exit -> ());
      !best

type t = { m : Mutex.t; cls : klass; inst : int }

(* Without an explicit instance number, every created mutex gets its
   own (negative, so it can never collide with a caller-chosen index):
   two servers in one test process each own a wal.log, and the checker
   must see two instances, not one mutex recursively locked. *)
let next_auto = Atomic.make 1

let create ?inst cls =
  let inst =
    match inst with
    | Some i -> i
    | None -> -Atomic.fetch_and_add next_auto 1
  in
  { m = Mutex.create (); cls; inst }

let lock t =
  (* Report before blocking: if this acquisition is the second half of
     an inversion, the finding lands even when the lock then deadlocks
     for real. *)
  if !enabled then
    !tracer (Acquire { cls = t.cls; inst = t.inst; site = site () });
  Mutex.lock t.m

let try_lock t =
  let got = Mutex.try_lock t.m in
  if got && !enabled then
    !tracer (Acquire { cls = t.cls; inst = t.inst; site = site () });
  got

let unlock t =
  if !enabled then !tracer (Release { cls = t.cls; inst = t.inst });
  Mutex.unlock t.m

let with_lock t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f

let wait cond t =
  if !enabled then !tracer (Release { cls = t.cls; inst = t.inst });
  Condition.wait cond t.m;
  if !enabled then
    !tracer (Acquire { cls = t.cls; inst = t.inst; site = site () })
