open Orion_core
module Obs = Orion_obs.Metrics

type granule = G_class of string | G_instance of Oid.t

let pp_granule ppf = function
  | G_class c -> Format.fprintf ppf "class %s" c
  | G_instance oid -> Format.fprintf ppf "instance %a" Oid.pp oid

type tx_id = int

type entry = {
  mutable granted : (tx_id * Lock_mode.t) list;
  mutable queue : (tx_id * Lock_mode.t) list;  (* FIFO, head first *)
}

type stats = { acquisitions : int; blocks : int; wakeups : int }

type t = {
  compat : Lock_mode.t -> Lock_mode.t -> bool;
  entries : (granule, entry) Hashtbl.t;
  acquisitions : Obs.counter;
  blocks : Obs.counter;
  wakeups : Obs.counter;
  upgrades : Obs.counter;
  class_blocks : (string, Obs.counter) Hashtbl.t;
  mutable classify : Oid.t -> string option;
}

let class_block_counter cls =
  Obs.counter (Obs.labeled "lock.blocks" ("class", cls))

(* A new table re-registers the unlabeled totals at zero, so it takes
   over the labeled family too: every [lock.blocks{class=C}] a previous
   table left in the registry becomes a fresh zero counter of this one,
   which [reset_stats] reaches.  The family then never reads higher
   than the total. *)
let create ?(compat = Lock_mode.compat) () =
  let class_blocks = Hashtbl.create 16 in
  List.iter
    (fun cls -> Hashtbl.replace class_blocks cls (class_block_counter cls))
    (Obs.counter_labels "lock.blocks" ~key:"class");
  {
    compat;
    entries = Hashtbl.create 64;
    acquisitions = Obs.counter "lock.acquisitions";
    blocks = Obs.counter "lock.blocks";
    wakeups = Obs.counter "lock.wakeups";
    upgrades = Obs.counter "lock.upgrades";
    class_blocks;
    classify = (fun _ -> None);
  }

let set_classifier t f = t.classify <- f

let granule_class t = function
  | G_class c -> Some c
  | G_instance oid -> t.classify oid

(* One labeled counter per granule class, created on first block —
   contention is rare relative to acquisition, so the hot grant path
   never touches the table. *)
let count_class_block t granule =
  match granule_class t granule with
  | None -> ()
  | Some cls ->
      let c =
        match Hashtbl.find_opt t.class_blocks cls with
        | Some c -> c
        | None ->
            let c = class_block_counter cls in
            Hashtbl.replace t.class_blocks cls c;
            c
      in
      Obs.incr c

let entry t granule =
  match Hashtbl.find_opt t.entries granule with
  | Some e -> e
  | None ->
      let e = { granted = []; queue = [] } in
      Hashtbl.replace t.entries granule e;
      e

let compatible_with_others t entry ~tx mode =
  List.for_all
    (fun (holder, held) -> holder = tx || t.compat mode held)
    entry.granted

let covered entry ~tx mode =
  List.exists
    (fun (holder, held) ->
      holder = tx
      && (held = mode
         || match Lock_mode.supremum held mode with
            | Some sup -> sup = held
            | None -> false))
    entry.granted

let holds t ~tx granule mode = covered (entry t granule) ~tx mode

(* Add [mode] to the transaction's granted modes, coalescing with an
   existing grant when the supremum exists: a holder upgrading must
   not stack a second (tx, mode) pair — [holders]/[locks_of] would
   report duplicates, [covered] would miss coverage two stacked modes
   jointly imply (IX + S held is SIX, but neither entry alone covers a
   SIX request), and grant lists would grow without bound in long
   transactions.  Modes from incomparable families (no supremum, e.g.
   IS and ISO) keep separate entries: no single mode expresses their
   union. *)
let grant t e ~tx mode =
  let rec coalesce = function
    | [] -> None
    | ((holder, held) as kept) :: rest ->
        if holder = tx then
          match Lock_mode.supremum held mode with
          | Some sup -> Some ((tx, sup) :: rest)
          | None -> Option.map (fun rest -> kept :: rest) (coalesce rest)
        else Option.map (fun rest -> kept :: rest) (coalesce rest)
  in
  match coalesce e.granted with
  | Some granted ->
      Obs.incr t.upgrades;
      e.granted <- granted
  | None -> e.granted <- e.granted @ [ (tx, mode) ]

(* A re-polled request from a transaction already queued at this
   granule must not enqueue a second entry — it re-points the queued
   entry at the supremum of the old and new modes (escalation may have
   strengthened the re-derived lock set, e.g. S -> X).  Duplicate
   entries would hide waits-for edges between a transaction's own two
   entries from [blocked_on]'s ahead-scan, hiding deadlocks.  When the
   supremum does not exist (incomparable families) the stronger-queued
   convention cannot apply; the new mode replaces the old, and the
   re-poll that eventually wins re-derives the full set anyway. *)
let requeue e ~tx mode =
  e.queue <-
    List.map
      (fun ((waiter, old) as kept) ->
        if waiter = tx then
          match Lock_mode.supremum old mode with
          | Some sup -> (tx, sup)
          | None -> (tx, mode)
        else kept)
      e.queue

let acquire t ~tx granule mode =
  let e = entry t granule in
  (* Covered first, queue-dedup second: a transaction can be a holder
     AND queued at one granule (waiting on an upgrade, or on the second
     of two modes a self-referential composite derives for one class
     granule).  Its re-poll of a mode it already holds must grant
     without touching the queued entry — routing it through [requeue]
     would overwrite the pending (possibly incomparable) mode with the
     held one and lose the stronger request. *)
  if covered e ~tx mode then begin
    Obs.incr t.acquisitions;
    `Granted
  end
  else if List.exists (fun (waiter, _) -> waiter = tx) e.queue then begin
    requeue e ~tx mode;
    `Blocked
  end
  else begin
    Obs.incr t.acquisitions;
    if
      (* FIFO fairness: a request must also wait behind queued requests
         of other transactions unless it is already a holder
         upgrading. *)
      compatible_with_others t e ~tx mode
      && (e.queue = [] || List.mem_assoc tx e.granted)
    then begin
      grant t e ~tx mode;
      `Granted
    end
    else begin
      Obs.incr t.blocks;
      count_class_block t granule;
      e.queue <- e.queue @ [ (tx, mode) ];
      `Blocked
    end
  end

let try_acquire t ~tx granule mode =
  let e = entry t granule in
  if covered e ~tx mode then begin
    (* Account the covered path like [acquire] does, so callers that
       mix the two entry points (opportunistic escalation) see
       consistent acquisition counts. *)
    Obs.incr t.acquisitions;
    true
  end
  else if
    compatible_with_others t e ~tx mode
    && (e.queue = [] || List.mem_assoc tx e.granted)
  then begin
    Obs.incr t.acquisitions;
    grant t e ~tx mode;
    true
  end
  else false

let holders t granule = (entry t granule).granted

let locks_of t ~tx =
  Hashtbl.fold
    (fun granule e acc ->
      List.fold_left
        (fun acc (holder, mode) -> if holder = tx then (granule, mode) :: acc else acc)
        acc e.granted)
    t.entries []

let waiting t =
  Hashtbl.fold
    (fun granule e acc ->
      List.fold_left (fun acc (tx, mode) -> (tx, granule, mode) :: acc) acc e.queue)
    t.entries []

(* Promote queued requests that have become compatible, FIFO. *)
let promote t e =
  let woken = ref [] in
  let rec go queue =
    match queue with
    | [] -> []
    | (tx, mode) :: rest ->
        if compatible_with_others t e ~tx mode then begin
          grant t e ~tx mode;
          Obs.incr t.wakeups;
          woken := tx :: !woken;
          go rest
        end
        else (tx, mode) :: rest
        (* strict FIFO: stop at the first request that must keep waiting *)
  in
  e.queue <- go e.queue;
  !woken

let release_all t ~tx =
  let woken = ref [] in
  Hashtbl.iter
    (fun _ e ->
      e.granted <- List.filter (fun (holder, _) -> holder <> tx) e.granted;
      e.queue <- List.filter (fun (waiter, _) -> waiter <> tx) e.queue)
    t.entries;
  Hashtbl.iter (fun _ e -> woken := promote t e @ !woken) t.entries;
  (* Fully unblocked = no queued request left anywhere. *)
  let still_queued = List.map (fun (tx, _, _) -> tx) (waiting t) in
  List.sort_uniq Int.compare
    (List.filter (fun tx -> not (List.mem tx still_queued)) !woken)

let blocked_on t ~tx =
  Hashtbl.fold
    (fun _ e acc ->
      if List.exists (fun (waiter, _) -> waiter = tx) e.queue then begin
        (* Waits-for edges: holders whose mode is incompatible with any
           of the transaction's queued modes, plus — because grants are
           FIFO — every distinct transaction queued ahead of any of its
           entries.  The scan tracks who is ahead as it walks, so a
           transaction queued twice (possible across incomparable mode
           families) contributes the waiters between its entries too. *)
        let rec ahead_scan ahead acc = function
          | [] -> acc
          | (waiter, _) :: rest when waiter = tx ->
              ahead_scan ahead (ahead @ acc) rest
          | (waiter, _) :: rest -> ahead_scan (waiter :: ahead) acc rest
        in
        let acc = ahead_scan [] acc e.queue in
        List.fold_left
          (fun acc (waiter, mode) ->
            if waiter = tx then
              List.fold_left
                (fun acc (holder, held) ->
                  if holder <> tx && not (t.compat mode held) then holder :: acc
                  else acc)
                acc e.granted
            else acc)
          acc e.queue
      end
      else acc)
    t.entries []
  |> List.filter (fun other -> other <> tx)
  |> List.sort_uniq Int.compare

(* Cycle search over the waits-for graph. *)
let find_deadlock t =
  let txs =
    List.sort_uniq Int.compare (List.map (fun (tx, _, _) -> tx) (waiting t))
  in
  (* Transactions fully explored without finding a cycle.  The set is
     shared across the whole search, not threaded per branch: a node
     from which no cycle is reachable stays cycle-free however it is
     reached again, so each node is expanded once and the search is
     linear in the waits-for graph.  (Per-branch visited sets made this
     exponential on the dense graphs a convoy of waiters produces —
     waiter i blocked on the holder and every waiter ahead of it.) *)
  let cleared = Hashtbl.create 16 in
  let rec dfs path tx =
    if List.mem tx path then
      (* Cycle: the suffix of the path from the first occurrence. *)
      let rec suffix = function
        | [] -> []
        | x :: rest -> if x = tx then x :: rest else suffix rest
      in
      Some (suffix (List.rev path))
    else if Hashtbl.mem cleared tx then None
    else
      let result =
        List.fold_left
          (fun acc next ->
            match acc with Some _ -> acc | None -> dfs (tx :: path) next)
          None (blocked_on t ~tx)
      in
      (match result with None -> Hashtbl.replace cleared tx () | Some _ -> ());
      result
  in
  List.fold_left
    (fun acc tx -> match acc with Some _ -> acc | None -> dfs [] tx)
    None txs

let stats (t : t) : stats =
  {
    acquisitions = Obs.counter_value t.acquisitions;
    blocks = Obs.counter_value t.blocks;
    wakeups = Obs.counter_value t.wakeups;
  }

let reset_stats (t : t) =
  Obs.reset_counter t.acquisitions;
  Obs.reset_counter t.blocks;
  Obs.reset_counter t.wakeups;
  Obs.reset_counter t.upgrades;
  (* The per-class family too: left alone it would keep counting from
     before the reset and read higher than the [lock.blocks] total. *)
  Hashtbl.iter (fun _ c -> Obs.reset_counter c) t.class_blocks
