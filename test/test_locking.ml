(* Tests for Orion_locking: mode compatibility (Figures 7/8), the lock
   table (FIFO queues, conversion, deadlock detection), the composite
   protocols and the GARZ88 root-locking algorithm. *)

open Orion_core
module A = Orion_schema.Attribute
module D = Orion_schema.Domain
module Schema = Orion_schema.Schema
module LM = Orion_locking.Lock_mode
module LT = Orion_locking.Lock_table
module Protocol = Orion_locking.Protocol

(* Modes -------------------------------------------------------------------- *)

let test_textual_constraints () =
  let open LM in
  (* Every constraint stated in §7's prose. *)
  Alcotest.(check bool) "IS || IX" true (compat IS IX);
  Alcotest.(check bool) "ISO conflicts IX" false (compat ISO IX);
  Alcotest.(check bool) "IXO conflicts IS" false (compat IXO IS);
  Alcotest.(check bool) "IXO conflicts IX" false (compat IXO IX);
  Alcotest.(check bool) "SIXO conflicts IS" false (compat SIXO IS);
  Alcotest.(check bool) "SIXO conflicts IX" false (compat SIXO IX);
  (* "several readers and writers on a component class of exclusive
     references" *)
  Alcotest.(check bool) "ISO || ISO" true (compat ISO ISO);
  Alcotest.(check bool) "ISO || IXO" true (compat ISO IXO);
  Alcotest.(check bool) "IXO || IXO" true (compat IXO IXO);
  (* "several readers and one writer on a component class of shared
     references" *)
  Alcotest.(check bool) "ISOS || ISOS" true (compat ISOS ISOS);
  Alcotest.(check bool) "ISOS conflicts IXOS" false (compat ISOS IXOS);
  Alcotest.(check bool) "IXOS conflicts IXOS" false (compat IXOS IXOS);
  (* Figure-9 example consequences. *)
  Alcotest.(check bool) "IXO || ISOS (examples 1,2)" true (compat IXO ISOS);
  Alcotest.(check bool) "IXO conflicts IXOS (example 3 vs 1)" false (compat IXO IXOS)

let test_matrix_symmetric_and_x_exclusive () =
  let open LM in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "sym %s/%s" (to_string a) (to_string b))
            (compat a b) (compat b a))
        all;
      Alcotest.(check bool)
        (Printf.sprintf "X conflicts %s" (to_string a))
        false (compat X a))
    all

let test_refined_superset () =
  let open LM in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if compat a b then
            Alcotest.(check bool)
              (Printf.sprintf "refined admits %s/%s" (to_string a) (to_string b))
              true (compat_refined a b))
        all)
    all;
  Alcotest.(check bool) "refined admits IXO || IXOS" true (compat_refined IXO IXOS);
  Alcotest.(check bool) "refined still blocks IXOS || IXOS" false
    (compat_refined IXOS IXOS)

let mode_t = Alcotest.testable LM.pp ( = )

let test_supremum () =
  let open LM in
  Alcotest.(check (option mode_t)) "IS v IX" (Some IX) (supremum IS IX);
  Alcotest.(check (option mode_t)) "S v IX" (Some SIX) (supremum S IX);
  Alcotest.(check (option mode_t)) "S v X" (Some X) (supremum S X);
  Alcotest.(check (option mode_t)) "ISO v IXO" (Some IXO) (supremum ISO IXO);
  Alcotest.(check (option mode_t)) "cross-family none" None (supremum IS ISO)

let test_of_string () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (LM.to_string m) true
        (LM.of_string (LM.to_string m) = Some m))
    LM.all;
  Alcotest.(check bool) "junk" true (LM.of_string "Z" = None)

(* Lock table ------------------------------------------------------------------ *)

let g1 = LT.G_class "C"
let gi oid = LT.G_instance (Oid.of_int oid)

let test_grant_and_conflict () =
  let t = LT.create () in
  Alcotest.(check bool) "t1 S granted" true (LT.acquire t ~tx:1 g1 LM.S = `Granted);
  Alcotest.(check bool) "t2 IS granted" true (LT.acquire t ~tx:2 g1 LM.IS = `Granted);
  Alcotest.(check bool) "t3 IX blocked" true (LT.acquire t ~tx:3 g1 LM.IX = `Blocked);
  Alcotest.(check int) "two holders" 2 (List.length (LT.holders t g1));
  Alcotest.(check int) "one waiter" 1 (List.length (LT.waiting t))

let test_fifo_wakeup () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 g1 LM.X);
  Alcotest.(check bool) "t2 queued" true (LT.acquire t ~tx:2 g1 LM.S = `Blocked);
  Alcotest.(check bool) "t3 queued" true (LT.acquire t ~tx:3 g1 LM.S = `Blocked);
  let woken = LT.release_all t ~tx:1 in
  Alcotest.(check (list Alcotest.int)) "both readers wake" [ 2; 3 ] woken;
  Alcotest.(check int) "both granted" 2 (List.length (LT.holders t g1))

let test_fifo_no_overtaking () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 g1 LM.S);
  ignore (LT.acquire t ~tx:2 g1 LM.X) (* blocked *);
  (* A new reader must NOT jump the queued writer. *)
  Alcotest.(check bool) "reader waits behind writer" true
    (LT.acquire t ~tx:3 g1 LM.S = `Blocked);
  let woken = LT.release_all t ~tx:1 in
  Alcotest.(check (list Alcotest.int)) "writer first" [ 2 ] woken

let test_reacquire_held_is_granted () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 g1 LM.IX);
  Alcotest.(check bool) "same mode again" true (LT.acquire t ~tx:1 g1 LM.IX = `Granted);
  Alcotest.(check bool) "covered mode (IX covers IS)" true
    (LT.acquire t ~tx:1 g1 LM.IS = `Granted);
  Alcotest.(check bool) "holds" true (LT.holds t ~tx:1 g1 LM.IS)

let test_self_upgrade () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 g1 LM.IS);
  (* Upgrading against only one's own locks succeeds. *)
  Alcotest.(check bool) "upgrade to X" true (LT.acquire t ~tx:1 g1 LM.X = `Granted)

let test_deadlock_detection () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 (gi 1) LM.X);
  ignore (LT.acquire t ~tx:2 (gi 2) LM.X);
  Alcotest.(check bool) "t1 waits for t2" true (LT.acquire t ~tx:1 (gi 2) LM.X = `Blocked);
  Alcotest.(check bool) "no deadlock yet" true (LT.find_deadlock t = None);
  Alcotest.(check bool) "t2 waits for t1" true (LT.acquire t ~tx:2 (gi 1) LM.X = `Blocked);
  (match LT.find_deadlock t with
  | Some cycle ->
      Alcotest.(check bool) "cycle has both" true
        (List.mem 1 cycle && List.mem 2 cycle)
  | None -> Alcotest.fail "deadlock not found");
  (* Breaking it by releasing one transaction clears the cycle. *)
  ignore (LT.release_all t ~tx:2 : int list);
  Alcotest.(check bool) "cleared" true (LT.find_deadlock t = None)

let test_release_drops_queue_entries () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 g1 LM.X);
  ignore (LT.acquire t ~tx:2 g1 LM.X) (* queued *);
  ignore (LT.release_all t ~tx:2 : int list);
  Alcotest.(check int) "queue empty" 0 (List.length (LT.waiting t))

(* Lock-table regressions ------------------------------------------------------ *)

(* A blocked transaction re-polling with a different mode must not grow
   the queue: the single queued entry is replaced with the supremum of
   the old and new requests. *)
let test_requeue_dedup () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 g1 LM.X);
  Alcotest.(check bool) "t2 S blocked" true (LT.acquire t ~tx:2 g1 LM.S = `Blocked);
  Alcotest.(check bool) "t2 X re-poll blocked" true
    (LT.acquire t ~tx:2 g1 LM.X = `Blocked);
  let t2_waits = List.filter (fun (tx, _, _) -> tx = 2) (LT.waiting t) in
  Alcotest.(check int) "one queue entry for t2" 1 (List.length t2_waits);
  (match t2_waits with
  | [ (_, _, m) ] -> Alcotest.check mode_t "queued mode is the supremum" LM.X m
  | _ -> Alcotest.fail "expected a single queued entry");
  (* Re-polling with a weaker mode must not downgrade the queued entry. *)
  Alcotest.(check bool) "t2 IS re-poll blocked" true
    (LT.acquire t ~tx:2 g1 LM.IS = `Blocked);
  (match List.filter (fun (tx, _, _) -> tx = 2) (LT.waiting t) with
  | [ (_, _, m) ] -> Alcotest.check mode_t "still the supremum" LM.X m
  | l -> Alcotest.failf "expected one queued entry, got %d" (List.length l));
  (* Once t1 releases, the deduplicated request is granted at X. *)
  Alcotest.(check (list Alcotest.int)) "t2 wakes" [ 2 ] (LT.release_all t ~tx:1);
  Alcotest.(check bool) "granted at X" true (LT.holds t ~tx:2 g1 LM.X)

(* A holder upgrading must end up with ONE granted entry at the
   supremum, not a stack of (tx, mode) entries. *)
let test_upgrade_coalesces () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 g1 LM.IX);
  Alcotest.(check bool) "upgrade to S granted" true
    (LT.acquire t ~tx:1 g1 LM.S = `Granted);
  (match LT.holders t g1 with
  | [ (1, m) ] -> Alcotest.check mode_t "single entry at SIX" LM.SIX m
  | l -> Alcotest.failf "expected one holder entry, got %d" (List.length l));
  Alcotest.(check bool) "covers SIX" true (LT.holds t ~tx:1 g1 LM.SIX);
  Alcotest.(check bool) "a covered re-request is granted" true
    (LT.acquire t ~tx:1 g1 LM.IX = `Granted)

(* [try_acquire] on the already-covered path counts as an acquisition,
   and a failed probe leaves the counters untouched. *)
let test_try_acquire_counts () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 g1 LM.IX);
  Alcotest.(check int) "one acquisition" 1 (LT.stats t).LT.acquisitions;
  Alcotest.(check bool) "covered probe succeeds" true (LT.try_acquire t ~tx:1 g1 LM.IS);
  Alcotest.(check int) "covered probe counted" 2 (LT.stats t).LT.acquisitions;
  Alcotest.(check bool) "conflicting probe fails" false
    (LT.try_acquire t ~tx:2 g1 LM.X);
  Alcotest.(check int) "failed probe not counted" 2 (LT.stats t).LT.acquisitions;
  Alcotest.(check int) "failed probe leaves no block" 0 (LT.stats t).LT.blocks

(* Deadlock detection across a convoy whose members have re-polled:
   the duplicate requests must neither hide the cycle nor corrupt the
   waits-for edges. *)
let test_deadlock_with_repolled_convoy () =
  let t = LT.create () in
  ignore (LT.acquire t ~tx:1 (gi 1) LM.X);
  ignore (LT.acquire t ~tx:2 (gi 2) LM.X);
  Alcotest.(check bool) "t2 queues on g1" true (LT.acquire t ~tx:2 (gi 1) LM.S = `Blocked);
  (* Convoy member behind t2, re-polling as a server reactor would. *)
  Alcotest.(check bool) "t3 queues behind t2" true
    (LT.acquire t ~tx:3 (gi 1) LM.S = `Blocked);
  ignore (LT.acquire t ~tx:2 (gi 1) LM.X);
  ignore (LT.acquire t ~tx:3 (gi 1) LM.S);
  ignore (LT.acquire t ~tx:2 (gi 1) LM.X);
  Alcotest.(check bool) "no cycle yet" true (LT.find_deadlock t = None);
  Alcotest.(check bool) "t1 queues on g2" true (LT.acquire t ~tx:1 (gi 2) LM.X = `Blocked);
  (match LT.find_deadlock t with
  | Some cycle ->
      Alcotest.(check bool) "cycle is t1/t2" true
        (List.mem 1 cycle && List.mem 2 cycle && not (List.mem 3 cycle))
  | None -> Alcotest.fail "deadlock hidden by re-polled duplicates");
  (* Victim release clears the cycle and wakes the convoy in order. *)
  ignore (LT.release_all t ~tx:2 : int list);
  Alcotest.(check bool) "cleared" true (LT.find_deadlock t = None)

(* Property: under random acquire/re-poll/upgrade/release interleavings
   over the single-family modes (where suprema always exist), the table
   keeps its structural invariants: at most one queued entry and one
   granted entry per (tx, granule), grants of distinct transactions
   pairwise compatible, and the coalesced held mode still covering
   every mode the transaction was ever granted. *)
let prop_lock_table_interleavings =
  let single = [ LM.IS; LM.IX; LM.S; LM.SIX; LM.X ] in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map
              (fun ((tx, g), m) -> `Acquire (tx, g, m))
              (pair (pair (int_range 1 4) (int_range 0 2)) (oneofl single)) );
          (1, map (fun tx -> `Release tx) (int_range 1 4));
        ])
  in
  QCheck.Test.make ~name:"lock-table interleaving invariants" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let t = LT.create () in
      let granule = function 0 -> g1 | n -> gi n in
      (* Modes each tx has been granted per granule, to check coverage. *)
      let history : (int * int, LM.t) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      let check () =
        let seen = Hashtbl.create 16 in
        List.iter
          (fun (tx, g, _) ->
            if Hashtbl.mem seen (tx, g) then ok := false;
            Hashtbl.replace seen (tx, g) ())
          (LT.waiting t);
        List.iter
          (fun g ->
            let hs = LT.holders t (granule g) in
            let txs = List.map fst hs in
            if List.length txs <> List.length (List.sort_uniq compare txs) then
              ok := false;
            List.iteri
              (fun i (tx_a, m_a) ->
                List.iteri
                  (fun j (tx_b, m_b) ->
                    if i < j && tx_a <> tx_b && not (LM.compat m_a m_b) then
                      ok := false)
                  hs)
              hs;
            List.iter
              (fun (tx, _) ->
                List.iter
                  (fun m -> if not (LT.holds t ~tx (granule g) m) then ok := false)
                  (Hashtbl.find_all history (tx, g)))
              hs)
          [ 0; 1; 2 ]
      in
      List.iter
        (fun op ->
          (match op with
          | `Acquire (tx, g, m) -> (
              match LT.acquire t ~tx (granule g) m with
              | `Granted -> Hashtbl.add history (tx, g) m
              | `Blocked -> ())
          | `Release tx ->
              List.iter
                (fun g ->
                  while Hashtbl.mem history (tx, g) do
                    Hashtbl.remove history (tx, g)
                  done)
                [ 0; 1; 2 ];
              ignore (LT.release_all t ~tx : int list));
          check ())
        ops;
      !ok)

(* Protocols --------------------------------------------------------------------- *)

let protocol_fixture () =
  let db = Database.create () in
  let define name attrs =
    ignore
      (Schema.define (Database.schema db) ~name ~attributes:attrs ()
        : Orion_schema.Class_def.t)
  in
  define "W" [];
  define "C"
    [
      A.make ~name:"Ws" ~domain:(D.Class "W") ~collection:A.Set
        ~refkind:(A.composite ~exclusive:true ~dependent:false ())
        ();
    ];
  define "Root"
    [
      A.make ~name:"Cs" ~domain:(D.Class "C") ~collection:A.Set
        ~refkind:(A.composite ~exclusive:false ~dependent:false ())
        ();
    ];
  let root = Object_manager.create db ~cls:"Root" () in
  let c = Object_manager.create db ~cls:"C" ~parents:[ (root, "Cs") ] () in
  let w = Object_manager.create db ~cls:"W" ~parents:[ (c, "Ws") ] () in
  (db, root, c, w)

let has set granule mode = List.mem (granule, mode) set

let test_composite_lock_set () =
  let db, root, _, _ = protocol_fixture () in
  let set = Protocol.composite_object_locks db ~root Protocol.Read_ in
  Alcotest.(check bool) "root class IS" true (has set (LT.G_class "Root") LM.IS);
  Alcotest.(check bool) "root instance S" true (has set (LT.G_instance root) LM.S);
  Alcotest.(check bool) "shared component class ISOS" true
    (has set (LT.G_class "C") LM.ISOS);
  Alcotest.(check bool) "exclusive component class ISO" true
    (has set (LT.G_class "W") LM.ISO);
  let set_u = Protocol.composite_object_locks db ~root Protocol.Update in
  Alcotest.(check bool) "update: IX/X/IXOS/IXO" true
    (has set_u (LT.G_class "Root") LM.IX
    && has set_u (LT.G_instance root) LM.X
    && has set_u (LT.G_class "C") LM.IXOS
    && has set_u (LT.G_class "W") LM.IXO)

let test_instance_lock_set () =
  let db, _, c, _ = protocol_fixture () in
  let set = Protocol.instance_locks db c Protocol.Update in
  Alcotest.(check int) "two locks" 2 (List.length set);
  Alcotest.(check bool) "class IX + instance X" true
    (has set (LT.G_class "C") LM.IX && has set (LT.G_instance c) LM.X)

let test_roots_of () =
  let db, root, c, w = protocol_fixture () in
  Alcotest.(check (list (Alcotest.testable Oid.pp Oid.equal))) "roots of w" [ root ]
    (Protocol.roots_of db w);
  Alcotest.(check (list (Alcotest.testable Oid.pp Oid.equal))) "roots of c" [ root ]
    (Protocol.roots_of db c);
  Alcotest.(check (list (Alcotest.testable Oid.pp Oid.equal)))
    "a root is its own root" [ root ] (Protocol.roots_of db root)

let test_hierarchy_scan_locks () =
  let db, root, _, _ = protocol_fixture () in
  let scan = Protocol.hierarchy_scan_locks db ~root_cls:"Root" Protocol.Scan_read in
  Alcotest.(check bool) "scan read: S everywhere" true
    (has scan (LT.G_class "Root") LM.S
    && has scan (LT.G_class "C") LM.S
    && has scan (LT.G_class "W") LM.S);
  let six = Protocol.hierarchy_scan_locks db ~root_cls:"Root" Protocol.Scan_update_some in
  Alcotest.(check bool) "scan update: SIX/SIXOS/SIXO" true
    (has six (LT.G_class "Root") LM.SIX
    && has six (LT.G_class "C") LM.SIXOS
    && has six (LT.G_class "W") LM.SIXO);
  (* A full read scan conflicts with any composite update of the same
     hierarchy (S vs IX at the root class)... *)
  let update = Protocol.composite_object_locks db ~root Protocol.Update in
  Alcotest.(check bool) "scan vs update" false
    (Protocol.compatible_lock_sets scan update ());
  (* ...but coexists with a composite read. *)
  let read = Protocol.composite_object_locks db ~root Protocol.Read_ in
  Alcotest.(check bool) "scan vs read" true
    (Protocol.compatible_lock_sets scan read ());
  (* The SIX scan updates SOME shared components; on a shared component
     class the matrix admits several readers or one writer, so even a
     composite reader of the same hierarchy is excluded (SIXOS vs ISOS)
     — exclusive-only hierarchies would admit it (SIXO || ISO). *)
  Alcotest.(check bool) "six scan vs composite read" false
    (Protocol.compatible_lock_sets six read ());
  let direct_w = Protocol.instance_locks db root Protocol.Update in
  Alcotest.(check bool) "six scan vs direct writer" false
    (Protocol.compatible_lock_sets six direct_w ())

let test_implicit_coverage () =
  let db, root, c, w = protocol_fixture () in
  let locks = Protocol.root_locking_locks db w Protocol.Read_ in
  let coverage = Protocol.implicit_coverage db locks in
  let covered oid = List.exists (fun (o, _) -> Oid.equal o oid) coverage in
  Alcotest.(check bool) "covers the whole composite" true
    (covered root && covered c && covered w)

(* Property: the derived matrices agree with brute-force checks of the
   coverage semantics' monotonicity: if a mode's facets are pointwise
   below another's, it must be compatible with at least everything the
   stronger one is. *)
let prop_matrix_monotone =
  QCheck.Test.make ~name:"weaker modes are more compatible" ~count:200
    QCheck.(make QCheck.Gen.(triple (oneofl LM.all) (oneofl LM.all) (oneofl LM.all)))
    (fun (a, b, other) ->
      match LM.supremum a b with
      | Some sup when sup = b ->
          (* a <= b: whatever is compatible with b is compatible with a. *)
          (not (LM.compat other b)) || LM.compat other a
      | _ -> true)

(* Property: the printed name is a faithful key — [of_string] inverts
   [to_string] for every mode, and unknown names are rejected. *)
let prop_mode_string_roundtrip =
  QCheck.Test.make ~name:"of_string inverts to_string" ~count:100
    QCheck.(make QCheck.Gen.(oneofl LM.all))
    (fun m -> LM.of_string (LM.to_string m) = Some m)

(* Property: the A3 ablation is a true refinement — it admits every
   pair the paper's matrix does, and (witnessed separately below)
   strictly more. *)
let prop_refined_admits_superset =
  QCheck.Test.make ~name:"compat_refined admits a superset of compat" ~count:200
    QCheck.(make QCheck.Gen.(pair (oneofl LM.all) (oneofl LM.all)))
    (fun (a, b) -> (not (LM.compat a b)) || LM.compat_refined a b)

let test_refined_strictly_refines () =
  (* Strictness: at least one pair is admitted only by the refinement,
     so the ablation is not vacuous. *)
  let strict =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if LM.compat_refined a b && not (LM.compat a b) then Some (a, b)
            else None)
          LM.all)
      LM.all
  in
  Alcotest.(check bool) "some pair admitted only by refined" true (strict <> [])

(* Per-class block labels: a block on a class granule labels directly;
   a block on an instance granule goes through the classifier; an
   unclassifiable oid reaches only the unlabeled total. *)
let test_per_class_block_labels () =
  let module Obs = Orion_obs.Metrics in
  let t = LT.create () in
  LT.set_classifier t (fun oid ->
      if Oid.to_int oid = 1 then Some "Widget" else None);
  ignore (LT.acquire t ~tx:1 (LT.G_class "Gadget") LM.X);
  Alcotest.(check bool) "class granule blocks" true
    (LT.acquire t ~tx:2 (LT.G_class "Gadget") LM.X = `Blocked);
  ignore (LT.acquire t ~tx:1 (LT.G_instance (Oid.of_int 1)) LM.X);
  Alcotest.(check bool) "classified instance blocks" true
    (LT.acquire t ~tx:2 (LT.G_instance (Oid.of_int 1)) LM.X = `Blocked);
  ignore (LT.acquire t ~tx:1 (LT.G_instance (Oid.of_int 2)) LM.X);
  Alcotest.(check bool) "unclassified instance blocks" true
    (LT.acquire t ~tx:2 (LT.G_instance (Oid.of_int 2)) LM.X = `Blocked);
  let snap = Obs.snapshot () in
  Alcotest.(check (option int)) "class-granule label" (Some 1)
    (Obs.find_counter snap (Obs.labeled "lock.blocks" ("class", "Gadget")));
  Alcotest.(check (option int)) "classifier label" (Some 1)
    (Obs.find_counter snap (Obs.labeled "lock.blocks" ("class", "Widget")));
  Alcotest.(check (option int)) "no label for unclassifiable oid" None
    (Obs.find_counter snap (Obs.labeled "lock.blocks" ("class", "?")));
  Alcotest.(check int) "unlabeled total counts all three" 3 (LT.stats t).LT.blocks

(* The per-class block family resets with the totals: after a reset
   no [lock.blocks{class=C}] may read higher than [lock.blocks]. *)
let test_reset_stats_resets_class_family () =
  let module Obs = Orion_obs.Metrics in
  let t = LT.create () in
  let block_on cls ~holder ~waiter =
    ignore (LT.acquire t ~tx:holder (LT.G_class cls) LM.X);
    Alcotest.(check bool) (cls ^ " blocks") true
      (LT.acquire t ~tx:waiter (LT.G_class cls) LM.X = `Blocked)
  in
  block_on "Assembly" ~holder:1 ~waiter:2;
  block_on "Part" ~holder:1 ~waiter:3;
  LT.reset_stats t;
  block_on "Assembly" ~holder:1 ~waiter:4;
  let snap = Obs.snapshot () in
  let total = Option.value ~default:0 (Obs.find_counter snap "lock.blocks") in
  Alcotest.(check int) "total counts the block since the reset" 1 total;
  List.iter
    (fun cls ->
      let name = Obs.labeled "lock.blocks" ("class", cls) in
      let v = Option.value ~default:0 (Obs.find_counter snap name) in
      if v > total then
        Alcotest.failf "%s = %d exceeds lock.blocks = %d" name v total)
    [ "Assembly"; "Part" ]

(* A new table takes over the labeled family a previous table left in
   the registry: table A blocks on Assembly, then table B is created,
   and no [lock.blocks{class=C}] may read higher than B's fresh
   [lock.blocks] total. *)
let test_new_table_takes_over_class_family () =
  let module Obs = Orion_obs.Metrics in
  let a = LT.create () in
  ignore (LT.acquire a ~tx:1 (LT.G_class "Assembly") LM.X);
  Alcotest.(check bool) "table A blocks" true
    (LT.acquire a ~tx:2 (LT.G_class "Assembly") LM.X = `Blocked);
  let _b = LT.create () in
  let snap = Obs.snapshot () in
  let total = Option.value ~default:0 (Obs.find_counter snap "lock.blocks") in
  List.iter
    (fun (name, v) ->
      match Obs.label_value name ~base:"lock.blocks" ~key:"class" with
      | Some _ when v > total ->
          Alcotest.failf "%s = %d exceeds lock.blocks = %d" name v total
      | Some _ | None -> ())
    snap.Obs.counters

(* Property: a constructed wait-for cycle of length k among holder-only
   bystanders is always found, the found cycle is exactly the
   constructed one, and aborting the youngest member (the server's
   victim policy) clears it. *)
let prop_k_cycles_found =
  QCheck.Test.make ~name:"k-cycles found, youngest victim clears" ~count:100
    QCheck.(make QCheck.Gen.(pair (int_range 2 6) (int_range 0 3)))
    (fun (k, noise) ->
      let t = LT.create () in
      let oid i = LT.G_instance (Oid.of_int i) in
      (* k transactions each hold their own oid. *)
      for i = 1 to k do
        if LT.acquire t ~tx:i (oid i) LM.X <> `Granted then
          failwith "a holder was refused its own oid"
      done;
      (* Holder-only bystanders: traffic that must not confuse the
         search or the victim policy. *)
      for j = 1 to noise do
        ignore (LT.acquire t ~tx:(100 + j) (oid (100 + j)) LM.X)
      done;
      (* The cycle: i waits for i+1, k waits for 1. *)
      for i = 1 to k do
        if LT.acquire t ~tx:i (oid ((i mod k) + 1)) LM.X <> `Blocked then
          failwith "a cycle edge was granted"
      done;
      match LT.find_deadlock t with
      | None -> failwith "a constructed cycle went unfound"
      | Some cycle ->
          if
            List.length cycle <> k
            || List.sort Int.compare cycle <> List.init k (fun i -> i + 1)
          then failwith "the found cycle is not the constructed one";
          (* Youngest-victim abort, exactly like the server's breaker. *)
          let victim = List.fold_left max min_int cycle in
          if victim <> k then failwith "youngest victim is not the max tx id";
          ignore (LT.release_all t ~tx:victim : int list);
          LT.find_deadlock t = None)

let () =
  (* ORION_LOCKDEP=1: watch this suite's real lock traffic; install's
     exit hook fails the run on any discipline violation. *)
  Orion_analysis.Lockdep.install_from_env ();
  Alcotest.run "orion_locking"
    [
      ( "modes",
        [
          Alcotest.test_case "textual constraints" `Quick test_textual_constraints;
          Alcotest.test_case "symmetry and X" `Quick
            test_matrix_symmetric_and_x_exclusive;
          Alcotest.test_case "refined superset" `Quick test_refined_superset;
          Alcotest.test_case "supremum" `Quick test_supremum;
          Alcotest.test_case "of_string" `Quick test_of_string;
        ] );
      ( "lock table",
        [
          Alcotest.test_case "grant/conflict" `Quick test_grant_and_conflict;
          Alcotest.test_case "FIFO wakeup" `Quick test_fifo_wakeup;
          Alcotest.test_case "no overtaking" `Quick test_fifo_no_overtaking;
          Alcotest.test_case "reacquire held" `Quick test_reacquire_held_is_granted;
          Alcotest.test_case "self upgrade" `Quick test_self_upgrade;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "release clears queue" `Quick
            test_release_drops_queue_entries;
          Alcotest.test_case "per-class block labels" `Quick
            test_per_class_block_labels;
          Alcotest.test_case "reset_stats resets class labels" `Quick
            test_reset_stats_resets_class_family;
          Alcotest.test_case "new table takes over class labels" `Quick
            test_new_table_takes_over_class_family;
        ] );
      ( "lock table regressions",
        [
          Alcotest.test_case "re-poll dedups queue" `Quick test_requeue_dedup;
          Alcotest.test_case "upgrade coalesces grant" `Quick test_upgrade_coalesces;
          Alcotest.test_case "try_acquire accounting" `Quick test_try_acquire_counts;
          Alcotest.test_case "deadlock under re-polled convoy" `Quick
            test_deadlock_with_repolled_convoy;
          QCheck_alcotest.to_alcotest prop_lock_table_interleavings;
          QCheck_alcotest.to_alcotest prop_k_cycles_found;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "composite lock set" `Quick test_composite_lock_set;
          Alcotest.test_case "instance lock set" `Quick test_instance_lock_set;
          Alcotest.test_case "roots_of" `Quick test_roots_of;
          Alcotest.test_case "hierarchy scans" `Quick test_hierarchy_scan_locks;
          Alcotest.test_case "implicit coverage" `Quick test_implicit_coverage;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matrix_monotone;
          QCheck_alcotest.to_alcotest prop_mode_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_refined_admits_superset;
          Alcotest.test_case "refined strictly refines" `Quick
            test_refined_strictly_refines;
        ] );
    ]
