module Obs = Orion_obs.Metrics
open Orion_core

type image = { inst : Instance.t; rrefs : Rref.t list }

type entry = Present of image | Tombstone

(* Newest first; each element is (commit clock, state as of that clock).
   The base pre-image sits at clock 0: it is the committed state before
   the store first saw the object written, valid for every snapshot
   older than the first publish. *)
type chain = { mutable entries : (int * entry) list }

type t = {
  mutable sealed_clock : int;
  chains : chain Oid.Tbl.t;
  pins : int Oid.Tbl.t;  (* oid -> dirty-writer refcount *)
  dirty : (int, unit Oid.Tbl.t) Hashtbl.t;  (* tx id -> oids it pinned *)
  snaps : (int, int) Hashtbl.t;  (* snapshot id -> begin clock *)
  published : Obs.counter;
  pruned : Obs.counter;
  reads : Obs.counter;
  fallthroughs : Obs.counter;
  snapshots : Obs.counter;
}

let create db =
  let t =
    {
      sealed_clock = snd (Database.counters db);
      chains = Oid.Tbl.create 256;
      pins = Oid.Tbl.create 64;
      dirty = Hashtbl.create 16;
      snaps = Hashtbl.create 8;
      published = Obs.counter "mvcc.published";
      pruned = Obs.counter "mvcc.pruned";
      reads = Obs.counter "mvcc.reads";
      fallthroughs = Obs.counter "mvcc.fallthroughs";
      snapshots = Obs.counter "mvcc.snapshots";
    }
  in
  Obs.gauge "mvcc.chains" (fun () -> Oid.Tbl.length t.chains);
  Obs.gauge "mvcc.open_snapshots" (fun () -> Hashtbl.length t.snaps);
  Obs.gauge "mvcc.sealed_clock" (fun () -> t.sealed_clock);
  t

let current_clock t = t.sealed_clock

let pinned t oid = Oid.Tbl.mem t.pins oid

(* Oldest clock any open snapshot still reads at. *)
let watermark t =
  Hashtbl.fold (fun _ clock acc -> min clock acc) t.snaps t.sealed_clock

(* Keep the newest entry at-or-below the watermark (some open snapshot
   may read it) plus everything above; drop the strictly-older tail. *)
let prune_chain t ~watermark chain =
  let rec cut = function
    | [] -> []
    | ((c, _) as keep) :: rest when c <= watermark ->
        (match List.length rest with
        | 0 -> ()
        | n -> Obs.incr t.pruned ~by:n);
        [ keep ]
    | e :: rest -> e :: cut rest
  in
  chain.entries <- cut chain.entries

(* A chain reduced to one version at-or-below the watermark duplicates
   the live database (the newest committed state of an unpinned object
   is what the database holds), so reads can fall through: drop it. *)
let drop_if_redundant t ~watermark oid chain =
  match chain.entries with
  | [] -> Oid.Tbl.remove t.chains oid
  | [ (c, _) ] when c <= watermark && not (pinned t oid) ->
      Oid.Tbl.remove t.chains oid
  | _ -> ()

let gc t =
  let w = watermark t in
  let doomed = ref [] in
  Oid.Tbl.iter
    (fun oid chain ->
      prune_chain t ~watermark:w chain;
      match chain.entries with
      | [] -> doomed := oid :: !doomed
      | [ (c, _) ] when c <= w && not (pinned t oid) ->
          doomed := oid :: !doomed
      | _ -> ())
    t.chains;
  List.iter (fun oid -> Oid.Tbl.remove t.chains oid) !doomed

let entry_of = function Some img -> Present img | None -> Tombstone

let note_base ?tx t oid base =
  if not (Oid.Tbl.mem t.chains oid) then
    Oid.Tbl.replace t.chains oid { entries = [ (0, entry_of base) ] };
  match tx with
  | None -> ()
  | Some tx ->
      let set =
        match Hashtbl.find_opt t.dirty tx with
        | Some set -> set
        | None ->
            let set = Oid.Tbl.create 8 in
            Hashtbl.replace t.dirty tx set;
            set
      in
      if not (Oid.Tbl.mem set oid) then begin
        Oid.Tbl.replace set oid ();
        let n = Option.value ~default:0 (Oid.Tbl.find_opt t.pins oid) in
        Oid.Tbl.replace t.pins oid (n + 1)
      end

let settle t ~tx =
  match Hashtbl.find_opt t.dirty tx with
  | None -> ()
  | Some set ->
      Hashtbl.remove t.dirty tx;
      let w = watermark t in
      Oid.Tbl.iter
        (fun oid () ->
          (match Oid.Tbl.find_opt t.pins oid with
          | Some n when n > 1 -> Oid.Tbl.replace t.pins oid (n - 1)
          | Some _ -> Oid.Tbl.remove t.pins oid
          | None -> ());
          match Oid.Tbl.find_opt t.chains oid with
          | Some chain ->
              prune_chain t ~watermark:w chain;
              drop_if_redundant t ~watermark:w oid chain
          | None -> ())
        set

let publish t ~clock items =
  if clock > t.sealed_clock then t.sealed_clock <- clock;
  let w = watermark t in
  List.iter
    (fun (oid, img) ->
      let chain =
        match Oid.Tbl.find_opt t.chains oid with
        | Some chain -> chain
        | None ->
            (* Defensive: writers note_base before publishing, so a
               missing chain means nobody older can be watching. *)
            let chain = { entries = [] } in
            Oid.Tbl.replace t.chains oid chain;
            chain
      in
      chain.entries <- (clock, entry_of img) :: chain.entries;
      Obs.incr t.published;
      prune_chain t ~watermark:w chain;
      drop_if_redundant t ~watermark:w oid chain)
    items

let publish_records t ~clock records =
  let items =
    List.filter_map
      (function
        | Orion_wal.Wal_record.Obj_put { oid; cluster_with; rrefs; data; _ } ->
            let inst = Codec.decode data in
            inst.Instance.cluster_with <- cluster_with;
            Some (oid, Some { inst; rrefs })
        | Orion_wal.Wal_record.Obj_delete { oid; _ } -> Some (oid, None)
        | _ -> None)
      records
  in
  (* Even an empty commit advances the sealed clock. *)
  publish t ~clock items

let read t ~clock oid =
  Obs.incr t.reads;
  match Oid.Tbl.find_opt t.chains oid with
  | None ->
      Obs.incr t.fallthroughs;
      `Fallthrough
  | Some chain ->
      let rec at = function
        | [] -> `Absent
        | (c, Present img) :: _ when c <= clock -> `Image img
        | (c, Tombstone) :: _ when c <= clock -> `Absent
        | _ :: rest -> at rest
      in
      at chain.entries

let open_snap t ~id =
  Obs.incr t.snapshots;
  Hashtbl.replace t.snaps id t.sealed_clock;
  t.sealed_clock

let close_snap t ~id =
  if Hashtbl.mem t.snaps id then begin
    Hashtbl.remove t.snaps id;
    gc t
  end

let open_snaps t = Hashtbl.length t.snaps
let chain_count t = Oid.Tbl.length t.chains
