open Orion_core

type capture = {
  image : Instance.t;  (* deep copy *)
  rrefs : Rref.t list;  (* as the database reported them (repr-agnostic) *)
}

type t = { mutable captures : capture Oid.Map.t }

let copy_gref (g : Rref.gref) = { g with Rref.count = g.count }

let capture_one db oid =
  match Database.find db oid with
  | None -> None
  | Some inst ->
      Some { image = Instance.copy inst; rrefs = Database.rrefs db oid }

let take db oids =
  let captures =
    List.fold_left
      (fun acc oid ->
        if Oid.Map.mem oid acc then acc
        else
          match capture_one db oid with
          | Some c -> Oid.Map.add oid c acc
          | None -> acc)
      Oid.Map.empty oids
  in
  { captures }

let extend t db oids =
  let fresh = ref [] in
  t.captures <-
    List.fold_left
      (fun acc oid ->
        if Oid.Map.mem oid acc then acc
        else
          match capture_one db oid with
          | Some c ->
              fresh := (oid, c) :: !fresh;
              Oid.Map.add oid c acc
          | None -> acc)
      t.captures oids;
  List.rev !fresh

let restore t db =
  Oid.Map.iter
    (fun oid { image; rrefs } ->
      (match Database.find db oid with
      | Some live ->
          live.Instance.attrs <- image.Instance.attrs;
          live.Instance.cc <- image.Instance.cc;
          live.Instance.cluster_with <- image.Instance.cluster_with;
          (match (live.Instance.kind, image.Instance.kind) with
          | Instance.Generic live_gi, Instance.Generic img_gi ->
              live_gi.Instance.versions <- img_gi.Instance.versions;
              live_gi.Instance.user_default <- img_gi.Instance.user_default;
              live_gi.Instance.next_version_no <- img_gi.Instance.next_version_no;
              live_gi.Instance.grefs <- List.map copy_gref img_gi.Instance.grefs
          | (Instance.Plain | Instance.Version _ | Instance.Generic _), _ -> ())
      | None ->
          (* The object was deleted during the transaction: resurrect the
             copy (a fresh record so later mutation cannot corrupt the
             snapshot).  Its store record is gone, so it must be
             re-placed at the next checkpoint. *)
          let fresh = Instance.copy image in
          fresh.Instance.rid <- None;
          Database.add db fresh);
      Database.set_rrefs db oid rrefs)
    t.captures;
  (* Values changed behind the object manager's back: tell listeners
     (indexes, watchers) to resynchronize. *)
  Database.emit db Database.Invalidated

let captured t = List.map fst (Oid.Map.bindings t.captures)
let is_empty t = Oid.Map.is_empty t.captures
