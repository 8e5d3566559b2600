module Store = Orion_storage.Store
module R = Orion_storage.Bytes_rw.Reader
module Wal = Orion_wal.Wal
module Wal_record = Orion_wal.Wal_record
module Schema = Orion_schema.Schema
module Attribute = Orion_schema.Attribute
module Persist = Orion_core.Persist
module Codec = Orion_core.Codec
module Instance = Orion_core.Instance
module Integrity = Orion_core.Integrity
module Value = Orion_core.Value
module Oid = Orion_core.Oid
module Rref = Orion_core.Rref

type issue =
  | File_error of string
  | Page_checksum of { page : int; expected : int; actual : int }
  | No_catalog
  | Catalog_corrupt of string
  | Dead_directory_entry of { oid : Oid.t; rid : Store.rid }
  | Unreachable_record of { rid : Store.rid }
  | Undecodable_record of { oid : Oid.t; rid : Store.rid; reason : string }
  | Class_unknown of { oid : Oid.t; cls : string }
  | Flag_mismatch of {
      child : Oid.t;
      parent : Oid.t;
      attr : string;
      flag : [ `D | `X ];
      declared : bool;
      stored : bool;
    }
  | Object_violation of Integrity.violation
  | Wal_torn of { valid_frames : int; valid_bytes : int }
  | Wal_missing_genesis
  | Wal_unbalanced_checkpoint of string
  | Wal_open_trailing_checkpoint

let severity = function
  | Unreachable_record _ | Wal_open_trailing_checkpoint -> `Warning
  | File_error _ | Page_checksum _ | No_catalog | Catalog_corrupt _
  | Dead_directory_entry _ | Undecodable_record _ | Class_unknown _
  | Flag_mismatch _ | Object_violation _ | Wal_torn _ | Wal_missing_genesis
  | Wal_unbalanced_checkpoint _ ->
      `Error

let pp_rid ppf (rid : Store.rid) =
  Format.fprintf ppf "%d:%d:%d" rid.segment rid.page rid.slot

let pp_issue ppf = function
  | File_error msg -> Format.fprintf ppf "file-error: %s" msg
  | Page_checksum { page; expected; actual } ->
      Format.fprintf ppf
        "page-checksum: page %d checksum %08x does not match recorded %08x"
        page actual expected
  | No_catalog -> Format.fprintf ppf "no-catalog: store file has no catalog"
  | Catalog_corrupt msg -> Format.fprintf ppf "catalog-corrupt: %s" msg
  | Dead_directory_entry { oid; rid } ->
      Format.fprintf ppf
        "dead-directory-entry: %a maps to record %a, which is not live" Oid.pp
        oid pp_rid rid
  | Unreachable_record { rid } ->
      Format.fprintf ppf
        "unreachable-record: live record %a has no directory entry" pp_rid rid
  | Undecodable_record { oid; rid; reason } ->
      Format.fprintf ppf "undecodable-record: %a at %a: %s" Oid.pp oid pp_rid
        rid reason
  | Class_unknown { oid; cls } ->
      Format.fprintf ppf "class-unknown: %a is of class %s, not in the schema"
        Oid.pp oid cls
  | Flag_mismatch { child; parent; attr; flag; declared; stored } ->
      Format.fprintf ppf
        "flag-mismatch: %c flag of %a's reverse reference to %a.%s is %b, \
         schema declares %b"
        (match flag with `D -> 'D' | `X -> 'X')
        Oid.pp child Oid.pp parent attr stored declared
  | Object_violation v -> Integrity.pp_violation ppf v
  | Wal_torn { valid_frames; valid_bytes } ->
      Format.fprintf ppf
        "wal-torn: log damaged after %d intact frames (%d bytes)" valid_frames
        valid_bytes
  | Wal_missing_genesis ->
      Format.fprintf ppf "wal-missing-genesis: log does not start with Genesis"
  | Wal_unbalanced_checkpoint msg ->
      Format.fprintf ppf "wal-unbalanced-checkpoint: %s" msg
  | Wal_open_trailing_checkpoint ->
      Format.fprintf ppf
        "wal-open-checkpoint: log ends inside a checkpoint bracket (crash \
         residue; recovery will discard it)"

type report = {
  issues : issue list;
  pages : int;
  live_records : int;
  directory_entries : int;
  wal_frames : int option;
}

let failed ?(strict = false) report =
  List.exists
    (fun i -> strict || severity i = `Error)
    report.issues

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun i ->
      Format.fprintf ppf "%s: %a@,"
        (match severity i with `Error -> "error" | `Warning -> "warning")
        pp_issue i)
    r.issues;
  Format.fprintf ppf "%d pages, %d live records, %d directory entries%t@]"
    r.pages r.live_records r.directory_entries (fun ppf ->
      match r.wal_frames with
      | None -> ()
      | Some n -> Format.fprintf ppf ", %d WAL frames" n)

(* Pages -------------------------------------------------------------------- *)

let check_pages (fi : Store.file_image) =
  match fi.fi_checksums with
  | None -> [] (* v1 file: nothing recorded to verify *)
  | Some sums ->
      let issues = ref [] in
      Array.iteri
        (fun page image ->
          let actual = Store.page_checksum image in
          if actual <> sums.(page) then
            issues :=
              Page_checksum { page; expected = sums.(page); actual } :: !issues)
        fi.fi_pages;
      List.rev !issues

(* Directory vs. allocation ------------------------------------------------- *)

let live_rids (fi : Store.file_image) =
  List.concat_map (fun (_, _, rids) -> rids) fi.fi_segments

let check_directory store (cat : Persist.catalog) live =
  let live_set = Hashtbl.create 64 in
  List.iter (fun rid -> Hashtbl.replace live_set rid ()) live;
  let claimed = Hashtbl.create 64 in
  let dead =
    List.filter_map
      (fun (e : Persist.catalog_entry) ->
        Hashtbl.replace claimed e.ce_rid ();
        if
          (not (Hashtbl.mem live_set e.ce_rid))
          || Store.read store e.ce_rid = None
        then Some (Dead_directory_entry { oid = e.ce_oid; rid = e.ce_rid })
        else None)
      cat.cat_entries
  in
  let leaked =
    List.filter_map
      (fun rid ->
        if Hashtbl.mem claimed rid then None
        else Some (Unreachable_record { rid }))
      live
  in
  dead @ leaked

(* Objects ------------------------------------------------------------------ *)

(* Decode every directory entry; the returned table only holds the
   instances that decoded, so later cross-checks never trip over a
   record already reported undecodable. *)
let decode_objects store (cat : Persist.catalog) =
  let objects = Oid.Tbl.create 64 in
  let issues = ref [] in
  List.iter
    (fun (e : Persist.catalog_entry) ->
      match Store.read store e.ce_rid with
      | None -> () (* already a Dead_directory_entry *)
      | Some data -> (
          match Codec.decode data with
          | inst ->
              if cat.cat_external_rrefs then
                inst.Instance.rrefs <- e.ce_rrefs;
              Oid.Tbl.replace objects e.ce_oid inst
          | exception R.Corrupt reason ->
              issues :=
                Undecodable_record { oid = e.ce_oid; rid = e.ce_rid; reason }
                :: !issues))
    cat.cat_entries;
  (objects, List.rev !issues)

(* The D/X cross-check runs over plain instances only: version and
   generic instances route their composite bookkeeping through generic
   references (§5.3), whose invariants need the live version machinery
   to judge. *)
let plain (inst : Instance.t) = inst.kind = Instance.Plain

let check_objects schema objects =
  let issues = ref [] in
  let emit i = issues := i :: !issues in
  Oid.Tbl.iter
    (fun oid (inst : Instance.t) ->
      if not (Schema.mem schema inst.cls) then
        emit (Class_unknown { oid; cls = inst.cls })
      else if plain inst then begin
        (* Parent side: every composite reference must land on a live
           component holding a matching reverse reference with the
           declared flags. *)
        List.iter
          (fun (a : Attribute.t) ->
            let declared_x = Attribute.is_exclusive a in
            let declared_d = Attribute.is_dependent a in
            let targets =
              match Instance.attr inst a.name with
              | Some v -> Value.refs v
              | None -> []
            in
            List.iter
              (fun target ->
                match Oid.Tbl.find_opt objects target with
                | None ->
                    emit
                      (Object_violation
                         (Integrity.Dangling_composite
                            { parent = oid; attr = a.name; target }))
                | Some child when plain child -> (
                    match
                      List.find_opt
                        (fun (r : Rref.t) ->
                          r.parent = oid && r.attr = a.name)
                        child.rrefs
                    with
                    | None ->
                        emit
                          (Object_violation
                             (Integrity.Missing_rref
                                { parent = oid; attr = a.name; child = target }))
                    | Some r ->
                        if r.exclusive <> declared_x then
                          emit
                            (Flag_mismatch
                               {
                                 child = target;
                                 parent = oid;
                                 attr = a.name;
                                 flag = `X;
                                 declared = declared_x;
                                 stored = r.exclusive;
                               });
                        if r.dependent <> declared_d then
                          emit
                            (Flag_mismatch
                               {
                                 child = target;
                                 parent = oid;
                                 attr = a.name;
                                 flag = `D;
                                 declared = declared_d;
                                 stored = r.dependent;
                               }))
                | Some _ -> ())
              targets)
          (Schema.composite_attributes schema inst.cls);
        (* Child side: every reverse reference must be claimed by a
           composite attribute value of its parent. *)
        List.iter
          (fun (r : Rref.t) ->
            let orphan reason =
              emit (Object_violation (Integrity.Orphan_rref { child = oid; rref = r; reason }))
            in
            match Oid.Tbl.find_opt objects r.parent with
            | None -> orphan "parent does not exist"
            | Some parent_inst when plain parent_inst -> (
                match Schema.attribute schema parent_inst.cls r.attr with
                | Some a when Attribute.is_composite a ->
                    let holds =
                      match Instance.attr parent_inst r.attr with
                      | Some v -> List.mem oid (Value.refs v)
                      | None -> false
                    in
                    if not holds then
                      orphan "parent attribute does not reference the child"
                | Some _ -> orphan "parent attribute is not composite"
                | None -> orphan "parent class lacks the attribute")
            | Some _ -> ())
          inst.rrefs
      end)
    objects;
  List.rev !issues

(* WAL ---------------------------------------------------------------------- *)

let check_wal wal =
  let scan = Wal.scan wal in
  let issues = ref [] in
  if scan.Wal.torn_tail then
    issues :=
      Wal_torn
        {
          valid_frames = List.length scan.Wal.records;
          valid_bytes = scan.Wal.valid_bytes;
        }
      :: !issues;
  (match scan.Wal.records with
  | [] -> ()
  | Wal_record.Genesis _ :: _ -> ()
  | _ :: _ -> issues := Wal_missing_genesis :: !issues);
  let depth =
    List.fold_left
      (fun depth record ->
        match record with
        | Wal_record.Checkpoint_begin ->
            if depth > 0 then
              issues :=
                Wal_unbalanced_checkpoint
                  "Checkpoint_begin inside an open bracket"
                :: !issues;
            depth + 1
        | Wal_record.Checkpoint ->
            if depth = 0 then begin
              issues :=
                Wal_unbalanced_checkpoint "Checkpoint without Checkpoint_begin"
                :: !issues;
              0
            end
            else depth - 1
        | _ -> depth)
      0 scan.Wal.records
  in
  if depth > 0 then issues := Wal_open_trailing_checkpoint :: !issues;
  (List.rev !issues, List.length scan.Wal.records)

(* Entry points ------------------------------------------------------------- *)

let check_image ?wal (fi : Store.file_image) =
  let page_issues = check_pages fi in
  let live = live_rids fi in
  let store = Store.store_of_file_image fi in
  let structural, entries =
    match Store.read_catalog store with
    | None -> ([ No_catalog ], [])
    | Some blob -> (
        match Persist.decode_catalog blob with
        | cat ->
            let dir_issues = check_directory store cat live in
            let objects, decode_issues = decode_objects store cat in
            let schema = Schema.create () in
            let object_issues =
              match Schema.import_into schema cat.cat_schema with
              | () -> check_objects schema objects
              | exception Schema.Error e ->
                  [
                    Catalog_corrupt
                      (Format.asprintf "schema import failed: %a" Schema.pp_error
                         e);
                  ]
            in
            (dir_issues @ decode_issues @ object_issues, cat.cat_entries)
        | exception R.Corrupt msg -> ([ Catalog_corrupt msg ], []))
  in
  let wal_issues, wal_frames =
    match wal with
    | None -> ([], None)
    | Some wal ->
        let issues, frames = check_wal wal in
        (issues, Some frames)
  in
  {
    issues = page_issues @ structural @ wal_issues;
    pages = Array.length fi.fi_pages;
    live_records = List.length live;
    directory_entries = List.length entries;
    wal_frames;
  }

let empty_report issues =
  {
    issues;
    pages = 0;
    live_records = 0;
    directory_entries = 0;
    wal_frames = None;
  }

let check_file ?wal path =
  match Store.read_file_image path with
  | exception Sys_error msg -> empty_report [ File_error msg ]
  | exception Failure msg -> empty_report [ File_error msg ]
  | exception R.Corrupt msg ->
      empty_report [ File_error (path ^ ": truncated or corrupt: " ^ msg) ]
  | fi -> (
      match Option.map Wal.load_file wal with
      | wal -> check_image ?wal fi
      | exception Sys_error msg -> (
          (* The store parsed; report the unreadable WAL alongside the
             store-side findings rather than instead of them. *)
          let r = check_image fi in
          { r with issues = File_error msg :: r.issues }))

(* Repair ------------------------------------------------------------------- *)

type wal_repair =
  | Wal_intact of { frames : int; bytes : int }
  | Wal_repaired of {
      backup : string;
      valid_frames : int;
      valid_bytes : int;
      dropped_bytes : int;
    }

let repair_wal_tail path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | raw -> (
      let scan = Wal.scan (Wal.of_bytes (Bytes.of_string raw)) in
      if not scan.Wal.torn_tail then
        Ok
          (Wal_intact
             {
               frames = List.length scan.Wal.records;
               bytes = scan.Wal.valid_bytes;
             })
      else
        let backup = path ^ ".bak" in
        let write_file p s =
          try
            Orion_storage.Durable_file.replace p (fun oc ->
                output_string oc s)
          with Unix.Unix_error (e, _, _) ->
            raise (Sys_error (p ^ ": " ^ Unix.error_message e))
        in
        match
          (* Backup first: only once the damaged original is durably
             safe do we cut it down to the longest intact frame prefix. *)
          write_file backup raw;
          write_file path (String.sub raw 0 scan.Wal.valid_bytes)
        with
        | () ->
            Ok
              (Wal_repaired
                 {
                   backup;
                   valid_frames = List.length scan.Wal.records;
                   valid_bytes = scan.Wal.valid_bytes;
                   dropped_bytes = String.length raw - scan.Wal.valid_bytes;
                 })
        | exception Sys_error msg -> Error msg)

(* Page digests -------------------------------------------------------------- *)

let page_digests path =
  match Store.read_file_image path with
  | exception Sys_error msg -> Error msg
  | exception Failure msg -> Error msg
  | exception R.Corrupt msg -> Error (path ^ ": truncated or corrupt: " ^ msg)
  | fi -> Ok (Array.map Store.page_checksum fi.Store.fi_pages)
