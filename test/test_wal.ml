(* Unit tests for the write-ahead log: frame codec roundtrips, checksum
   corruption detection, crash-fault injection, truncation and the stats
   counters.  The crash matrix itself lives in test_recovery.ml. *)

open Orion_core
module Store = Orion_storage.Store
module Wal = Orion_wal.Wal
module Wal_record = Orion_wal.Wal_record
module Checksum = Orion_storage.Checksum

let rid segment page slot = { Store.segment; page; slot }

let sample_records =
  [
    Wal_record.Genesis { page_size = 4096 };
    Wal_record.Page_alloc { page_no = 3 };
    Wal_record.Page_write { page_no = 3; image = Bytes.make 64 'x' };
    Wal_record.Segment_new { id = 2 };
    Wal_record.Record_put { rid = rid 1 4 9 };
    Wal_record.Record_delete { rid = rid 0 0 0 };
    Wal_record.Catalog_set { page = 17 };
    Wal_record.Obj_put
      {
        tx = 5;
        oid = Oid.of_int 42;
        cluster_with = Some (Oid.of_int 7);
        rrefs =
          [
            {
              Rref.parent = Oid.of_int 7;
              attr = "Kids";
              exclusive = true;
              dependent = false;
            };
          ];
        data = Bytes.of_string "after-image";
      };
    Wal_record.Obj_delete { tx = 5; oid = Oid.of_int 41 };
    Wal_record.Commit { tx = 5; next_oid = 43; clock = 12; cc = 2 };
    Wal_record.Checkpoint_begin;
    Wal_record.Checkpoint;
  ]

let test_record_roundtrip () =
  List.iter
    (fun record ->
      let decoded = Wal_record.decode (Wal_record.encode record) in
      Alcotest.(check string)
        (Wal_record.describe record)
        (Wal_record.describe record)
        (Wal_record.describe decoded);
      Alcotest.(check bool) "structurally equal" true (decoded = record))
    sample_records

let test_append_scan_roundtrip () =
  let wal = Wal.create () in
  List.iter (Wal.append wal) sample_records;
  let { Wal.records; torn_tail; valid_bytes } = Wal.scan wal in
  Alcotest.(check bool) "no torn tail" false torn_tail;
  Alcotest.(check int) "all bytes valid" (Wal.size wal) valid_bytes;
  Alcotest.(check bool) "records survive" true (records = sample_records)

let test_checksum_detects_corruption () =
  Alcotest.(check int) "adler of empty" 1 (Checksum.bytes Bytes.empty);
  let wal = Wal.create () in
  List.iter (Wal.append wal) sample_records;
  let image = Wal.contents wal in
  (* Flip one payload byte of the 4th frame: every frame before it must
     survive the scan, everything from it on is the torn tail. *)
  let skip_frames n =
    let pos = ref 0 in
    for _ = 1 to n do
      pos := !pos + 8 + Int32.to_int (Bytes.get_int32_le image !pos)
    done;
    !pos
  in
  let victim = skip_frames 3 + 8 in
  Bytes.set image victim (Char.chr (Char.code (Bytes.get image victim) lxor 0xff));
  let { Wal.records; torn_tail; _ } = Wal.scan (Wal.of_bytes image) in
  Alcotest.(check bool) "corruption detected" true torn_tail;
  Alcotest.(check int) "intact prefix kept" 3 (List.length records)

let test_torn_tail_scan () =
  let wal = Wal.create () in
  List.iter (Wal.append wal) sample_records;
  Wal.tear wal ~bytes:5;
  let { Wal.records; torn_tail; _ } = Wal.scan wal in
  Alcotest.(check bool) "tear detected" true torn_tail;
  Alcotest.(check int) "one frame lost" (List.length sample_records - 1)
    (List.length records)

let test_fail_after_fault () =
  let wal = Wal.create () in
  Wal.inject_fault wal (Some (`Fail_after 2));
  Wal.append wal (Wal_record.Page_alloc { page_no = 0 });
  Wal.append wal (Wal_record.Page_alloc { page_no = 1 });
  let size_before = Wal.size wal in
  Alcotest.check_raises "third append crashes" Wal.Crashed (fun () ->
      Wal.append wal (Wal_record.Page_alloc { page_no = 2 }));
  Alcotest.(check bool) "crashed flag" true (Wal.crashed wal);
  Alcotest.(check int) "failed append left no bytes" size_before (Wal.size wal);
  Alcotest.check_raises "still crashed" Wal.Crashed (fun () -> Wal.sync wal);
  Wal.revive wal;
  Wal.append wal (Wal_record.Page_alloc { page_no = 2 });
  Alcotest.(check bool) "revived" false (Wal.crashed wal)

let test_torn_after_fault () =
  let wal = Wal.create () in
  Wal.inject_fault wal (Some (`Torn_after 1));
  Wal.append wal (Wal_record.Segment_new { id = 0 });
  let size_before = Wal.size wal in
  Alcotest.check_raises "second append tears" Wal.Crashed (fun () ->
      Wal.append wal (Wal_record.Segment_new { id = 1 }));
  Alcotest.(check bool) "partial frame reached the log" true
    (Wal.size wal > size_before);
  let { Wal.records; torn_tail; valid_bytes } = Wal.scan wal in
  Alcotest.(check bool) "torn tail reported" true torn_tail;
  Alcotest.(check int) "only the sealed record survives" 1 (List.length records);
  Alcotest.(check int) "valid prefix stops before the tear" size_before
    valid_bytes

let test_truncate_and_stats () =
  let wal = Wal.create () in
  Wal.append wal (Wal_record.Genesis { page_size = 256 });
  List.iter (Wal.append wal) (List.tl sample_records);
  Wal.sync wal;
  let before = Wal.stats wal in
  Alcotest.(check int) "appends counted" (List.length sample_records)
    before.Database.appends;
  Alcotest.(check int) "bytes counted" (Wal.size wal) before.Database.bytes;
  Alcotest.(check int) "syncs counted" 1 before.Database.syncs;
  Wal.truncate wal;
  let after = Wal.stats wal in
  Alcotest.(check int) "truncation counted" 1 after.Database.truncations;
  match Wal.scan wal with
  | { Wal.records = [ Wal_record.Genesis { page_size } ]; torn_tail = false; _ }
    ->
      Alcotest.(check int) "geometry survives truncation" 256 page_size
  | _ -> Alcotest.fail "truncated log must hold exactly one genesis record"

let test_file_roundtrip () =
  let wal = Wal.create () in
  List.iter (Wal.append wal) sample_records;
  Wal.tear wal ~bytes:3;
  let path = Filename.temp_file "orion_wal" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Wal.save_file wal path;
      let reloaded = Wal.load_file path in
      Alcotest.(check bool) "bytes identical" true
        (Wal.contents reloaded = Wal.contents wal);
      let { Wal.records; torn_tail; _ } = Wal.scan reloaded in
      Alcotest.(check bool) "tear survives the file" true torn_tail;
      Alcotest.(check int) "records survive the file"
        (List.length sample_records - 1)
        (List.length records))

(* File-backed log ------------------------------------------------------------ *)

let temp_path suffix =
  let path = Filename.temp_file "orion_wal" suffix in
  at_exit (fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp"; path ^ ".bak" ]);
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all
let inode path = (Unix.stat path).Unix.st_ino

(* One commit's worth of frames: an after-image and its seal. *)
let log_commit wal i =
  Wal.append wal
    (Wal_record.Obj_put
       {
         tx = i;
         oid = Oid.of_int i;
         cluster_with = None;
         rrefs = [];
         data = Bytes.make (1 + (i mod 7)) 'a';
       });
  Wal.append wal (Wal_record.Commit { tx = i; next_oid = i + 1; clock = i; cc = 0 })

let durable_prefix wal =
  Bytes.sub_string (Wal.contents wal) 0 (Wal.durable_lsn wal)

let backed_log () =
  let path = temp_path ".wal" in
  let wal = Wal.create () in
  Wal.append wal (Wal_record.Genesis { page_size = 256 });
  Wal.set_backing wal (Some path);
  Wal.sync wal;
  (wal, path)

let test_sync_appends_in_place () =
  let wal, path = backed_log () in
  let ino = inode path in
  for i = 1 to 50 do
    log_commit wal i;
    Wal.sync wal;
    Alcotest.(check int) (Printf.sprintf "sync %d: no rename" i) ino (inode path);
    Alcotest.(check string)
      (Printf.sprintf "sync %d: file is the durable prefix" i)
      (durable_prefix wal) (read_file path)
  done;
  Alcotest.(check int) "everything synced" (Wal.size wal) (Wal.durable_lsn wal)

let test_tear_cuts_file () =
  let wal, path = backed_log () in
  log_commit wal 1;
  Wal.sync wal;
  let before = Wal.size wal in
  log_commit wal 2;
  Wal.sync wal;
  let ino = inode path in
  (* Lose commit 2's frames from the device. *)
  Wal.tear wal ~bytes:(Wal.size wal - before);
  Alcotest.(check string) "file cut to the buffer"
    (Bytes.to_string (Wal.contents wal))
    (read_file path);
  log_commit wal 3;
  Wal.sync wal;
  Alcotest.(check int) "still the same file" ino (inode path);
  Alcotest.(check string) "next sync appends right after the cut"
    (Bytes.to_string (Wal.contents wal))
    (read_file path);
  let { Wal.records; torn_tail; _ } = Wal.scan (Wal.load_file path) in
  Alcotest.(check bool) "no torn tail" false torn_tail;
  Alcotest.(check int) "genesis + commits 1 and 3" 5 (List.length records)

(* The replica restart path: a reloaded log chops the torn tail a crash
   left, and the file loses it too before anything is appended. *)
let test_tear_after_reload () =
  let wal, path = backed_log () in
  log_commit wal 1;
  Wal.sync wal;
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      Out_channel.output_string oc "\005\000\000");
  let reloaded = Wal.load_file path in
  Wal.set_backing reloaded (Some path);
  let { Wal.torn_tail; valid_bytes; _ } = Wal.scan reloaded in
  Alcotest.(check bool) "torn tail found" true torn_tail;
  Wal.tear reloaded ~bytes:(Wal.size reloaded - valid_bytes);
  Alcotest.(check string) "file cut with the buffer"
    (Bytes.to_string (Wal.contents reloaded))
    (read_file path);
  log_commit reloaded 2;
  Wal.sync reloaded;
  let { Wal.records; torn_tail; _ } = Wal.scan (Wal.load_file path) in
  Alcotest.(check bool) "no torn tail" false torn_tail;
  Alcotest.(check int) "genesis + commits 1 and 2" 5 (List.length records)

let test_truncate_replaces_file () =
  let wal, path = backed_log () in
  for i = 1 to 5 do
    log_commit wal i;
    Wal.sync wal
  done;
  let ino = inode path in
  Wal.truncate wal;
  Alcotest.(check bool) "truncate replaced the file" true (inode path <> ino);
  (match Wal.scan (Wal.load_file path) with
  | { Wal.records = [ Wal_record.Genesis { page_size = 256 } ]; torn_tail = false; _ }
    ->
      ()
  | _ -> Alcotest.fail "truncated file must hold exactly one genesis record");
  let ino = inode path in
  log_commit wal 6;
  Wal.sync wal;
  Alcotest.(check int) "syncs after truncate append in place" ino (inode path);
  Alcotest.(check string) "file matches the log"
    (Bytes.to_string (Wal.contents wal))
    (read_file path)

(* A disk-full write is fail-stop: the failed frames never become
   durable by a later sync, every later write is refused, and the torn
   file repairs to the acknowledged prefix. *)
let test_io_error_fail_stop () =
  let wal, path = backed_log () in
  log_commit wal 1;
  Wal.sync wal;
  let acked = read_file path in
  Wal.inject_fault wal (Some (`Io_error_after 0));
  log_commit wal 2;
  (match Wal.sync wal with
  | () -> Alcotest.fail "the sync must fail"
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  Alcotest.(check bool) "log crashed" true (Wal.crashed wal);
  let torn = read_file path in
  Alcotest.(check bool) "half the batch reached the file" true
    (String.length torn > String.length acked
    && String.sub torn 0 (String.length acked) = acked);
  Alcotest.(check int) "buffer back at the durable point"
    (String.length acked) (Wal.size wal);
  Alcotest.check_raises "append refused" Wal.Crashed (fun () -> log_commit wal 3);
  Alcotest.check_raises "sync refused" Wal.Crashed (fun () -> Wal.sync wal);
  Alcotest.check_raises "truncate refused" Wal.Crashed (fun () -> Wal.truncate wal);
  Alcotest.check_raises "save over the log refused" Wal.Crashed (fun () ->
      Wal.save_file wal path);
  Alcotest.(check string) "nothing more reached the file" torn (read_file path);
  let seals file =
    List.filter_map
      (function Wal_record.Commit { tx; _ } -> Some tx | _ -> None)
      (Wal.scan (Wal.load_file file)).Wal.records
  in
  Alcotest.(check (list int)) "only the acknowledged commit is sealed" [ 1 ]
    (seals path);
  match Orion_analysis.Store_check.repair_wal_tail path with
  | Ok (Orion_analysis.Store_check.Wal_repaired { valid_bytes; _ }) ->
      Alcotest.(check int) "repair keeps the acknowledged prefix"
        (String.length acked) valid_bytes;
      Alcotest.(check string) "repaired file" acked (read_file path)
  | Ok (Orion_analysis.Store_check.Wal_intact _) ->
      Alcotest.fail "a torn tail must be repaired"
  | Error msg -> Alcotest.fail msg

let () =
  (* ORION_LOCKDEP=1: watch this suite's real lock traffic; install's
     exit hook fails the run on any discipline violation. *)
  Orion_analysis.Lockdep.install_from_env ();
  Alcotest.run "orion_wal"
    [
      ( "codec",
        [
          Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "append/scan roundtrip" `Quick
            test_append_scan_roundtrip;
          Alcotest.test_case "checksum detects corruption" `Quick
            test_checksum_detects_corruption;
          Alcotest.test_case "torn tail scan" `Quick test_torn_tail_scan;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fail-after" `Quick test_fail_after_fault;
          Alcotest.test_case "torn-after" `Quick test_torn_after_fault;
          Alcotest.test_case "io error is fail-stop" `Quick
            test_io_error_fail_stop;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "truncate and stats" `Quick test_truncate_and_stats;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
        ] );
      ( "append-only",
        [
          Alcotest.test_case "sync appends in place" `Quick
            test_sync_appends_in_place;
          Alcotest.test_case "tear cuts the file" `Quick test_tear_cuts_file;
          Alcotest.test_case "tear after reload cuts the file" `Quick
            test_tear_after_reload;
          Alcotest.test_case "truncate replaces the file" `Quick
            test_truncate_replaces_file;
        ] );
    ]
