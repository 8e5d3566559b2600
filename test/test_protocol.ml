(* Tests for the wire protocol: frame codec (incremental splitting,
   corruption detection) and the message vocabulary round-trips. *)

open Orion_core
module Frame = Orion_protocol.Frame
module Message = Orion_protocol.Message
module Addr = Orion_protocol.Addr

let oid n = Oid.of_int n

(* Frames ---------------------------------------------------------------------- *)

let feed_all splitter buf = Frame.Splitter.feed splitter buf ~len:(Bytes.length buf)

let drain splitter =
  let rec go acc =
    match Frame.Splitter.next splitter with
    | Some payload -> go (payload :: acc)
    | None -> List.rev acc
  in
  go []

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; "hello, orion"; String.make 4096 '\042' ] in
  let splitter = Frame.Splitter.create () in
  List.iter (fun p -> feed_all splitter (Frame.encode (Bytes.of_string p))) payloads;
  Alcotest.(check (list string)) "all payloads, in order" payloads
    (List.map Bytes.to_string (drain splitter));
  Alcotest.(check int) "nothing left buffered" 0 (Frame.Splitter.buffered splitter)

let test_frame_byte_by_byte () =
  (* The stream arrives in the worst chunking read(2) can produce. *)
  let payload = "incremental decoding across chunk boundaries" in
  let wire = Frame.encode (Bytes.of_string payload) in
  let splitter = Frame.Splitter.create () in
  let got = ref [] in
  Bytes.iter
    (fun c ->
      Frame.Splitter.feed splitter (Bytes.make 1 c) ~len:1;
      match Frame.Splitter.next splitter with
      | Some p -> got := Bytes.to_string p :: !got
      | None -> ())
    wire;
  Alcotest.(check (list string)) "exactly one payload, at the last byte"
    [ payload ] (List.rev !got)

let test_frame_partial_is_not_ready () =
  let wire = Frame.encode (Bytes.of_string "suspense") in
  let splitter = Frame.Splitter.create () in
  Frame.Splitter.feed splitter wire ~len:(Bytes.length wire - 1);
  Alcotest.(check bool) "incomplete frame yields nothing" true
    (Frame.Splitter.next splitter = None)

let test_frame_corrupt_checksum () =
  let wire = Frame.encode (Bytes.of_string "to be damaged") in
  (* Flip a payload bit; the checksum must catch it. *)
  let i = Frame.header_size + 3 in
  Bytes.set wire i (Char.chr (Char.code (Bytes.get wire i) lxor 0x40));
  let splitter = Frame.Splitter.create () in
  feed_all splitter wire;
  Alcotest.(check bool) "checksum mismatch raises" true
    (match Frame.Splitter.next splitter with
    | exception Frame.Corrupt _ -> true
    | _ -> false)

let test_frame_insane_length () =
  (* A garbage length field must be rejected before any allocation of
     that size — it is how a desynced stream is detected. *)
  let wire = Bytes.create 8 in
  Bytes.set_int32_le wire 0 0x7fffffffl;
  Bytes.set_int32_le wire 4 0l;
  let splitter = Frame.Splitter.create () in
  feed_all splitter wire;
  Alcotest.(check bool) "oversized length raises" true
    (match Frame.Splitter.next splitter with
    | exception Frame.Corrupt _ -> true
    | _ -> false);
  Alcotest.(check bool) "encode refuses oversized payloads too" true
    (match Frame.encode (Bytes.create (Frame.max_payload + 1)) with
    | exception Frame.Corrupt _ -> true
    | _ -> false)

(* Messages -------------------------------------------------------------------- *)

let request = Alcotest.testable Message.pp_request ( = )

let all_requests : Message.request list =
  [
    Hello { version = Message.version; client = "test-suite" };
    Eval "(make-class 'C :attributes ((A :domain Integer)))";
    Begin;
    Commit;
    Abort;
    Lock_composite { root = oid 7; access = Read };
    Lock_composite { root = oid 0; access = Update };
    Lock_instance { oid = oid 12; access = Update };
    Make
      {
        cls = "Vehicle";
        parents = [ (oid 1, "Body"); (oid 2, "Wheels") ];
        attrs = [ ("Color", Value.Str "red"); ("Doors", Value.Int 4) ];
      };
    Make { cls = "Empty"; parents = []; attrs = [] };
    Components_of (oid 3);
    Ping;
    Bye;
    (* v3: the replication family. *)
    Repl_subscribe { from_lsn = 0 };
    Repl_subscribe { from_lsn = 123_456_789_012 };
    Repl_ack { lsn = 0 };
    Repl_ack { lsn = max_int };
    Promote;
    (* v4: the snapshot-read family. *)
    Begin_snapshot;
    End_snapshot;
    Read_attr { oid = oid 41; attr = "Color" };
    Read_attr { oid = oid 0; attr = "" };
    Ancestors_of (oid 17);
  ]

let all_server_msgs : Message.server_msg list =
  [
    Reply (Welcome { version = Message.version; session = 5 });
    Reply (Result Unit);
    Reply (Result (Bool true));
    Reply (Result (Num (-42)));
    Reply (Result (Str "ok"));
    Reply (Result (Obj (oid 9)));
    Reply (Result (Objs [ oid 1; oid 2; oid 3 ]));
    Reply (Result (Objs []));
    Reply Granted;
    Reply Pong;
    Reply (Error { code = Conflict; msg = "deadlock victim" });
    Reply (Error { code = Timeout; msg = "" });
    Push (Deadlock_victim { tx = 3; msg = "cycle [0 -> 3]" });
    Push (Goodbye { msg = "server shutting down" });
    (* v3: the replication family. *)
    Reply (Repl_ok { lsn = 4157 });
    Reply (Error { code = Read_only; msg = "read-only replica" });
    Reply (Error { code = Repl_error; msg = "not a streaming primary" });
    Reply (Error { code = Io_error; msg = "log crashed" });
    Push (Repl_frames { lsn = 0; data = Bytes.empty });
    Push (Repl_frames { lsn = 8411; data = Bytes.of_string "\x00\x01\xff raw" });
    Push (Repl_heartbeat { lsn = 24948 });
    (* v4: full attribute values travel in replies. *)
    Reply (Result (Value Value.Null));
    Reply (Result (Value (Value.Int 1989)));
    Reply (Result (Value (Value.Str "snapshot")));
    Reply (Result (Value (Value.Ref (oid 6))));
    Reply
      (Result (Value (Value.VSet [ Value.Ref (oid 1); Value.Ref (oid 2) ])));
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      Alcotest.check request
        (Format.asprintf "%a" Message.pp_request req)
        req
        (Message.decode_request (Message.encode_request req)))
    all_requests

let test_server_msg_roundtrip () =
  List.iteri
    (fun i msg ->
      Alcotest.(check bool)
        (Printf.sprintf "server message %d" i)
        true
        (Message.decode_server (Message.encode_server msg) = msg))
    all_server_msgs

let test_decode_rejects_garbage () =
  let corrupt f =
    match f () with
    | exception Orion_storage.Bytes_rw.Reader.Corrupt _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown request tag" true
    (corrupt (fun () -> Message.decode_request (Bytes.make 1 '\255')));
  Alcotest.(check bool) "empty request" true
    (corrupt (fun () -> Message.decode_request Bytes.empty));
  Alcotest.(check bool) "unknown server tag" true
    (corrupt (fun () -> Message.decode_server (Bytes.make 2 '\255')));
  (* Trailing bytes mean a framing bug, not padding: reject them. *)
  let ping = Message.encode_request Message.Ping in
  let padded = Bytes.cat ping (Bytes.make 1 '\000') in
  Alcotest.(check bool) "trailing bytes rejected" true
    (corrupt (fun () -> Message.decode_request padded))

(* Every request survives framing + worst-case chunking + decoding:
   the full client->server path minus the socket. *)
let test_pipeline_roundtrip () =
  let splitter = Frame.Splitter.create () in
  let wire =
    Bytes.concat Bytes.empty
      (List.map (fun r -> Frame.encode (Message.encode_request r)) all_requests)
  in
  let got = ref [] in
  Bytes.iter
    (fun c ->
      Frame.Splitter.feed splitter (Bytes.make 1 c) ~len:1;
      match Frame.Splitter.next splitter with
      | Some payload -> got := Message.decode_request payload :: !got
      | None -> ())
    wire;
  Alcotest.(check (list request)) "all requests, in order" all_requests
    (List.rev !got)

(* Properties: the replication family over random LSNs and payloads —
   the frames push in particular carries raw WAL bytes, which must
   survive the codec bit-for-bit at any size and content. *)

let prop_repl_request_roundtrip =
  QCheck.Test.make ~name:"repl request roundtrip" ~count:200
    QCheck.(make Gen.(pair (int_bound 2) nat))
    (fun (pick, lsn) ->
      let req : Message.request =
        match pick with
        | 0 -> Repl_subscribe { from_lsn = lsn }
        | 1 -> Repl_ack { lsn }
        | _ -> Promote
      in
      Message.decode_request (Message.encode_request req) = req)

let prop_repl_push_roundtrip =
  QCheck.Test.make ~name:"repl push/reply roundtrip" ~count:200
    QCheck.(
      make
        Gen.(
          triple (int_bound 2) nat
            (string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 4096))))
    (fun (pick, lsn, payload) ->
      let msg : Message.server_msg =
        match pick with
        | 0 -> Push (Repl_frames { lsn; data = Bytes.of_string payload })
        | 1 -> Push (Repl_heartbeat { lsn })
        | _ -> Reply (Repl_ok { lsn })
      in
      Message.decode_server (Message.encode_server msg) = msg)

(* v4 snapshot-read family over random oids and attribute names. *)
let prop_snapshot_request_roundtrip =
  QCheck.Test.make ~name:"snapshot request roundtrip" ~count:200
    QCheck.(make Gen.(triple (int_bound 3) nat (string_size (int_bound 64))))
    (fun (pick, n, attr) ->
      let req : Message.request =
        match pick with
        | 0 -> Begin_snapshot
        | 1 -> End_snapshot
        | 2 -> Read_attr { oid = oid n; attr }
        | _ -> Ancestors_of (oid n)
      in
      Message.decode_request (Message.encode_request req) = req)

(* Addresses -------------------------------------------------------------------- *)

let test_addr_parse () =
  let check s expect =
    Alcotest.(check bool) s true (Addr.parse s = expect)
  in
  check "host:4617" (Addr.Tcp ("host", 4617));
  check ":4617" (Addr.Tcp ("127.0.0.1", 4617));
  check "4617" (Addr.Tcp ("127.0.0.1", 4617));
  check "/tmp/orion.sock" (Addr.Unix_path "/tmp/orion.sock");
  check "./relative.sock" (Addr.Unix_path "./relative.sock");
  Alcotest.(check bool) "garbage rejected" true
    (match Addr.parse "not-an-address" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  (* ORION_LOCKDEP=1: watch this suite's real lock traffic; install's
     exit hook fails the run on any discipline violation. *)
  Orion_analysis.Lockdep.install_from_env ();
  Alcotest.run "orion_protocol"
    [
      ( "frames",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "byte-by-byte chunking" `Quick test_frame_byte_by_byte;
          Alcotest.test_case "partial frame pends" `Quick
            test_frame_partial_is_not_ready;
          Alcotest.test_case "corrupt checksum" `Quick test_frame_corrupt_checksum;
          Alcotest.test_case "insane length" `Quick test_frame_insane_length;
        ] );
      ( "messages",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "server msg roundtrip" `Quick test_server_msg_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "framed pipeline" `Quick test_pipeline_roundtrip;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_repl_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_repl_push_roundtrip;
          QCheck_alcotest.to_alcotest prop_snapshot_request_roundtrip;
        ] );
      ("addresses", [ Alcotest.test_case "parse" `Quick test_addr_parse ]);
    ]
