open Orion_core
module W = Orion_storage.Bytes_rw.Writer
module R = Orion_storage.Bytes_rw.Reader

(* v2: histogram summaries in [Stats_reply] carry raw bucket counts.
   v3: the replication frame family ([Repl_subscribe]/[Repl_ack]/
   [Promote] requests, [Repl_ok] reply, [Repl_frames]/[Repl_heartbeat]
   pushes) and the [Read_only]/[Repl_error] error codes.
   v4: snapshot reads ([Begin_snapshot]/[End_snapshot] plus the
   snapshot-scoped [Read_attr]/[Ancestors_of] reads) and the [Value]
   result payload; later the [Io_error] code (tag 11), which a peer
   built before it decodes as a corrupt frame.
   v5: histogram summaries carry their unit (seconds or a count). *)
let version = 5

type access = Read | Update

type request =
  | Hello of { version : int; client : string }
  | Eval of string
  | Begin
  | Commit
  | Abort
  | Lock_composite of { root : Oid.t; access : access }
  | Lock_instance of { oid : Oid.t; access : access }
  | Make of {
      cls : string;
      parents : (Oid.t * string) list;
      attrs : (string * Value.t) list;
    }
  | Components_of of Oid.t
  | Ping
  | Stats
  | Bye
  | Repl_subscribe of { from_lsn : int }
  | Repl_ack of { lsn : int }
      (* fire-and-forget: the one request with NO reply, so a replica
         can ack while the primary keeps pushing frames full-duplex *)
  | Promote
  | Begin_snapshot
      (* open a lock-free read-only snapshot at the server's sealed
         commit clock; replies [Result (Num clock)].  Works on a
         replica (at its applied clock) — snapshots never write. *)
  | End_snapshot
  | Read_attr of { oid : Oid.t; attr : string }
      (* inside a snapshot: the attribute as of the begin clock; outside
         one, the live committed value.  Replies [Result (Value v)]. *)
  | Ancestors_of of Oid.t

type v =
  | Unit
  | Bool of bool
  | Num of int
  | Str of string
  | Obj of Oid.t
  | Objs of Oid.t list
  | Value of Value.t
      (* a full attribute value ([Read_attr]) — richer than [Num]/[Str]:
         references, sets, nil travel intact *)

type err_code =
  | Unsupported_version
  | Bad_request
  | Parse_error
  | Eval_error
  | Conflict
  | Timeout
  | Too_many_sessions
  | Queue_full
  | Shutting_down
  | Read_only
  | Repl_error
  | Io_error

type reply =
  | Welcome of { version : int; session : int }
  | Result of v
  | Granted
  | Pong
  | Stats_reply of Orion_obs.Metrics.snapshot
  | Repl_ok of { lsn : int }
  | Error of { code : err_code; msg : string }

type push =
  | Deadlock_victim of { tx : int; msg : string }
  | Goodbye of { msg : string }
  | Repl_frames of { lsn : int; data : bytes }
      (* verbatim WAL frames starting at byte offset [lsn] of the
         primary's log: length+adler32 framed exactly as on disk, so a
         replica appends them unchanged and fsck checks them as-is *)
  | Repl_heartbeat of { lsn : int }

type server_msg = Reply of reply | Push of push

let err_code_to_string = function
  | Unsupported_version -> "unsupported-version"
  | Bad_request -> "bad-request"
  | Parse_error -> "parse-error"
  | Eval_error -> "eval-error"
  | Conflict -> "conflict"
  | Timeout -> "timeout"
  | Too_many_sessions -> "too-many-sessions"
  | Queue_full -> "queue-full"
  | Shutting_down -> "shutting-down"
  | Read_only -> "read-only"
  | Repl_error -> "repl-error"
  | Io_error -> "io-error"

let pp_access ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Update -> Format.pp_print_string ppf "update"

let pp_request ppf = function
  | Hello { version; client } -> Format.fprintf ppf "hello v%d (%s)" version client
  | Eval src -> Format.fprintf ppf "eval %S" src
  | Begin -> Format.pp_print_string ppf "begin"
  | Commit -> Format.pp_print_string ppf "commit"
  | Abort -> Format.pp_print_string ppf "abort"
  | Lock_composite { root; access } ->
      Format.fprintf ppf "lock-composite %a %a" Oid.pp root pp_access access
  | Lock_instance { oid; access } ->
      Format.fprintf ppf "lock-instance %a %a" Oid.pp oid pp_access access
  | Make { cls; parents; attrs } ->
      Format.fprintf ppf "make %s (%d parents, %d attrs)" cls (List.length parents)
        (List.length attrs)
  | Components_of oid -> Format.fprintf ppf "components-of %a" Oid.pp oid
  | Ping -> Format.pp_print_string ppf "ping"
  | Stats -> Format.pp_print_string ppf "stats"
  | Bye -> Format.pp_print_string ppf "bye"
  | Repl_subscribe { from_lsn } ->
      Format.fprintf ppf "repl-subscribe from %d" from_lsn
  | Repl_ack { lsn } -> Format.fprintf ppf "repl-ack %d" lsn
  | Promote -> Format.pp_print_string ppf "promote"
  | Begin_snapshot -> Format.pp_print_string ppf "begin-snapshot"
  | End_snapshot -> Format.pp_print_string ppf "end-snapshot"
  | Read_attr { oid; attr } ->
      Format.fprintf ppf "read-attr %a %s" Oid.pp oid attr
  | Ancestors_of oid -> Format.fprintf ppf "ancestors-of %a" Oid.pp oid

let pp_v ppf = function
  | Unit -> Format.pp_print_string ppf "ok"
  | Bool b -> Format.pp_print_string ppf (if b then "true" else "nil")
  | Num n -> Format.pp_print_int ppf n
  | Str s -> Format.pp_print_string ppf s
  | Obj oid -> Oid.pp ppf oid
  | Objs oids ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Oid.pp)
        oids
  | Value v -> Value.pp ppf v

(* Codec ---------------------------------------------------------------------- *)

let corrupt fmt = Format.kasprintf (fun msg -> raise (R.Corrupt msg)) fmt

let write_oid w oid = W.int w (Oid.to_int oid)
let read_oid r = Oid.of_int (R.int r)

let write_access w = function Read -> W.u8 w 0 | Update -> W.u8 w 1

let read_access r =
  match R.u8 r with
  | 0 -> Read
  | 1 -> Update
  | tag -> corrupt "bad access tag %d" tag

let write_list w f items =
  W.int w (List.length items);
  List.iter (f w) items

let read_list r f =
  let n = R.int r in
  if n < 0 then corrupt "negative list length %d" n;
  List.init n (fun _ -> f r)

let encode_request request =
  let w = W.create () in
  (match request with
  | Hello { version; client } ->
      W.u8 w 0;
      W.int w version;
      W.string w client
  | Eval src ->
      W.u8 w 1;
      W.string w src
  | Begin -> W.u8 w 2
  | Commit -> W.u8 w 3
  | Abort -> W.u8 w 4
  | Lock_composite { root; access } ->
      W.u8 w 5;
      write_oid w root;
      write_access w access
  | Lock_instance { oid; access } ->
      W.u8 w 6;
      write_oid w oid;
      write_access w access
  | Make { cls; parents; attrs } ->
      W.u8 w 7;
      W.string w cls;
      write_list w
        (fun w (oid, attr) ->
          write_oid w oid;
          W.string w attr)
        parents;
      write_list w
        (fun w (name, value) ->
          W.string w name;
          Codec.write_value w value)
        attrs
  | Components_of oid ->
      W.u8 w 8;
      write_oid w oid
  | Ping -> W.u8 w 9
  | Bye -> W.u8 w 10
  | Stats -> W.u8 w 11
  | Repl_subscribe { from_lsn } ->
      W.u8 w 12;
      W.int w from_lsn
  | Repl_ack { lsn } ->
      W.u8 w 13;
      W.int w lsn
  | Promote -> W.u8 w 14
  | Begin_snapshot -> W.u8 w 15
  | End_snapshot -> W.u8 w 16
  | Read_attr { oid; attr } ->
      W.u8 w 17;
      write_oid w oid;
      W.string w attr
  | Ancestors_of oid ->
      W.u8 w 18;
      write_oid w oid);
  W.contents w

let decode_request payload =
  let r = R.of_bytes payload in
  let request =
    match R.u8 r with
    | 0 ->
        let version = R.int r in
        let client = R.string r in
        Hello { version; client }
    | 1 -> Eval (R.string r)
    | 2 -> Begin
    | 3 -> Commit
    | 4 -> Abort
    | 5 ->
        let root = read_oid r in
        let access = read_access r in
        Lock_composite { root; access }
    | 6 ->
        let oid = read_oid r in
        let access = read_access r in
        Lock_instance { oid; access }
    | 7 ->
        let cls = R.string r in
        let parents =
          read_list r (fun r ->
              let oid = read_oid r in
              let attr = R.string r in
              (oid, attr))
        in
        let attrs =
          read_list r (fun r ->
              let name = R.string r in
              let value = Codec.read_value r in
              (name, value))
        in
        Make { cls; parents; attrs }
    | 8 -> Components_of (read_oid r)
    | 9 -> Ping
    | 10 -> Bye
    | 11 -> Stats
    | 12 -> Repl_subscribe { from_lsn = R.int r }
    | 13 -> Repl_ack { lsn = R.int r }
    | 14 -> Promote
    | 15 -> Begin_snapshot
    | 16 -> End_snapshot
    | 17 ->
        let oid = read_oid r in
        let attr = R.string r in
        Read_attr { oid; attr }
    | 18 -> Ancestors_of (read_oid r)
    | tag -> corrupt "bad request tag %d" tag
  in
  if not (R.at_end r) then corrupt "trailing bytes after request";
  request

let write_v w = function
  | Unit -> W.u8 w 0
  | Bool b ->
      W.u8 w 1;
      W.bool w b
  | Num n ->
      W.u8 w 2;
      W.int w n
  | Str s ->
      W.u8 w 3;
      W.string w s
  | Obj oid ->
      W.u8 w 4;
      write_oid w oid
  | Objs oids ->
      W.u8 w 5;
      write_list w write_oid oids
  | Value v ->
      W.u8 w 6;
      Codec.write_value w v

let read_v r =
  match R.u8 r with
  | 0 -> Unit
  | 1 -> Bool (R.bool r)
  | 2 -> Num (R.int r)
  | 3 -> Str (R.string r)
  | 4 -> Obj (read_oid r)
  | 5 -> Objs (read_list r read_oid)
  | 6 -> Value (Codec.read_value r)
  | tag -> corrupt "bad value tag %d" tag

(* Snapshot codec: flat name/value lists mirroring
   [Orion_obs.Metrics.snapshot]. *)

let write_summary w (h : Orion_obs.Metrics.histogram_summary) =
  W.int w (match h.unit with Seconds -> 0 | Count -> 1);
  W.int w h.count;
  W.float w h.sum;
  W.float w h.max;
  W.float w h.p50;
  W.float w h.p95;
  W.float w h.p99;
  (* Raw bucket counts ride along so a client can merge percentiles
     across servers instead of averaging them. *)
  write_list w W.int (Array.to_list h.buckets)

let read_summary r : Orion_obs.Metrics.histogram_summary =
  let unit : Orion_obs.Metrics.measure =
    match R.int r with
    | 0 -> Seconds
    | 1 -> Count
    | tag -> corrupt "bad histogram unit %d" tag
  in
  let count = R.int r in
  let sum = R.float r in
  let max = R.float r in
  let p50 = R.float r in
  let p95 = R.float r in
  let p99 = R.float r in
  let buckets = Array.of_list (read_list r R.int) in
  { unit; count; sum; max; p50; p95; p99; buckets }

let write_snapshot w (s : Orion_obs.Metrics.snapshot) =
  let named f w (name, v) =
    W.string w name;
    f w v
  in
  write_list w (named W.int) s.counters;
  write_list w (named W.int) s.gauges;
  write_list w (named write_summary) s.histograms

let read_snapshot r : Orion_obs.Metrics.snapshot =
  let named f r =
    let name = R.string r in
    let v = f r in
    (name, v)
  in
  let counters = read_list r (named R.int) in
  let gauges = read_list r (named R.int) in
  let histograms = read_list r (named read_summary) in
  { counters; gauges; histograms }

let err_code_tag = function
  | Unsupported_version -> 0
  | Bad_request -> 1
  | Parse_error -> 2
  | Eval_error -> 3
  | Conflict -> 4
  | Timeout -> 5
  | Too_many_sessions -> 6
  | Queue_full -> 7
  | Shutting_down -> 8
  | Read_only -> 9
  | Repl_error -> 10
  | Io_error -> 11

let err_code_of_tag = function
  | 0 -> Unsupported_version
  | 1 -> Bad_request
  | 2 -> Parse_error
  | 3 -> Eval_error
  | 4 -> Conflict
  | 5 -> Timeout
  | 6 -> Too_many_sessions
  | 7 -> Queue_full
  | 8 -> Shutting_down
  | 9 -> Read_only
  | 10 -> Repl_error
  | 11 -> Io_error
  | tag -> corrupt "bad error-code tag %d" tag

let encode_server msg =
  let w = W.create () in
  (match msg with
  | Reply reply -> (
      W.u8 w 0;
      match reply with
      | Welcome { version; session } ->
          W.u8 w 0;
          W.int w version;
          W.int w session
      | Result v ->
          W.u8 w 1;
          write_v w v
      | Granted -> W.u8 w 2
      | Pong -> W.u8 w 3
      | Error { code; msg } ->
          W.u8 w 4;
          W.u8 w (err_code_tag code);
          W.string w msg
      | Stats_reply snapshot ->
          W.u8 w 5;
          write_snapshot w snapshot
      | Repl_ok { lsn } ->
          W.u8 w 6;
          W.int w lsn)
  | Push push -> (
      W.u8 w 1;
      match push with
      | Deadlock_victim { tx; msg } ->
          W.u8 w 0;
          W.int w tx;
          W.string w msg
      | Goodbye { msg } ->
          W.u8 w 1;
          W.string w msg
      | Repl_frames { lsn; data } ->
          W.u8 w 2;
          W.int w lsn;
          W.string w (Bytes.unsafe_to_string data)
      | Repl_heartbeat { lsn } ->
          W.u8 w 3;
          W.int w lsn));
  W.contents w

let decode_server payload =
  let r = R.of_bytes payload in
  let msg =
    match R.u8 r with
    | 0 -> (
        Reply
          (match R.u8 r with
          | 0 ->
              let version = R.int r in
              let session = R.int r in
              Welcome { version; session }
          | 1 -> Result (read_v r)
          | 2 -> Granted
          | 3 -> Pong
          | 4 ->
              let code = err_code_of_tag (R.u8 r) in
              let msg = R.string r in
              Error { code; msg }
          | 5 -> Stats_reply (read_snapshot r)
          | 6 -> Repl_ok { lsn = R.int r }
          | tag -> corrupt "bad reply tag %d" tag))
    | 1 -> (
        Push
          (match R.u8 r with
          | 0 ->
              let tx = R.int r in
              let msg = R.string r in
              Deadlock_victim { tx; msg }
          | 1 -> Goodbye { msg = R.string r }
          | 2 ->
              let lsn = R.int r in
              let data = Bytes.of_string (R.string r) in
              Repl_frames { lsn; data }
          | 3 -> Repl_heartbeat { lsn = R.int r }
          | tag -> corrupt "bad push tag %d" tag))
    | tag -> corrupt "bad server-message tag %d" tag
  in
  if not (R.at_end r) then corrupt "trailing bytes after server message";
  msg
