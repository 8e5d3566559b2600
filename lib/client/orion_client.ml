module Message = Orion_protocol.Message
module Frame = Orion_protocol.Frame
module Addr = Orion_protocol.Addr

type t = {
  fd : Unix.file_descr;
  splitter : Frame.Splitter.t;
  notices : Message.push Queue.t;
  chunk : Bytes.t;
  mutable session : int;
  mutable alive : bool;
}

exception Error of Message.err_code * string
exception Disconnected of string

let fail t msg =
  t.alive <- false;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  raise (Disconnected msg)

let write_all t buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    match Unix.write t.fd buf !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Block until one server frame is available. *)
let rec read_msg t =
  match Frame.Splitter.next t.splitter with
  | Some payload -> (
      try Message.decode_server payload
      with Orion_storage.Bytes_rw.Reader.Corrupt msg ->
        fail t ("undecodable server frame: " ^ msg))
  | None -> (
      match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_msg t
      | exception Unix.Unix_error (e, _, _) ->
          fail t ("read: " ^ Unix.error_message e)
      | 0 -> fail t "server closed the connection"
      | n -> (
          (try Frame.Splitter.feed t.splitter t.chunk ~len:n
           with Frame.Corrupt msg -> fail t ("corrupt frame: " ^ msg));
          read_msg t))
  | exception Frame.Corrupt msg -> fail t ("corrupt frame: " ^ msg)

(* The reply to the request just sent, filing away any pushes that
   arrive first. *)
let rec read_reply t =
  match read_msg t with
  | Message.Push p -> Queue.push p t.notices; read_reply t
  | Message.Reply (Message.Error { code; msg }) -> raise (Error (code, msg))
  | Message.Reply r -> r

let request t req =
  if not t.alive then raise (Disconnected "connection already closed");
  match write_all t (Frame.encode (Message.encode_request req)) with
  | () -> read_reply t
  | exception Unix.Unix_error (e, _, _) -> (
      (* The peer may have replied and closed before reading our
         request — an admission refusal does exactly that.  Its parting
         reply is still buffered on the socket; surface it (as the
         error it almost certainly is) rather than the broken pipe. *)
      match read_reply t with
      | reply -> reply
      | exception Disconnected _ -> fail t ("write: " ^ Unix.error_message e))

let unexpected what = raise (Disconnected ("unexpected reply to " ^ what))

let connect ?(client_name = "orion-client") addr =
  (* A write racing the server's close must surface as EPIPE, not kill
     the process. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Addr.to_sockaddr addr) with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  let t =
    {
      fd;
      splitter = Frame.Splitter.create ();
      notices = Queue.create ();
      chunk = Bytes.create 65536;
      session = -1;
      alive = true;
    }
  in
  (match
     request t (Message.Hello { version = Message.version; client = client_name })
   with
  | Message.Welcome { session; _ } -> t.session <- session
  | _ -> unexpected "hello"
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  t

let session_id t = t.session

let close t =
  if t.alive then begin
    (try
       match request t Message.Bye with
       | Message.Result Message.Unit | _ -> ()
     with Disconnected _ | Error _ -> ());
    t.alive <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let eval t src =
  match request t (Message.Eval src) with
  | Message.Result v -> v
  | _ -> unexpected "eval"

let begin_tx t =
  match request t Message.Begin with
  | Message.Result (Message.Num id) -> id
  | _ -> unexpected "begin"

let commit t =
  match request t Message.Commit with
  | Message.Result Message.Unit -> ()
  | _ -> unexpected "commit"

let abort t =
  match request t Message.Abort with
  | Message.Result Message.Unit -> ()
  | _ -> unexpected "abort"

let lock_composite t ~root access =
  match request t (Message.Lock_composite { root; access }) with
  | Message.Granted -> ()
  | _ -> unexpected "lock-composite"

let lock_instance t oid access =
  match request t (Message.Lock_instance { oid; access }) with
  | Message.Granted -> ()
  | _ -> unexpected "lock-instance"

let make t ~cls ?(parents = []) ?(attrs = []) () =
  match request t (Message.Make { cls; parents; attrs }) with
  | Message.Result (Message.Obj oid) -> oid
  | _ -> unexpected "make"

let components_of t root =
  match request t (Message.Components_of root) with
  | Message.Result (Message.Objs oids) -> oids
  | _ -> unexpected "components-of"

let ancestors_of t root =
  match request t (Message.Ancestors_of root) with
  | Message.Result (Message.Objs oids) -> oids
  | _ -> unexpected "ancestors-of"

let read_attr t oid attr =
  match request t (Message.Read_attr { oid; attr }) with
  | Message.Result (Message.Value v) -> v
  | _ -> unexpected "read-attr"

let begin_snapshot t =
  match request t Message.Begin_snapshot with
  | Message.Result (Message.Num clock) -> clock
  | _ -> unexpected "begin-snapshot"

let end_snapshot t =
  match request t Message.End_snapshot with
  | Message.Result Message.Unit -> ()
  | _ -> unexpected "end-snapshot"

let ping t =
  match request t Message.Ping with
  | Message.Pong -> ()
  | _ -> unexpected "ping"

let stats t =
  match request t Message.Stats with
  | Message.Stats_reply snapshot -> snapshot
  | _ -> unexpected "stats"

let notices t =
  let out = List.of_seq (Queue.to_seq t.notices) in
  Queue.clear t.notices;
  out

(* {1 Replication} *)

let repl_subscribe t ~from_lsn =
  match request t (Message.Repl_subscribe { from_lsn }) with
  | Message.Repl_ok { lsn } -> lsn
  | _ -> unexpected "repl-subscribe"

let shutdown t =
  (* Wake a thread blocked on this connection: the read sees EOF and
     raises [Disconnected] (safer than closing the fd under it). *)
  try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let promote t =
  match request t Message.Promote with
  | Message.Result Message.Unit -> ()
  | _ -> unexpected "promote"
