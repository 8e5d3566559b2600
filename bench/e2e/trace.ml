(* Client-side spans, kept in memory and written out as JSONL when the
   run ends.  Each client thread owns one buffer, so recording takes no
   lock.  An op span is the root of the request spans sent on its
   behalf; they share its op id.  Pings are root spans with no op. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type buf = {
  round : int;
  client : int;
  mutable n : int;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;  (* span id, -1 for a root *)
  mutable op : int array;  (* op id, -1 for none *)
}

let create ~round ~client =
  let cap = 1024 in
  {
    round;
    client;
    n = 0;
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
  }

(* Ids are unique across rounds and clients: the round number sits
   above bit 44, the client number above bit 40. *)
let id b i = (b.round lsl 44) lor (b.client lsl 40) lor i

let grow b =
  let cap = 2 * Array.length b.start in
  let ext a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.n;
    a'
  in
  b.name <- ext b.name "";
  b.start <- ext b.start 0;
  b.stop <- ext b.stop 0;
  b.parent <- ext b.parent 0;
  b.op <- ext b.op 0

(* Open a span; its id.  Close it with [finish]. *)
let start b ~name ~parent ~op =
  if b.n = Array.length b.start then grow b;
  let i = b.n in
  b.n <- i + 1;
  b.name.(i) <- name;
  b.parent.(i) <- parent;
  b.op.(i) <- op;
  b.start.(i) <- now_ns ();
  id b i

let finish b span = b.stop.(span land ((1 lsl 40) - 1)) <- now_ns ()

let iter b f =
  for i = 0 to b.n - 1 do
    f ~name:b.name.(i) ~dur_ns:(b.stop.(i) - b.start.(i)) ~parent:b.parent.(i)
  done

let write_jsonl path bufs =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun b ->
          for i = 0 to b.n - 1 do
            Printf.fprintf oc
              "{\"span\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d,\"client\":%d,\"round\":%d}\n"
              (id b i) b.name.(i) b.start.(i) b.stop.(i) b.parent.(i) b.op.(i)
              b.client b.round
          done)
        bufs)
