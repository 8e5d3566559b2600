type counter = { c_name : string; mutable count : int }

(* Log-spaced bucket upper bounds, 10µs .. ~100s: three buckets per
   decade is enough resolution for p50/p95/p99 on latencies that span
   microsecond lock grants to multi-second parked waits. *)
let bucket_bounds =
  let per_decade = [ 1.0; 2.15; 4.64 ] in
  Array.of_list
    (List.concat_map
       (fun exp ->
         List.map (fun m -> m *. (10. ** float_of_int exp)) per_decade)
       [ -5; -4; -3; -2; -1; 0; 1 ])

type measure = Seconds | Count

type histogram = {
  h_name : string;
  h_unit : measure;
  buckets : int array;  (* one per bound, plus overflow at the end *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
}

type instrument =
  | Counter of counter
  | Gauge of (unit -> int)
  | Histogram of histogram

module Omutex = Orion_util.Omutex

type registry = { tbl : (string, instrument) Hashtbl.t; mu : Omutex.t }

let create_registry () : registry =
  { tbl = Hashtbl.create 64; mu = Omutex.create Omutex.obs_registry }

let default = create_registry ()

(* The registry table itself is shared across threads (the reactor,
   the group committer and client threads in tests register and
   snapshot concurrently), so structural mutations and
   iteration take the registry mutex.  Instrument *updates* stay
   lock-free: every thread runs on the one domain, and an increment
   has no allocation or poll point between its read and its write, so
   no thread switch can split it.  The mutex is ranked (obs.registry):
   snapshot holds it while calling gauge closures, which read the
   WAL, so the log's class ranks strictly above it. *)
let with_registry registry f = Omutex.with_lock registry.mu f

let register ?(registry = default) name instrument =
  with_registry registry (fun () -> Hashtbl.replace registry.tbl name instrument)

(* Counters --------------------------------------------------------------------- *)

let counter ?registry name =
  let c = { c_name = name; count = 0 } in
  register ?registry name (Counter c);
  c

let incr ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count
let reset_counter c = c.count <- 0

(* Gauges ----------------------------------------------------------------------- *)

let gauge ?registry name read = register ?registry name (Gauge read)

(* Histograms ------------------------------------------------------------------- *)

let histogram ?registry ?(unit = Seconds) name =
  let h =
    {
      h_name = name;
      h_unit = unit;
      buckets = Array.make (Array.length bucket_bounds + 1) 0;
      h_count = 0;
      h_sum = 0.;
      h_max = 0.;
    }
  in
  register ?registry name (Histogram h);
  h

let bucket_index v =
  let n = Array.length bucket_bounds in
  let rec go i = if i >= n || v <= bucket_bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let v = if Float.is_nan v || v < 0. then 0. else v in
  h.buckets.(bucket_index v) <- h.buckets.(bucket_index v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v > h.h_max then h.h_max <- v

let histogram_count h = h.h_count

let reset_histogram h =
  Array.fill h.buckets 0 (Array.length h.buckets) 0;
  h.h_count <- 0;
  h.h_sum <- 0.;
  h.h_max <- 0.

type histogram_summary = {
  unit : measure;
  count : int;
  sum : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  buckets : int array;
}

(* A quantile as the upper bound of the bucket holding the q-th
   observation; the overflow bucket reports the observed max. *)
let quantile_of ~count ~max:max_v ~buckets q =
  if count = 0 then 0.
  else begin
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int count)))
    in
    let n = Array.length bucket_bounds in
    let rec go i seen =
      if i >= n then max_v
      else
        let seen = seen + buckets.(i) in
        if seen >= rank then Float.min bucket_bounds.(i) max_v else go (i + 1) seen
    in
    go 0 0
  end

let summarize (h : histogram) =
  (* Copy the live bucket array: the summary is a snapshot, not a view. *)
  let buckets = Array.copy h.buckets in
  {
    unit = h.h_unit;
    count = h.h_count;
    sum = h.h_sum;
    max = h.h_max;
    p50 = quantile_of ~count:h.h_count ~max:h.h_max ~buckets 0.50;
    p95 = quantile_of ~count:h.h_count ~max:h.h_max ~buckets 0.95;
    p99 = quantile_of ~count:h.h_count ~max:h.h_max ~buckets 0.99;
    buckets;
  }

(* Merging summaries from different servers: bucket counts add
   pointwise, and the quantiles are recomputed from the merged buckets —
   the whole reason the raw buckets ride along on the wire (averaging
   percentiles is wrong). *)
let merge_summaries summaries =
  let width = Array.length bucket_bounds + 1 in
  let buckets = Array.make width 0 in
  let count = ref 0 and sum = ref 0. and max_v = ref 0. in
  List.iter
    (fun s ->
      count := !count + s.count;
      sum := !sum +. s.sum;
      if s.max > !max_v then max_v := s.max;
      Array.iteri
        (fun i n -> if i < width then buckets.(i) <- buckets.(i) + n)
        s.buckets)
    summaries;
  {
    unit = (match summaries with s :: _ -> s.unit | [] -> Seconds);
    count = !count;
    sum = !sum;
    max = !max_v;
    p50 = quantile_of ~count:!count ~max:!max_v ~buckets 0.50;
    p95 = quantile_of ~count:!count ~max:!max_v ~buckets 0.95;
    p99 = quantile_of ~count:!count ~max:!max_v ~buckets 0.99;
    buckets;
  }

(* Snapshot --------------------------------------------------------------------- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * histogram_summary) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot ?(registry = default) () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  with_registry registry (fun () ->
      Hashtbl.iter
        (fun name instrument ->
          match instrument with
          | Counter c -> counters := (name, c.count) :: !counters
          | Gauge read ->
              let v = try read () with _ -> 0 in
              gauges := (name, v) :: !gauges
          | Histogram h -> histograms := (name, summarize h) :: !histograms)
        registry.tbl);
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let reset ?(registry = default) () =
  with_registry registry (fun () ->
      Hashtbl.iter
        (fun _ instrument ->
          match instrument with
          | Counter c -> reset_counter c
          | Gauge _ -> ()
          | Histogram h -> reset_histogram h)
        registry.tbl)

let find_counter s name = List.assoc_opt name s.counters
let find_gauge s name = List.assoc_opt name s.gauges
let find_histogram s name = List.assoc_opt name s.histograms

let ms v = v *. 1e3

(* A value of a histogram in its unit: durations in milliseconds,
   counts as they are. *)
let show unit v =
  match unit with
  | Seconds -> Printf.sprintf "%.3fms" (ms v)
  | Count -> Printf.sprintf "%g" v

(* Labels ----------------------------------------------------------------------- *)

let labeled name (key, value) = Printf.sprintf "%s{%s=%s}" name key value

let label_value name ~base ~key =
  let prefix = Printf.sprintf "%s{%s=" base key in
  let plen = String.length prefix in
  let nlen = String.length name in
  if nlen > plen + 1
     && String.sub name 0 plen = prefix
     && name.[nlen - 1] = '}'
  then Some (String.sub name plen (nlen - plen - 1))
  else None

let counter_labels ?(registry = default) base ~key =
  with_registry registry (fun () ->
      Hashtbl.fold
        (fun name instrument acc ->
          match instrument with
          | Counter _ -> (
              match label_value name ~base ~key with
              | Some v -> v :: acc
              | None -> acc)
          | Gauge _ | Histogram _ -> acc)
        registry.tbl [])

(* Rates ------------------------------------------------------------------------ *)

type rates = {
  dt : float;
  counter_rates : (string * float) list;
  gauge_values : (string * int) list;
  histogram_rates : (string * float * histogram_summary) list;
}

let rates ~before ~after ~dt =
  let dt = if dt <= 0. then 1e-9 else dt in
  let counter_rates =
    List.filter_map
      (fun (name, v) ->
        let v0 = Option.value (find_counter before name) ~default:0 in
        if v <> v0 then Some (name, float_of_int (v - v0) /. dt) else None)
      after.counters
  in
  let histogram_rates =
    List.filter_map
      (fun (name, h) ->
        let c0 =
          match find_histogram before name with Some h0 -> h0.count | None -> 0
        in
        if h.count <> c0 then
          Some (name, float_of_int (h.count - c0) /. dt, h)
        else None)
      after.histograms
  in
  { dt; counter_rates; gauge_values = after.gauges; histogram_rates }

let pp_rates ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (n, v) -> Format.fprintf ppf "%-40s %+.1f/s@," n v)
    r.counter_rates;
  List.iter
    (fun (n, v) -> Format.fprintf ppf "%-40s %d (gauge)@," n v)
    (List.filter (fun (_, v) -> v <> 0) r.gauge_values);
  List.iter
    (fun (n, v, h) ->
      Format.fprintf ppf "%-40s %+.1f/s p95=%s@," n v (show h.unit h.p95))
    r.histogram_rates;
  Format.fprintf ppf "@]"

(* The non-empty buckets of a summary, rendered compactly as
   [<=UPPER:count] pairs (the overflow bucket prints as [inf]). *)
let pp_buckets ppf h =
  Array.iteri
    (fun i n ->
      if n > 0 then
        if i < Array.length bucket_bounds then
          let upper =
            match h.unit with
            | Seconds -> Printf.sprintf "%gms" (ms bucket_bounds.(i))
            | Count -> Printf.sprintf "%g" bucket_bounds.(i)
          in
          Format.fprintf ppf " <=%s:%d" upper n
        else Format.fprintf ppf " inf:%d" n)
    h.buckets

let pp_snapshot ppf s =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (n, v) -> Format.fprintf ppf "%-32s %d@," n v) s.counters;
  List.iter (fun (n, v) -> Format.fprintf ppf "%-32s %d (gauge)@," n v) s.gauges;
  List.iter
    (fun (n, h) ->
      let v = show h.unit in
      Format.fprintf ppf "%-32s n=%d p50=%s p95=%s p99=%s max=%s@," n h.count
        (v h.p50) (v h.p95) (v h.p99) (v h.max);
      if h.count > 0 then
        Format.fprintf ppf "%-32s buckets:%a@," "" pp_buckets h)
    s.histograms;
  Format.fprintf ppf "@]"

let one_line s =
  let c name = Option.value (find_counter s name) ~default:0 in
  let g name = Option.value (find_gauge s name) ~default:0 in
  let dispatch =
    match find_histogram s "server.dispatch_seconds" with
    | Some h when h.count > 0 -> Printf.sprintf " dispatch_p95=%.2fms" (ms h.p95)
    | _ -> ""
  in
  Printf.sprintf
    "requests=%d sessions=%d parked=%d parks=%d lock_acq=%d lock_blocks=%d \
     deadlocks=%d wal_appends=%d%s"
    (c "server.requests") (g "server.sessions") (g "server.parked")
    (c "server.parks_total") (c "lock.acquisitions") (c "lock.blocks")
    (c "server.deadlock_victims") (c "wal.appends") dispatch

(* Spans ------------------------------------------------------------------------ *)

module Span = struct
  type span = {
    s_name : string;
    start : float;
    mutable children : (string * float) list;  (* newest first *)
  }

  (* The enclosing spans of the operation in flight, innermost first.
     One stack per domain: nested spans must run on one thread, which
     holds in the reactor loop where all spans are taken. *)
  let stack_key : span list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let stack () = Domain.DLS.get stack_key

  let threshold = ref None
  let sink = ref prerr_endline
  let reported = ref 0

  let set_slow_threshold t = threshold := t
  let slow_threshold () = !threshold
  let set_slow_sink f = sink := f
  let slow_ops_reported () = !reported

  let report span elapsed =
    Stdlib.incr reported;
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "slow op: %s took %.1fms" span.s_name (ms elapsed));
    (match List.rev span.children with
    | [] -> ()
    | children ->
        Buffer.add_string buf " (";
        List.iteri
          (fun i (name, dt) ->
            if i > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (Printf.sprintf "%s %.1fms" name (ms dt)))
          children;
        Buffer.add_char buf ')');
    !sink (Buffer.contents buf)

  let time ?histogram name f =
    let span = { s_name = name; start = Unix.gettimeofday (); children = [] } in
    let stack = stack () in
    let outer = !stack in
    stack := span :: outer;
    let close () =
      let elapsed = Unix.gettimeofday () -. span.start in
      stack := outer;
      (match histogram with Some h -> observe h elapsed | None -> ());
      (match outer with
      | parent :: _ -> parent.children <- (name, elapsed) :: parent.children
      | [] -> (
          match !threshold with
          | Some limit when elapsed > limit -> report span elapsed
          | _ -> ()))
    in
    match f () with
    | result ->
        close ();
        result
    | exception e ->
        close ();
        raise e
end
