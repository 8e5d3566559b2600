(* The checker behind Omutex.  Structure: a pure-ish core ([process])
   over a local class record ([lclass]), shared by the live path
   (Omutex events, classes converted through the accessors) and the
   trace replayer (classes reconstructed from [C] header lines) — so a
   replayed trace goes through exactly the code the live run would
   have.

   Concurrency: one plain [Mutex.t] serializes the whole engine.  It
   must stay a plain mutex (the checker must never observe itself) and
   nothing under it may acquire any wrapped lock — the only outcalls
   are an atomic counter bump and buffered [out_channel] writes.  The
   obs instruments registered by [install] are a lock-free counter and
   gauges over atomics, safe to read from [Obs.snapshot] while it holds
   the (wrapped) registry mutex. *)

module SA = Schema_analysis
module Omutex = Orion_util.Omutex
module Obs = Orion_obs.Metrics

type lclass = {
  name : string;
  rank : int;
  no_block : bool;
  asc_region : string option;
}

type levent =
  | L_acquire of lclass * int * string
  | L_release of lclass * int
  | L_blocking of string * string
  | L_region of bool * string
  | L_allow of bool

type held = { h_cls : lclass; h_inst : int; h_site : string }

type tstate = {
  mutable held : held list;  (* innermost first *)
  mutable regions : string list;
  mutable allow : int;
}

type engine = {
  emu : Mutex.t;
  threads : (string, tstate) Hashtbl.t;
  edges : (string * string, string * string) Hashtbl.t;
      (* (outer class, inner class) -> witness sites of the first
         observation (outer's acquisition site, inner's) *)
  dedup : (string, unit) Hashtbl.t;
  mutable findings_rev : SA.finding list;
  trace : out_channel option;
  trace_buf : Buffer.t;
      (* whole trace lines not yet written: see [drain_trace] *)
  traced_classes : (string, unit) Hashtbl.t;
  n_edges : int Atomic.t;
  n_violations : int Atomic.t;
  mutable on_violation : unit -> unit;
}

let create_engine ?trace () =
  {
    emu = Mutex.create ();
    threads = Hashtbl.create 16;
    edges = Hashtbl.create 64;
    dedup = Hashtbl.create 16;
    findings_rev = [];
    trace =
      Option.map
        (fun f -> open_out_gen [ Open_append; Open_creat ] 0o644 f)
        trace;
    trace_buf = Buffer.create 4096;
    traced_classes = Hashtbl.create 16;
    n_edges = Atomic.make 0;
    n_violations = Atomic.make 0;
    on_violation = (fun () -> ());
  }

(* Several processes append to one trace file, so each write must carry
   whole lines: a channel flushing its full buffer would cut a line in
   two and let another process's write land in the middle.  Lines
   collect in [trace_buf] and go out in one write of whole lines. *)
let drain_trace eng =
  match eng.trace with
  | Some oc ->
      Buffer.output_buffer oc eng.trace_buf;
      Buffer.clear eng.trace_buf;
      flush oc
  | None -> ()

let flush_trace eng =
  Mutex.lock eng.emu;
  drain_trace eng;
  Mutex.unlock eng.emu

let edge_count eng = Atomic.get eng.n_edges

let state_of eng key =
  match Hashtbl.find_opt eng.threads key with
  | Some st -> st
  | None ->
      let st = { held = []; regions = []; allow = 0 } in
      Hashtbl.replace eng.threads key st;
      st

(* Findings ---------------------------------------------------------------- *)

let sev_weight = function SA.Error -> 0 | SA.Warning -> 1 | SA.Info -> 2

let sort_findings fs =
  List.stable_sort
    (fun a b -> compare (sev_weight a.SA.severity) (sev_weight b.SA.severity))
    fs

let add_finding eng ~dedup_key f =
  if not (Hashtbl.mem eng.dedup dedup_key) then begin
    Hashtbl.replace eng.dedup dedup_key ();
    eng.findings_rev <- f :: eng.findings_rev;
    Atomic.incr eng.n_violations;
    eng.on_violation ()
  end

(* May-precede graph ------------------------------------------------------- *)

let successors eng n =
  Hashtbl.fold
    (fun (a, b) w acc -> if String.equal a n then (b, w) :: acc else acc)
    eng.edges []

(* A path [src ->* dst] through observed edges, as (from, to, witness)
   steps; [None] when unreachable.  Graphs here are tiny (one node per
   lock class), so a naive DFS is plenty. *)
let find_path eng src dst =
  let visited = Hashtbl.create 8 in
  let rec go n acc =
    if String.equal n dst then Some (List.rev acc)
    else if Hashtbl.mem visited n then None
    else begin
      Hashtbl.replace visited n ();
      List.fold_left
        (fun r (next, w) ->
          match r with Some _ -> r | None -> go next ((n, next, w) :: acc))
        None (successors eng n)
    end
  in
  if String.equal src dst then None else go src []

let add_edge eng ~(outer : held) (cls : lclass) site =
  let k = (outer.h_cls.name, cls.name) in
  if not (Hashtbl.mem eng.edges k) then begin
    (match find_path eng cls.name outer.h_cls.name with
    | Some ((a, b, (w_outer, w_inner)) :: _) ->
        add_finding eng
          ~dedup_key:("cycle:" ^ outer.h_cls.name ^ "->" ^ cls.name)
          {
            SA.severity = SA.Error;
            code = "lock-order-inversion";
            cls = cls.name;
            path = [ outer.h_cls.name; cls.name ];
            detail =
              Printf.sprintf
                "%s (taken at %s) then %s (at %s) inverts the previously \
                 observed order %s (at %s) then %s (at %s)"
                outer.h_cls.name outer.h_site cls.name site a w_outer b
                w_inner;
          }
    | Some [] | None -> ());
    Hashtbl.replace eng.edges k (outer.h_site, site);
    Atomic.incr eng.n_edges
  end

(* Checks ------------------------------------------------------------------ *)

let on_acquire eng st (cls : lclass) inst site =
  let same, other =
    List.partition (fun h -> String.equal h.h_cls.name cls.name) st.held
  in
  (match same with
  | [] -> ()
  | _ when List.exists (fun h -> h.h_inst = inst) same ->
      let prior = List.find (fun h -> h.h_inst = inst) same in
      add_finding eng ~dedup_key:("recursive:" ^ cls.name)
        {
          SA.severity = SA.Error;
          code = "recursive-lock";
          cls = cls.name;
          path = [ cls.name ];
          detail =
            Printf.sprintf "%s#%d re-acquired at %s while already held (at %s)"
              cls.name inst site prior.h_site;
        }
  | _ -> (
      match cls.asc_region with
      | Some r when List.mem r st.regions ->
          let hi =
            List.fold_left (fun m h -> max m h.h_inst) min_int same
          in
          if inst < hi then
            add_finding eng ~dedup_key:("asc:" ^ cls.name)
              {
                SA.severity = SA.Error;
                code = "merged-search-protocol";
                cls = cls.name;
                path = [ cls.name ];
                detail =
                  Printf.sprintf
                    "%s#%d acquired at %s after #%d inside region %s: \
                     instance order must ascend"
                    cls.name inst site hi r;
              }
      | Some r ->
          let prior = List.hd same in
          add_finding eng ~dedup_key:("multi:" ^ cls.name)
            {
              SA.severity = SA.Error;
              code = "merged-search-protocol";
              cls = cls.name;
              path = [ cls.name ];
              detail =
                Printf.sprintf
                  ">1 %s instance held outside region %s: #%d (at %s) still \
                   held while acquiring #%d at %s"
                  cls.name r prior.h_inst prior.h_site inst site;
            }
      | None ->
          let prior = List.hd same in
          add_finding eng ~dedup_key:("multi:" ^ cls.name)
            {
              SA.severity = SA.Error;
              code = "same-class-nesting";
              cls = cls.name;
              path = [ cls.name ];
              detail =
                Printf.sprintf
                  "%s#%d (at %s) still held while acquiring #%d at %s"
                  cls.name prior.h_inst prior.h_site inst site;
            }));
  List.iter
    (fun h ->
      if cls.rank < h.h_cls.rank then
        add_finding eng
          ~dedup_key:("rank:" ^ h.h_cls.name ^ "->" ^ cls.name)
          {
            SA.severity = SA.Error;
            code = "rank-inversion";
            cls = cls.name;
            path = [ h.h_cls.name; cls.name ];
            detail =
              Printf.sprintf
                "%s (rank %d, taken at %s) acquired while holding %s (rank \
                 %d, taken at %s)"
                cls.name cls.rank site h.h_cls.name h.h_cls.rank h.h_site;
          };
      add_edge eng ~outer:h cls site)
    other;
  st.held <- { h_cls = cls; h_inst = inst; h_site = site } :: st.held

let on_release st (cls : lclass) inst =
  let rec drop = function
    | [] -> []
    | h :: rest when String.equal h.h_cls.name cls.name && h.h_inst = inst ->
        rest
    | h :: rest -> h :: drop rest
  in
  st.held <- drop st.held

let on_blocking eng st op site =
  if st.allow = 0 then
    List.iter
      (fun h ->
        if h.h_cls.no_block then
          add_finding eng
            ~dedup_key:("blocking:" ^ h.h_cls.name ^ ":" ^ op)
            {
              SA.severity = SA.Warning;
              code = "held-across-blocking";
              cls = h.h_cls.name;
              path = [ h.h_cls.name ];
              detail =
                Printf.sprintf "%s (taken at %s) held across %s at %s"
                  h.h_cls.name h.h_site op site;
            })
      st.held

let process eng st = function
  | L_acquire (cls, inst, site) -> on_acquire eng st cls inst site
  | L_release (cls, inst) -> on_release st cls inst
  | L_blocking (op, site) -> on_blocking eng st op site
  | L_region (true, r) -> st.regions <- r :: st.regions
  | L_region (false, r) ->
      let rec drop = function
        | [] -> []
        | x :: rest when String.equal x r -> rest
        | x :: rest -> x :: drop rest
      in
      st.regions <- drop st.regions
  | L_allow true -> st.allow <- st.allow + 1
  | L_allow false -> st.allow <- max 0 (st.allow - 1)

(* Live events ------------------------------------------------------------- *)

let lclass_of k =
  {
    name = Omutex.name k;
    rank = Omutex.rank k;
    no_block = Omutex.no_block k;
    asc_region = Omutex.asc_region k;
  }

let levent_of = function
  | Omutex.Acquire { cls; inst; site } -> L_acquire (lclass_of cls, inst, site)
  | Omutex.Release { cls; inst } -> L_release (lclass_of cls, inst)
  | Omutex.Blocking { op; site } -> L_blocking (op, site)
  | Omutex.Region_enter r -> L_region (true, r)
  | Omutex.Region_exit r -> L_region (false, r)
  | Omutex.Allow_enter _ -> L_allow true
  | Omutex.Allow_exit _ -> L_allow false

(* Trace lines.  [C name rank no_block asc_region] headers interleave
   lazily (emitted before a class's first [A]), so appending several
   processes to one file stays parseable; keys are pid-qualified for
   the same reason.  No token ever contains a space: class names, ops
   and regions are dotted/dashed identifiers, sites are "file.ml:N". *)

let write_trace eng key ev =
  let buf = eng.trace_buf in
  let ensure_class (c : lclass) =
    if not (Hashtbl.mem eng.traced_classes c.name) then begin
      Hashtbl.replace eng.traced_classes c.name ();
      Printf.bprintf buf "C %s %d %d %s\n" c.name c.rank
        (if c.no_block then 1 else 0)
        (match c.asc_region with Some r -> r | None -> "-")
    end
  in
  match ev with
  | L_acquire (c, inst, site) ->
      ensure_class c;
      Printf.bprintf buf "A %s %s %d %s\n" key c.name inst site
  | L_release (c, inst) ->
      ensure_class c;
      Printf.bprintf buf "R %s %s %d\n" key c.name inst
  | L_blocking (op, site) -> Printf.bprintf buf "B %s %s %s\n" key op site
  | L_region (enter, r) ->
      Printf.bprintf buf "G %s %s %s\n" key (if enter then "+" else "-") r
  | L_allow enter ->
      Printf.bprintf buf "X %s %s\n" key (if enter then "+" else "-")

let feed eng ~key lev =
  Mutex.lock eng.emu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock eng.emu)
    (fun () ->
      if Option.is_some eng.trace then begin
        write_trace eng key lev;
        if Buffer.length eng.trace_buf >= 16384 then drain_trace eng
      end;
      process eng (state_of eng key) lev)

let handle eng ~key ev = feed eng ~key (levent_of ev)

let pid = lazy (Unix.getpid ())

let self_key () =
  Printf.sprintf "%d.%d.%d" (Lazy.force pid)
    ((Domain.self () :> int))
    (Thread.id (Thread.self ()))

let tracer_of eng ev = handle eng ~key:(self_key ()) ev

let engine_findings eng =
  Mutex.lock eng.emu;
  let fs = List.rev eng.findings_rev in
  Mutex.unlock eng.emu;
  sort_findings fs

let exit_code fs =
  if List.exists (fun f -> f.SA.severity = SA.Error) fs then 2
  else if List.exists (fun f -> f.SA.severity = SA.Warning) fs then 1
  else 0

(* Installation ------------------------------------------------------------ *)

let installed_engine : engine option ref = ref None
let installed () = !installed_engine

let findings () =
  match !installed_engine with
  | Some eng -> engine_findings eng
  | None -> []

let install ?trace () =
  match !installed_engine with
  | Some _ -> ()
  | None ->
      let eng = create_engine ?trace () in
      (* Instruments register before the tracer flips on: registration
         takes the (wrapped) registry mutex, and a half-installed
         engine must not see its own setup. *)
      let viol = Obs.counter "lockdep.violations" in
      eng.on_violation <- (fun () -> Obs.incr viol);
      Obs.gauge "lockdep.classes" (fun () -> List.length (Omutex.classes ()));
      Obs.gauge "lockdep.edges" (fun () -> Atomic.get eng.n_edges);
      installed_engine := Some eng;
      Omutex.set_tracer (Some (tracer_of eng));
      (* Every installation path (--lockdep, ORION_LOCKDEP, a trace
         file) gets the exit-time report: flush the trace, dump the
         findings to stderr, and force the process exit code to the
         findings' — how CI fails a lockdep-enabled suite.  Guarded by
         the idempotence check above, so the hook registers once. *)
      at_exit (fun () ->
          drain_trace eng;
          let fs = engine_findings eng in
          match exit_code fs with
          | 0 -> ()
          | code ->
              prerr_endline "lockdep: violations detected:";
              List.iter (fun f -> prerr_endline (SA.finding_to_sexp f)) fs;
              flush stderr;
              flush stdout;
              (* at_exit context: [exit] would recurse, so leave
                 directly — stdio is flushed just above. *)
              Unix._exit code)

let truthy = function "" | "0" | "false" | "no" -> false | _ -> true

let install_from_env () =
  let on =
    match Sys.getenv_opt "ORION_LOCKDEP" with
    | Some v -> truthy v
    | None -> false
  in
  let trace = Sys.getenv_opt "ORION_LOCKDEP_TRACE" in
  if on || trace <> None then install ?trace ()

(* Trace replay ------------------------------------------------------------ *)

let check_trace path =
  let eng = create_engine () in
  let classes : (string, lclass) Hashtbl.t = Hashtbl.create 16 in
  let cls_of lineno n =
    match Hashtbl.find_opt classes n with
    | Some c -> c
    | None ->
        failwith
          (Printf.sprintf "%s:%d: lock class %S used before its C header"
             path lineno n)
  in
  let int_of lineno s =
    match int_of_string_opt s with
    | Some i -> i
    | None ->
        failwith (Printf.sprintf "%s:%d: expected an integer, got %S" path
                    lineno s)
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let n = !lineno in
           match String.split_on_char ' ' line with
           | [ "C"; cname; r; nb; reg ] ->
               Hashtbl.replace classes cname
                 {
                   name = cname;
                   rank = int_of n r;
                   no_block = String.equal nb "1";
                   asc_region =
                     (if String.equal reg "-" then None else Some reg);
                 }
           | [ "A"; key; cname; inst; site ] ->
               feed eng ~key
                 (L_acquire (cls_of n cname, int_of n inst, site))
           | [ "R"; key; cname; inst ] ->
               feed eng ~key (L_release (cls_of n cname, int_of n inst))
           | [ "B"; key; op; site ] -> feed eng ~key (L_blocking (op, site))
           | [ "G"; key; pm; r ] ->
               feed eng ~key (L_region (String.equal pm "+", r))
           | [ "X"; key; pm ] -> feed eng ~key (L_allow (String.equal pm "+"))
           | [] | [ "" ] -> ()
           | _ ->
               failwith
                 (Printf.sprintf "%s:%d: unparseable lockdep trace line: %s"
                    path n line)
         done
       with End_of_file -> ());
      engine_findings eng)
