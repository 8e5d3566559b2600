(* The orion CLI: REPL, experiment runner, demo and script runner. *)

open Cmdliner
module Eval = Orion_dsl.Eval
module Repl = Orion_dsl.Repl
module Figures = Orion_experiments.Figures
module Perf = Orion_experiments.Perf
module Report = Orion_experiments.Report

module Wal = Orion_wal.Wal
module Recovery = Orion_wal.Recovery
module Schema_analysis = Orion_analysis.Schema_analysis
module Store_check = Orion_analysis.Store_check
module Server = Orion_server.Server
module Tx_service = Orion_server.Tx_service
module Tailer = Orion_replication.Tailer
module Replica = Orion_replication.Replica
module Client = Orion_client
module Message = Orion_protocol.Message
module Schema = Orion_schema.Schema

let db_file =
  Arg.(
    value & opt (some string) None
    & info [ "db" ] ~docv:"FILE"
        ~doc:
          "Persistent database file: loaded if it exists, saved on normal exit.")

let wal_flag =
  Arg.(
    value & flag
    & info [ "wal" ]
        ~doc:
          "Write-ahead-log the session to FILE.wal next to the $(b,--db) file: \
           every commit that writes costs one log append and one fsync \
           (read-only commits touch no log), every checkpoint snapshots the \
           database file and truncates the log, and a crashed session can be \
           repaired with $(b,orion recover).")

let wal_path_of db_path = db_path ^ ".wal"

(* Like {!open_env} but also hands back the attached log, which the
   server threads through to {!Orion_tx.Tx_manager} for commit
   logging. *)
let open_env_log ?(wal = false) db_file =
  let env =
    match db_file with
    | Some path when Sys.file_exists path ->
        let store = Orion_storage.Store.load_file path in
        let db = Orion_core.Persist.load store in
        Eval.create_env ~db ()
    | Some _ | None -> Eval.create_env ()
  in
  let log =
    match (wal, db_file) with
    | true, Some path ->
        let wal_path = wal_path_of path in
        if Sys.file_exists wal_path then begin
          (* A clean shutdown removes the log, so a leftover one is the
             evidence of a crash — refuse to clobber it. *)
          Format.eprintf
            "error: %s exists (crashed session?): run `orion recover %s` to \
             keep its committed transactions, or delete it to discard them@."
            wal_path path;
          exit 1
        end;
        let log = Wal.create () in
        Wal.attach ~snapshot_path:path log (Eval.database env);
        Wal.set_backing log (Some wal_path);
        Wal.sync log;
        (* Initial checkpoint: recovery needs a snapshot file or a
           sealed checkpoint bracket in the log, and a brand-new
           database otherwise has neither until the first clean
           shutdown — a crash before then would be unrecoverable. *)
        Orion_core.Persist.save (Eval.database env);
        Some log
    | true, None ->
        Format.eprintf "warning: --wal without --db has no effect@.";
        None
    | false, _ -> None
  in
  (env, log)

let open_env ?wal db_file = fst (open_env_log ?wal db_file)

let close_env ?(wal = false) env db_file =
  match db_file with
  | None -> ()
  | Some path ->
      let db = Eval.database env in
      (* With a log attached this is a full checkpoint: snapshot the
         store to [path] and truncate the log; without one, plain
         save. *)
      Orion_core.Persist.save db;
      Orion_storage.Store.save_file (Orion_core.Database.store db) path;
      let wal_path = wal_path_of path in
      if wal && Sys.file_exists wal_path then Sys.remove wal_path;
      Format.eprintf "database saved to %s@." path

let repl_cmd =
  let run db_file wal =
    let env = open_env ~wal db_file in
    Repl.run ~env stdin stdout;
    close_env ~wal env db_file
  in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive session in the paper's Lisp syntax")
    Term.(const run $ db_file $ wal_flag)

let experiments_cmd =
  let only =
    Arg.(
      value & opt (some string) None
      & info [ "only" ] ~docv:"ID" ~doc:"Run only the experiment with this id (e.g. F7)")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and titles")
  in
  let run list_only only =
    let reports = Figures.all () @ Perf.all () in
    if list_only then begin
      List.iter (fun r -> Printf.printf "%-4s %s\n" r.Report.id r.Report.title) reports;
      exit 0
    end;
    let selected =
      match only with
      | None -> reports
      | Some id ->
          List.filter
            (fun r -> String.lowercase_ascii r.Report.id = String.lowercase_ascii id)
            reports
    in
    if selected = [] then begin
      prerr_endline "no such experiment";
      exit 2
    end;
    List.iter (fun r -> print_string (Report.to_string r)) selected;
    if not (List.for_all Report.ok selected) then exit 1
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce the paper's figures, tables and counted experiments")
    Term.(const run $ list_only $ only)

let demo_script =
  {|
;; The paper's Example 2, live.
(make-class 'Paragraph :attributes ((Text :domain String)))
(make-class 'Image :attributes ((File :domain String)))
(make-class 'Section :attributes (
  (Content :domain (set-of Paragraph) :composite true :exclusive nil :dependent true)))
(make-class 'Document :attributes (
  (Title :domain String)
  (Sections :domain (set-of Section) :composite true :exclusive nil :dependent true)
  (Figures  :domain (set-of Image)   :composite true :exclusive nil :dependent nil)
  (Annotations :domain (set-of Paragraph) :composite true :exclusive true :dependent true)))
(setq book1 (make Document :Title "Composite Objects Revisited"))
(setq book2 (make Document :Title "Object-Oriented Databases"))
(setq chapter (make Section :parent ((book1 Sections) (book2 Sections))))
(setq para (make Paragraph :parent ((chapter Content)) :Text "An identical chapter may be part of two books."))
(components-of book1)
(parents-of chapter)
(shared-component-of chapter book1)
(delete book1)
(describe chapter)
(delete book2)
(count-objects)
(integrity-check)
|}

let demo_cmd =
  let run () =
    let env = Eval.create_env () in
    List.iter
      (fun form ->
        Format.printf "@[<h>orion> %s@]@." (Orion_util.Sexp.to_string form);
        Format.printf "%a@." (Eval.pp_v env) (Eval.eval env form))
      (Orion_util.Sexp.parse_many demo_script)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the Example-2 walkthrough and print each step")
    Term.(const run $ const ())

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program file")
  in
  let run db_file wal file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    let env = open_env ~wal db_file in
    (try
       List.iter
         (fun (_, result) -> Format.printf "%a@." (Eval.pp_v env) result)
         (Repl.run_script env src)
     with
    | Eval.Eval_error msg ->
        Format.eprintf "error: %s@." msg;
        exit 1
    | Orion_core.Core_error.Error e ->
        Format.eprintf "error: %a@." Orion_core.Core_error.pp e;
        exit 1);
    (match Orion_core.Integrity.check (Eval.database env) with
    | [] -> ()
    | violations ->
        Format.eprintf "integrity violations:@.%a@."
          (Format.pp_print_list Orion_core.Integrity.pp_violation)
          violations;
        exit 1);
    close_env ~wal env db_file
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Evaluate an ORION program file and verify database integrity")
    Term.(const run $ db_file $ wal_flag $ file)

let dump_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program file")
  in
  let run file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    let env = Eval.create_env () in
    ignore (Repl.run_script env src : (Orion_util.Sexp.t * Eval.v) list);
    print_string (Orion_dsl.Dump.dump (Eval.database env))
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Evaluate an ORION program and print the resulting database as a \
          re-loadable program")
    Term.(const run $ file)

let recover_cmd =
  let db_pos =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"DB"
          ~doc:
            "Database file to repair.  Used as the recovery snapshot when it \
             exists; otherwise the store is rebuilt from the log alone.")
  in
  let wal_file =
    Arg.(
      value & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:"Write-ahead log to replay (default: $(i,DB).wal).")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"Report what recovery would restore without writing anything.")
  in
  let run db_path wal_file dry_run =
    let wal_path = Option.value wal_file ~default:(wal_path_of db_path) in
    if not (Sys.file_exists wal_path) then begin
      Format.eprintf "error: no log at %s@." wal_path;
      exit 2
    end;
    let wal = Wal.load_file wal_path in
    let snapshot =
      if Sys.file_exists db_path then
        Some (Orion_storage.Store.load_file db_path)
      else None
    in
    let db, stats =
      try Recovery.replay ?snapshot wal
      with Failure msg ->
        Format.eprintf "error: %s@." msg;
        exit 1
    in
    Format.printf "%a@." Recovery.pp_stats stats;
    Format.printf "recovered %d objects from %s%s@."
      (Orion_core.Database.count db)
      wal_path
      (match snapshot with
      | Some _ -> Printf.sprintf " over snapshot %s" db_path
      | None -> " (log-only rebuild)");
    (match Orion_core.Integrity.check db with
    | [] -> Format.printf "integrity: consistent@."
    | violations ->
        Format.printf "integrity violations:@.%a@."
          (Format.pp_print_list Orion_core.Integrity.pp_violation)
          violations;
        exit 1);
    if not dry_run then begin
      (* Make the recovered state durable, then retire the log: its
         transactions now live in the checkpointed database file. *)
      Orion_core.Persist.save db;
      Orion_storage.Store.save_file (Orion_core.Database.store db) db_path;
      Sys.remove wal_path;
      Format.printf "database saved to %s; log retired@." db_path
    end
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Replay a write-ahead log after a crash, restoring the database to \
          its last committed state")
    Term.(const run $ db_pos $ wal_file $ dry_run)

(* Heuristic shared by stats/analyze/check: .odb files are stores;
   anything else is a program evaluated into a fresh environment. *)
let load_env_from file =
  if Filename.check_suffix file ".odb" then open_env (Some file)
  else begin
    let ic = open_in file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let env = Eval.create_env () in
    ignore (Repl.run_script env src : (Orion_util.Sexp.t * Eval.v) list);
    env
  end

let connect_client ~client_name addr_string =
  let addr =
    try Orion_protocol.Addr.parse addr_string
    with Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      exit 2
  in
  try Client.connect ~client_name addr with
  | Client.Error (code, msg) ->
      Format.eprintf "error [%s]: %s@." (Message.err_code_to_string code) msg;
      exit 1
  | Unix.Unix_error (e, _, _) ->
      Format.eprintf "error: cannot connect to %s: %s@." addr_string
        (Unix.error_message e);
      exit 1

let stats_cmd =
  let file =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Database file or ORION program")
  in
  let connect =
    Arg.(
      value & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Fetch a live metrics snapshot from a running server at $(docv) \
             ($(i,host:port), $(i,:port), a bare port, or a socket path) \
             instead of summarizing a file.")
  in
  let watch =
    Arg.(
      value & opt (some float) None
      & info [ "watch" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--connect): keep sampling every $(docv) seconds and \
             print per-second rates of the changed counters and histograms \
             (Ctrl-C to stop).  Sampling is entirely client-side — the \
             server just answers plain Stats requests.")
  in
  let run_connect addr_string watch =
    let client = connect_client ~client_name:"orion-stats" addr_string in
    match watch with
    | None ->
        let snapshot = Client.stats client in
        Client.close client;
        Format.printf "%a@." Orion_obs.Metrics.pp_snapshot snapshot
    | Some interval ->
        let interval = Float.max 0.05 interval in
        let finally () = try Client.close client with _ -> () in
        Fun.protect ~finally (fun () ->
            try
              let before = ref (Client.stats client) in
              let before_at = ref (Unix.gettimeofday ()) in
              while true do
                Unix.sleepf interval;
                let after = Client.stats client in
                let now = Unix.gettimeofday () in
                let r =
                  Orion_obs.Metrics.rates ~before:!before ~after
                    ~dt:(now -. !before_at)
                in
                Format.printf "-- %.1fs@.%a@." r.Orion_obs.Metrics.dt
                  Orion_obs.Metrics.pp_rates r;
                before := after;
                before_at := now
              done
            with
            | Client.Error (code, msg) ->
                Format.eprintf "error [%s]: %s@."
                  (Message.err_code_to_string code)
                  msg;
                exit 1
            | Client.Disconnected msg ->
                Format.eprintf "disconnected: %s@." msg;
                exit 1
            (* Reader went away (e.g. piped into head): stop sampling. *)
            | Sys_error _ -> ());
        (* The sampling loop only falls through when stdout died, and
           its channel buffer can never drain — skip the at-exit
           flushes (which would re-raise) and leave directly. *)
        Unix._exit 0
  in
  let run_file file =
    let env = load_env_from file in
    let db = Eval.database env in
    let schema = Orion_core.Database.schema db in
    let table =
      Orion_util.Table.create
        ~headers:[ "class"; "instances"; "composite attrs"; "segment" ]
    in
    List.iter
      (fun (c : Orion_schema.Class_def.t) ->
        let instances =
          Orion_core.Database.instances_of db ~subclasses:false c.name
        in
        let composite_attrs =
          List.filter Orion_schema.Attribute.is_composite
            (Orion_schema.Schema.effective_attributes schema c.name)
        in
        Orion_util.Table.add_row table
          [
            c.name;
            string_of_int (List.length instances);
            string_of_int (List.length composite_attrs);
            string_of_int c.segment;
          ])
      (Orion_schema.Schema.classes schema);
    print_string (Orion_util.Table.render table);
    let rref_total =
      Orion_core.Database.fold db ~init:0 ~f:(fun acc inst ->
          acc + List.length (Orion_core.Database.rrefs db inst.Orion_core.Instance.oid))
    in
    Printf.printf "objects: %d, composite references: %d, dangling weak refs: %d\n"
      (Orion_core.Database.count db)
      rref_total
      (List.length (Orion_core.Integrity.dangling_weak_refs db));
    match Orion_core.Integrity.check db with
    | [] -> print_endline "integrity: consistent"
    | violations ->
        Format.printf "integrity violations:@.%a@."
          (Format.pp_print_list Orion_core.Integrity.pp_violation)
          violations;
        exit 1
  in
  let run connect file watch =
    match (connect, file) with
    | Some addr, None -> run_connect addr watch
    | None, Some file ->
        if watch <> None then begin
          Format.eprintf "error: --watch needs --connect@.";
          exit 2
        end;
        run_file file
    | Some _, Some _ ->
        Format.eprintf "error: --connect and FILE are exclusive@.";
        exit 2
    | None, None ->
        Format.eprintf "error: need a FILE or --connect ADDR@.";
        exit 2
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Summarize a database file (.odb), the result of a program, or — \
          with $(b,--connect) — the live metrics of a running server, \
          optionally sampled as rates with $(b,--watch)")
    Term.(const run $ connect $ file $ watch)

let analyze_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Database file (.odb) or ORION program")
  in
  let connect =
    Arg.(
      value & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Fetch a live metrics snapshot from a running server and join \
             observed per-class lock contention ($(i,lock.blocks{class=C})) \
             into the fan-in hazard ranking.")
  in
  let sexp =
    Arg.(
      value & flag
      & info [ "sexp" ] ~doc:"Print findings as s-expressions (machine readable).")
  in
  let cascades =
    Arg.(
      value & opt int 6
      & info [ "cascades" ] ~docv:"N"
          ~doc:
            "Flag classes whose dependent delete-cascade closure spans at \
             least $(docv) classes.")
  in
  let fanin =
    Arg.(
      value & opt int 3
      & info [ "fanin" ] ~docv:"N"
          ~doc:
            "Flag classes referenced by composite attributes of at least \
             $(docv) distinct classes.")
  in
  let run file connect sexp cascades fanin =
    let env = load_env_from file in
    let schema = Orion_core.Database.schema (Eval.database env) in
    let snapshot =
      Option.map
        (fun addr ->
          let client = connect_client ~client_name:"orion-analyze" addr in
          let s = Client.stats client in
          Client.close client;
          s)
        connect
    in
    let findings =
      Schema_analysis.analyze ?snapshot ~cascade_threshold:cascades
        ~fanin_threshold:fanin schema
    in
    List.iter
      (fun f ->
        if sexp then print_endline (Schema_analysis.finding_to_sexp f)
        else Format.printf "%a@." Schema_analysis.pp_finding f)
      findings;
    (* Exit contract shared with fsck and lockdep-check: 2 on any
       error, 1 on warnings only, 0 clean.  Info findings (snapshot
       cross-checks) inform but do not fail. *)
    exit (Orion_analysis.Lockdep.exit_code findings)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static hazard analysis of a schema: composite cycles, \
          delete-cascade blast radius, clustering ambiguity, lock-granule \
          fan-in, dead and shadowed composite attributes.  Silent (exit 0) \
          on a clean schema; exits 2 on error findings, 1 on warnings.")
    Term.(const run $ file $ connect $ sexp $ cascades $ fanin)

let fsck_cmd =
  let db_pos =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"DB" ~doc:"Database file to verify (never modified).")
  in
  let wal_file =
    Arg.(
      value & opt (some file) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead log to verify alongside the store (default: \
             $(i,DB).wal when it exists).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Fail on warnings too (leaked records, an open trailing \
             checkpoint bracket), not just on corruption.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Before checking, truncate a torn WAL tail down to its longest \
             intact frame prefix (the damaged original is saved to \
             $(i,WAL).bak first).  The store file is still never modified; \
             an intact log is left byte-identical.")
  in
  let pages =
    Arg.(
      value & flag
      & info [ "pages" ]
          ~doc:
            "Also print the adler32 of every page image, computed from the \
             bytes on disk.  Two stores whose page digests agree hold \
             byte-identical page arrays — this is how the replication smoke \
             test compares a replica's checkpointed mirror against its \
             primary, ignoring the unreplicated allocator trailer.")
  in
  let run db_path wal_file strict repair pages =
    let wal =
      match wal_file with
      | Some _ -> wal_file
      | None ->
          let candidate = wal_path_of db_path in
          if Sys.file_exists candidate then Some candidate else None
    in
    (if repair then
       match wal with
       | None -> Format.printf "repair: no write-ahead log to repair@."
       | Some wal_path -> (
           match Store_check.repair_wal_tail wal_path with
           | Error msg ->
               Format.eprintf "error: repair failed: %s@." msg;
               exit 1
           | Ok (Store_check.Wal_intact { frames; bytes }) ->
               Format.printf "repair: %s intact (%d frames, %d bytes) — \
                              nothing to do@."
                 wal_path frames bytes
           | Ok
               (Store_check.Wal_repaired
                 { backup; valid_frames; valid_bytes; dropped_bytes }) ->
               Format.printf
                 "repair: dropped %d torn byte(s) from %s, keeping %d intact \
                  frames (%d bytes); original saved to %s@."
                 dropped_bytes wal_path valid_frames valid_bytes backup));
    (if pages then
       match Store_check.page_digests db_path with
       | Error msg ->
           Format.eprintf "error: %s@." msg;
           exit 1
       | Ok digests ->
           Array.iteri
             (fun i sum -> Format.printf "page %d adler32 %08x@." i sum)
             digests);
    let report = Store_check.check_file ?wal db_path in
    Format.printf "%a@." Store_check.pp_report report;
    (* Same 0/1/2 contract as analyze: 2 on corruption (error issues),
       1 on warnings (leaked records, open bracket) — promoted to 2
       under --strict, which also keeps its historical meaning for
       [failed]-style consumers. *)
    let errors, warnings =
      List.fold_left
        (fun (e, w) issue ->
          match Store_check.severity issue with
          | `Error -> (e + 1, w)
          | `Warning -> (e, w + 1))
        (0, 0) report.Store_check.issues
    in
    if errors > 0 || (strict && warnings > 0) then exit 2
    else if warnings > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Offline integrity check of a database file (and its write-ahead \
          log): page checksums, directory-vs-allocation agreement, WAL frame \
          chain and checkpoint brackets, and per-object reverse-reference \
          flags against the schema.  Read-only (the store always, the log \
          unless $(b,--repair)); exits 2 on corruption, 1 on warnings \
          (2 under $(b,--strict)), 0 clean.")
    Term.(const run $ db_pos $ wal_file $ strict $ repair $ pages)

let check_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Database file (.odb) or ORION program")
  in
  let scrub =
    Arg.(
      value & flag
      & info [ "scrub" ]
          ~doc:
            "Also report how many dangling weak references an offline scrub \
             would remove (a dry run — the file is not modified; the paper \
             treats such residue as legal, D3).")
  in
  let run file scrub =
    let env = load_env_from file in
    let db = Eval.database env in
    if scrub then
      Printf.printf "scrub would remove %d dangling weak reference(s)\n"
        (List.length (Orion_core.Integrity.dangling_weak_refs db));
    match Orion_core.Integrity.check db with
    | [] -> print_endline "integrity: consistent"
    | violations ->
        Format.printf "integrity violations:@.%a@."
          (Format.pp_print_list Orion_core.Integrity.pp_violation)
          violations;
        exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the live integrity checker over a database file or the result \
          of a program; $(b,--scrub) reports the dangling-weak-reference \
          residue an offline scavenger would collect.")
    Term.(const run $ file $ scrub)

(* --ddl-gate: vet every schema mutation with the static hazard analyzer
   (the `orion analyze` suite) at DDL time, while the schema holds the
   proposed state.  [strict] rolls the mutation back when the analyzer
   reports an error-severity finding; [warn] only narrates. *)
let ddl_gate_of_mode = function
  | `Off -> None
  | (`Warn | `Strict) as mode ->
      Some
        (fun schema ->
          let findings = Schema_analysis.analyze schema in
          let errors = Schema_analysis.errors findings in
          List.iter
            (fun f ->
              if mode = `Warn || f.Schema_analysis.severity <> Schema_analysis.Error
              then Format.eprintf "ddl-gate: %a@." Schema_analysis.pp_finding f)
            findings;
          if mode = `Strict && errors <> [] then
            raise
              (Schema.Error
                 (Schema.Ddl_rejected
                    (String.concat "; "
                       (List.map
                          (fun f ->
                            f.Schema_analysis.code ^ " on "
                            ^ f.Schema_analysis.cls ^ ": "
                            ^ f.Schema_analysis.detail)
                          errors)))))

let serve_cmd =
  let db_pos =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"DB"
          ~doc:
            "Database file served: loaded if it exists, saved (checkpointed) \
             on graceful shutdown.")
  in
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket.")
  in
  let port =
    Arg.(
      value & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on TCP 127.0.0.1:$(docv) (0 picks a free port).")
  in
  let max_sessions =
    Arg.(
      value & opt int Server.default_config.max_sessions
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Admission bound: refuse connections beyond $(docv) sessions.")
  in
  let lock_timeout =
    Arg.(
      value & opt float 30.
      & info [ "lock-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Abort a transaction parked on a lock longer than this \
             (0 disables the timeout).")
  in
  let metrics_interval =
    Arg.(
      value & opt float 0.
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:
            "Print a one-line metrics digest to stderr every $(docv) seconds \
             (0, the default, disables it).")
  in
  let slow_op_ms =
    Arg.(
      value & opt float 0.
      & info [ "slow-op-ms" ] ~docv:"MS"
          ~doc:
            "Log requests slower than $(docv) milliseconds to stderr, with a \
             per-phase breakdown (0, the default, disables it).")
  in
  let group_commit_window =
    Arg.(
      value & opt int 0
      & info [ "group-commit-window" ] ~docv:"US"
          ~doc:
            "Group-commit batching window in microseconds: every write \
             commit is made durable by the group committer, and commits \
             arriving within the window coalesce into one log append and one \
             fsync (0, the default, flushes as soon as the committer is free; \
             read-only commits never touch the log).  Requires $(b,--wal); \
             on a replica it takes effect at promotion.")
  in
  let repl_flag =
    Arg.(
      value & flag
      & info [ "repl" ]
          ~doc:
            "Act as a replication primary: retain the write-ahead log across \
             checkpoints (byte offsets stay valid as stream LSNs) and serve \
             $(b,repl-subscribe) streams to replicas.  Requires $(b,--db) and \
             implies $(b,--wal); the log file survives a graceful shutdown so \
             replicas can resume, and a crashed primary is replayed from it \
             on the next $(b,--repl) start.")
  in
  let replica_of =
    Arg.(
      value & opt (some string) None
      & info [ "replica-of" ] ~docv:"ADDR"
          ~doc:
            "Serve as a read-only replica of the primary at $(docv) \
             ($(i,host:port), $(i,:port), a bare port, or a socket path): \
             mirror its write-ahead log into $(i,DB).wal, apply it \
             continuously, answer reads, refuse writes with $(b,read-only) — \
             and stand by for $(b,orion promote).")
  in
  let ddl_gate =
    Arg.(
      value
      & opt (enum [ ("off", `Off); ("warn", `Warn); ("strict", `Strict) ]) `Off
      & info [ "ddl-gate" ] ~docv:"MODE"
          ~doc:
            "Vet every schema mutation with the static hazard analyzer (the \
             $(b,orion analyze) suite) at DDL time.  $(b,warn) prints the \
             findings to stderr; $(b,strict) additionally rolls the mutation \
             back and rejects it when an error-severity hazard (a composite \
             cycle) appears; $(b,off), the default, does nothing.  On a \
             replica the gate takes effect at promotion.")
  in
  let lockdep =
    Arg.(
      value & flag
      & info [ "lockdep" ]
          ~doc:
            "Enable the runtime lock-discipline checker: every internal \
             engine mutex acquisition feeds a per-thread held-set and a \
             may-precede graph over lock classes (see DESIGN.md \xc2\xa717), and \
             an ordering violation is reported with a two-site witness the \
             first time it is observed — the run does not have to deadlock.  \
             Findings go to stderr at exit and force a non-zero exit code; \
             live counts appear as $(i,lockdep.classes), $(i,lockdep.edges) \
             and $(i,lockdep.violations).  Equivalent to $(b,ORION_LOCKDEP=1).")
  in
  let lockdep_trace =
    Arg.(
      value & opt (some string) None
      & info [ "lockdep-trace" ] ~docv:"FILE"
          ~doc:
            "With the checker enabled, also append a replayable lock-event \
             trace to $(docv) — $(b,orion lockdep-check) $(docv) re-runs the \
             detectors offline.  Implies $(b,--lockdep).")
  in
  let run db_file wal socket port max_sessions lock_timeout metrics_interval
      slow_op_ms group_commit_window repl replica_of
      ddl_gate lockdep lockdep_trace =
    if lockdep || Option.is_some lockdep_trace then
      Orion_analysis.Lockdep.install ?trace:lockdep_trace ();
    let addr =
      match (socket, port) with
      | Some path, None -> Server.Unix_path path
      | None, Some port -> Server.Tcp ("127.0.0.1", port)
      | None, None -> Server.Tcp ("127.0.0.1", 6746)
      | Some _, Some _ ->
          Format.eprintf "error: --socket and --port are exclusive@.";
          exit 2
    in
    let config =
      {
        Server.default_config with
        max_sessions;
        lock_timeout = (if lock_timeout <= 0. then None else Some lock_timeout);
        metrics_interval =
          (if metrics_interval <= 0. then None else Some metrics_interval);
        group_commit_window = float_of_int group_commit_window /. 1_000_000.;
      }
    in
    if slow_op_ms > 0. then
      Orion_obs.Metrics.Span.set_slow_threshold (Some (slow_op_ms /. 1000.));
    let install_signals server =
      let stop _ = Server.stop server in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
    in
    let print_stats server =
      let st = Server.stats server in
      Format.printf
        "served %d sessions (%d refused), %d requests, %d lock waits, %d \
         deadlock victims, %d lock timeouts@."
        st.accepted st.rejected st.requests st.parks_total st.deadlock_victims
        st.lock_timeouts
    in
    match replica_of with
    | Some primary_string ->
        if repl then begin
          Format.eprintf "error: --repl and --replica-of are exclusive@.";
          exit 2
        end;
        if wal then begin
          Format.eprintf
            "error: --replica-of manages its own log (drop --wal)@.";
          exit 2
        end;
        let primary =
          try Orion_protocol.Addr.parse primary_string
          with Invalid_argument msg ->
            Format.eprintf "error: %s@." msg;
            exit 2
        in
        let db_path =
          match db_file with
          | Some p -> p
          | None ->
              Format.eprintf
                "error: --replica-of requires --db (the mirrored store and \
                 log live there)@.";
              exit 2
        in
        let wal_path = wal_path_of db_path in
        let log =
          if Sys.file_exists wal_path then Wal.load_file wal_path
          else Wal.create ()
        in
        Wal.set_backing log (Some wal_path);
        let replica = Replica.create ~primary ~wal:log ~db_path () in
        Format.printf "replica: syncing from %s...@." primary_string;
        let db =
          try Replica.bootstrap replica
          with Replica.Fatal msg ->
            Format.eprintf "error: %s@." msg;
            exit 1
        in
        Format.printf "replica: caught up through checkpoint %d (lsn %d)@."
          (Replica.checkpoints replica)
          (Replica.applied_lsn replica);
        let env = Eval.create_env ~db () in
        (* Belt and braces under the wire-level Read_only guard: evaluated
           forms and schema commands that slip past it are refused here. *)
        let read_only () =
          raise
            (Eval.Eval_error
               "read-only replica: write on the primary, or promote this node")
        in
        Eval.set_mutator env
          (Some
             {
               Eval.m_create = (fun ~cls:_ ~parents:_ ~attrs:_ -> read_only ());
               m_write_attr = (fun _ _ _ -> read_only ());
               m_make_component =
                 (fun ~parent:_ ~attr:_ ~child:_ -> read_only ());
               m_remove_component =
                 (fun ~parent:_ ~attr:_ ~child:_ -> read_only ());
               m_delete = (fun _ -> read_only ());
             });
        Schema.set_ddl_gate
          (Orion_core.Database.schema db)
          (Some
             (fun _ ->
               raise
                 (Schema.Error
                    (Schema.Ddl_rejected
                       "read-only replica: run DDL on the primary, or promote \
                        this node"))));
        let server =
          Server.create ~config
            ~repl:
              (Tx_service.Replica_of
                 { replica; promote_gate = ddl_gate_of_mode ddl_gate })
            env addr
        in
        Replica.set_locked replica (fun f ->
            Tx_service.with_lock (Server.service server) f);
        (* Snapshot reads on this replica resolve against the service's
           version store; the applier feeds it at each sealed commit's
           clock. *)
        Replica.set_mvcc replica
          (Orion_tx.Tx_manager.version_store
             (Server.service server).Tx_service.manager);
        Replica.start replica;
        install_signals server;
        Format.printf "orion replica of %s listening on %a@." primary_string
          Server.pp_addr (Server.address server);
        Server.run server;
        (match Server.role server with
        | `Primary ->
            (* Promoted while serving: shut down like a primary — full
               checkpoint of the serving database, log retained for the
               replicas that will now subscribe here. *)
            Replica.stop replica;
            close_env ~wal:false env (Some db_path)
        | `Replica | `Standalone ->
            Replica.stop replica;
            (match Replica.failed replica with
            | Some msg -> Format.eprintf "replica: stream had failed: %s@." msg
            | None -> ());
            Replica.save replica;
            Format.printf "replica state saved to %s@." db_path);
        print_stats server
    | None ->
        let env, log =
          if repl then begin
            match db_file with
            | None ->
                Format.eprintf "error: --repl requires --db@.";
                exit 2
            | Some path ->
                let wal_path = wal_path_of path in
                let env =
                  if Sys.file_exists wal_path then begin
                    (* A primary's log survives clean shutdowns (replicas
                       resume from its LSNs), so a leftover one is normal —
                       and replaying it over the snapshot also folds in any
                       commits a crash stranded past the last checkpoint. *)
                    let log = Wal.load_file wal_path in
                    let snapshot =
                      if Sys.file_exists path then
                        Some (Orion_storage.Store.load_file path)
                      else None
                    in
                    match Recovery.replay ?snapshot log with
                    | db, stats ->
                        Format.eprintf "repl: resumed log %s (%a)@." wal_path
                          Recovery.pp_stats stats;
                        Eval.create_env ~db ()
                    | exception Failure msg ->
                        Format.eprintf
                          "error: %s@.run `orion fsck --repair %s` to \
                           truncate a torn tail@."
                          msg path;
                        exit 1
                  end
                  else if Sys.file_exists path then
                    let store = Orion_storage.Store.load_file path in
                    Eval.create_env ~db:(Orion_core.Persist.load store) ()
                  else Eval.create_env ()
                in
                let log =
                  if Sys.file_exists wal_path then Wal.load_file wal_path
                  else Wal.create ()
                in
                Wal.attach ~snapshot_path:path ~truncate_on_checkpoint:false
                  log (Eval.database env);
                Wal.set_backing log (Some wal_path);
                Wal.sync log;
                (* Checkpoint at every start: recovery and late-joining
                   replicas both want a recent sealed bracket. *)
                Orion_core.Persist.save (Eval.database env);
                (env, Some log)
          end
          else open_env_log ~wal db_file
        in
        if group_commit_window > 0 && Option.is_none log then begin
          Format.eprintf "error: --group-commit-window requires --wal@.";
          exit 2
        end;
        Schema.set_ddl_gate
          (Orion_core.Database.schema (Eval.database env))
          (ddl_gate_of_mode ddl_gate);
        let repl_role =
          match (repl, log) with
          | true, Some log -> Some (Tx_service.Primary (Tailer.create log))
          | _ -> None
        in
        let server = Server.create ~config ?wal:log ?repl:repl_role env addr in
        install_signals server;
        Format.printf "orion %s listening on %a@."
          (if repl then "primary" else "server")
          Server.pp_addr (Server.address server);
        Server.run server;
        (* Graceful exit: checkpoint, and retire the log — unless this is
           a replication primary, whose log must keep its LSNs for the
           replicas.  A SIGKILL never reaches this line — that is what
           `orion recover` (or a --repl restart) is for. *)
        close_env ~wal:(wal && not repl) env db_file;
        print_stats server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a database to many clients over TCP or a Unix-domain socket, \
          optionally as a replication primary ($(b,--repl)) or read-only \
          replica ($(b,--replica-of))")
    Term.(
      const run $ db_pos $ wal_flag $ socket $ port $ max_sessions
      $ lock_timeout $ metrics_interval $ slow_op_ms
      $ group_commit_window $ repl_flag $ replica_of
      $ ddl_gate $ lockdep $ lockdep_trace)

let promote_cmd =
  let addr =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:
            "Replica address: $(i,host:port), $(i,:port), a bare port, or a \
             socket path.")
  in
  let run addr_string =
    let client = connect_client ~client_name:"orion-promote" addr_string in
    (match Client.promote client with
    | () -> Format.printf "promoted: %s now accepts writes@." addr_string
    | exception Client.Error (code, msg) ->
        Format.eprintf "error [%s]: %s@."
          (Message.err_code_to_string code)
          msg;
        (try Client.close client with _ -> ());
        exit 1
    | exception Client.Disconnected msg ->
        Format.eprintf "disconnected: %s@." msg;
        exit 1);
    Client.close client
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote a running read-only replica to a writable primary \
          (failover): its applier seals, the mirrored log attaches for \
          commit logging, and the node starts streaming to replicas of its \
          own.  The old primary must not take further writes.")
    Term.(const run $ addr)

let shell_cmd =
  let connect =
    Arg.(
      required & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Server address: $(i,host:port), $(i,:port), a bare port, or a \
             socket path.")
  in
  let snapshot_flag =
    Arg.(
      value & flag
      & info [ "snapshot" ]
          ~doc:
            "Open a lock-free read-only snapshot on connect.  Reads \
             ($(b,components-of), $(b,ancestors-of), $(b,attr)) answer as of \
             the snapshot's begin clock — concurrent writers are invisible \
             and no locks are taken.  Works against a read-only replica too \
             (snapshot at its applied clock).")
  in
  let run addr_string snapshot =
    let addr =
      try Orion_protocol.Addr.parse addr_string
      with Invalid_argument msg ->
        Format.eprintf "error: %s@." msg;
        exit 2
    in
    let client =
      try Client.connect ~client_name:"orion-shell" addr with
      | Client.Error (code, msg) ->
          Format.eprintf "error [%s]: %s@." (Message.err_code_to_string code) msg;
          exit 1
      | Unix.Unix_error (e, _, _) ->
          Format.eprintf "error: cannot connect to %s: %s@." addr_string
            (Unix.error_message e);
          exit 1
    in
    Format.printf "connected to %s (session %d); (quit) to leave@." addr_string
      (Client.session_id client);
    if snapshot then
      Format.printf "snapshot open at clock %d@." (Client.begin_snapshot client);
    let fmt = Format.std_formatter in
    let print_notices () =
      List.iter
        (fun push ->
          match push with
          | Message.Deadlock_victim { msg; _ } -> Format.fprintf fmt "! %s@." msg
          | Message.Goodbye { msg } -> Format.fprintf fmt "! server: %s@." msg
          (* Replication stream pushes never reach a plain session. *)
          | Message.Repl_frames _ | Message.Repl_heartbeat _ -> ())
        (Client.notices client)
    in
    (* Words of a one-level form: "(attr 12 name)" -> ["attr";"12";"name"].
       These route through the typed requests (not Eval) so they stay
       snapshot-scoped when the session has a snapshot open. *)
    let form_words trimmed =
      let n = String.length trimmed in
      if n >= 2 && trimmed.[0] = '(' && trimmed.[n - 1] = ')' then
        String.split_on_char ' ' (String.sub trimmed 1 (n - 2))
        |> List.filter (fun w -> w <> "")
      else []
    in
    (* One line regardless of length — scripts grep this. *)
    let print_oids oids =
      Format.fprintf fmt "(%s)@."
        (String.concat " " (List.map Orion_core.Oid.to_string oids))
    in
    let rec session () =
      Format.fprintf fmt "orion> %!";
      match read_form "" with
      | None -> Format.fprintf fmt "@."
      | Some "" -> session ()
      | Some src -> (
          match String.trim src with
          | "(quit)" | "(exit)" -> Format.fprintf fmt "bye@."
          | trimmed -> (
              (match
                 match trimmed with
                 | "(begin)" ->
                     Format.fprintf fmt "transaction %d@." (Client.begin_tx client)
                 | "(commit)" ->
                     Client.commit client;
                     Format.fprintf fmt "committed@."
                 | "(abort)" ->
                     Client.abort client;
                     Format.fprintf fmt "aborted@."
                 | "(ping)" ->
                     Client.ping client;
                     Format.fprintf fmt "pong@."
                 | "(snapshot)" ->
                     Format.fprintf fmt "snapshot open at clock %d@."
                       (Client.begin_snapshot client)
                 | "(end-snapshot)" ->
                     Client.end_snapshot client;
                     Format.fprintf fmt "snapshot closed@."
                 | _ -> (
                     match form_words trimmed with
                     | [ "components-of"; oid ] ->
                         print_oids
                           (Client.components_of client
                              (Orion_core.Oid.of_int (int_of_string oid)))
                     | [ "ancestors-of"; oid ] ->
                         print_oids
                           (Client.ancestors_of client
                              (Orion_core.Oid.of_int (int_of_string oid)))
                     | [ "attr"; oid; name ] ->
                         Format.fprintf fmt "%a@." Orion_core.Value.pp
                           (Client.read_attr client
                              (Orion_core.Oid.of_int (int_of_string oid))
                              name)
                     | _ ->
                         Format.fprintf fmt "%a@." Message.pp_v
                           (Client.eval client src))
               with
              | () -> print_notices ()
              | exception Client.Error (code, msg) ->
                  print_notices ();
                  Format.fprintf fmt "error [%s]: %s@."
                    (Message.err_code_to_string code)
                    msg
              | exception Failure msg ->
                  (* e.g. a non-numeric oid in a typed read form *)
                  Format.fprintf fmt "error: %s@." msg);
              session ()))
    and read_form acc =
      match input_line stdin with
      | exception End_of_file -> if String.trim acc = "" then None else Some acc
      | line ->
          let acc = if acc = "" then line else acc ^ "\n" ^ line in
          if Repl.balanced acc then Some acc
          else begin
            Format.fprintf fmt "  ...> %!";
            read_form acc
          end
    in
    (try session ()
     with Client.Disconnected msg -> Format.fprintf fmt "disconnected: %s@." msg);
    Client.close client
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:
         "Interactive session against a running server, plus (begin), \
          (commit), (abort) for transactions and (snapshot), \
          (end-snapshot), (components-of N), (ancestors-of N), (attr N a) \
          for lock-free snapshot reads")
    Term.(const run $ connect $ snapshot_flag)

let lockdep_check_cmd =
  let trace =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Lock-event trace recorded by $(b,orion serve --lockdep-trace) \
             $(docv) (or $(b,ORION_LOCKDEP_TRACE)).")
  in
  let hierarchy =
    Arg.(
      value & flag
      & info [ "hierarchy" ]
          ~doc:
            "Print the declared lock hierarchy as a markdown table (the \
             exact text DESIGN.md \xc2\xa717 embeds) and exit.")
  in
  let sexp =
    Arg.(
      value & flag
      & info [ "sexp" ] ~doc:"Print findings as s-expressions (machine readable).")
  in
  let run trace hierarchy sexp =
    if hierarchy then
      print_string (Orion_util.Omutex.hierarchy_markdown ())
    else
      match trace with
      | None ->
          Format.eprintf "error: a TRACE file is required (or --hierarchy)@.";
          exit 2
      | Some path ->
          let findings =
            try Orion_analysis.Lockdep.check_trace path
            with Failure msg ->
              Format.eprintf "error: %s@." msg;
              exit 2
          in
          List.iter
            (fun f ->
              if sexp then print_endline (Schema_analysis.finding_to_sexp f)
              else Format.printf "%a@." Schema_analysis.pp_finding f)
            findings;
          exit (Orion_analysis.Lockdep.exit_code findings)
  in
  Cmd.v
    (Cmd.info "lockdep-check"
       ~doc:
         "Replay a recorded lock-event trace through the lock-discipline \
          checker offline: rank inversions, lock-order inversions with \
          two-site witnesses, recursive locks, same-class nesting, \
          no-block classes held across blocking operations.  \
          Same exit contract as $(b,orion analyze): 2 on errors, 1 on \
          warnings, 0 clean.")
    Term.(const run $ trace $ hierarchy $ sexp)

let () =
  (* ORION_LOCKDEP=1 / ORION_LOCKDEP_TRACE work for every subcommand,
     not just serve's --lockdep flag. *)
  Orion_analysis.Lockdep.install_from_env ();
  let doc = "Composite objects a la ORION (Kim, Bertino & Garza, SIGMOD 1989)" in
  let info = Cmd.info "orion" ~version:"1.13.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            repl_cmd;
            experiments_cmd;
            demo_cmd;
            run_cmd;
            dump_cmd;
            stats_cmd;
            analyze_cmd;
            fsck_cmd;
            check_cmd;
            recover_cmd;
            serve_cmd;
            promote_cmd;
            shell_cmd;
            lockdep_check_cmd;
          ]))
