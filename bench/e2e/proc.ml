(* Child processes (the server, `orion recover`, `orion fsck`) and the
   /proc readings taken on them.  Every child is tracked until reaped,
   and [at_exit] kills and reaps whatever is still running, so the
   benchmark never leaves a process behind. *)

let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  in
  let status = go () in
  live := List.filter (( <> ) pid) !live;
  status

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid : Unix.process_status)

let () = at_exit (fun () -> List.iter kill !live)

(* Start [prog args] with stdin from /dev/null and stdout+stderr
   appended to [log]. *)
let spawn ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null out out)
  in
  live := pid :: !live;
  pid

(* Run to completion; the exit code and the wall time it took. *)
let run ~log prog args =
  let t0 = Unix.gettimeofday () in
  let pid = spawn ~log prog args in
  let code =
    match reap pid with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 128
  in
  (code, Unix.gettimeofday () -. t0)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      live := List.filter (( <> ) pid) !live;
      true

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report a length of 0: read them in chunks. *)
let read_proc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* User + system CPU seconds of [pid], from fields 14 and 15 of
   /proc/PID/stat (in USER_HZ ticks, 100 per second on Linux). *)
let cpu_seconds pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let after_comm = String.rindex stat ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub stat after_comm (String.length stat - after_comm))
  in
  (* [fields] starts at field 3 (state). *)
  let tick i = float_of_string (List.nth fields (i - 3)) in
  (tick 14 +. tick 15) /. 100.

(* Peak resident set of [pid] (VmHWM), in MB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let file_size path = (Unix.stat path).Unix.st_size

let copy_file src dst =
  let data = read_file src in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* An empty directory at [path], replacing whatever was there. *)
let fresh_dir path =
  remove_tree path;
  mkdir_p path
