(* Child processes, procfs readings and scratch directories.

   Servers are started with [Unix.create_process]: [Unix.fork] is
   refused once a domain exists, and dkbench runs a writer domain.
   Every child is registered until reaped, and [cleanup] (installed
   with [at_exit]) kills and waits for whatever is left, so no run
   leaves a server behind even when a check fails. *)

type server = {
  pid : int;
  out : Unix.file_descr;  (* read end of the child's stdout+stderr *)
  log : Buffer.t;
  spawned_ns : int;
  mutable reaped : bool;
}

let live : server list ref = ref []

let forget s = live := List.filter (fun x -> x.pid <> s.pid) !live

let spawn exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let spawned_ns = Clock.now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null w w)
  in
  let s = { pid; out = r; log = Buffer.create 256; spawned_ns; reaped = false } in
  live := s :: !live;
  s

(* Read whatever output is available within [timeout] seconds. *)
let pump s timeout =
  match Unix.select [ s.out ] [] [] timeout with
  | [], _, _ -> false
  | _ ->
    let b = Bytes.create 4096 in
    let n = try Unix.read s.out b 0 4096 with Unix.Unix_error _ -> 0 in
    Buffer.add_subbytes s.log b 0 n;
    n > 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* The text after the first occurrence of [pat] in [s]. *)
let after s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (String.sub s (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

(* "... listening on HOST:PORT (pid N)" *)
let listening_port log =
  match after (Buffer.contents log) "listening on " with
  | None -> None
  | Some rest -> (
    match String.index_opt rest ' ' with
    | None -> None
    | Some sp -> (
      let addr = String.sub rest 0 sp in
      match String.rindex_opt addr ':' with
      | None -> None
      | Some c -> int_of_string_opt (String.sub addr (c + 1) (String.length addr - c - 1))))

(* Collect the exit status (unless [waited] already did), drain the
   pipe so a late print never blocks or SIGPIPEs the child, close it.
   Idempotent. *)
let finish s ~waited =
  if not s.reaped then (
    let rec wait () =
      match Unix.waitpid [] s.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    if not waited then wait ();
    s.reaped <- true;
    while pump s 0.0 do () done;
    (try Unix.close s.out with Unix.Unix_error _ -> ());
    forget s)

let reap s = finish s ~waited:false

let exited s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ ->
    finish s ~waited:true;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Block until the server prints its [listening] line; returns the
   port and the seconds from spawn to that line. *)
let wait_listening ?(timeout = 120.0) s =
  let deadline = Clock.now_s () +. timeout in
  let rec go () =
    match listening_port s.log with
    | Some port -> (port, float_of_int (Clock.now_ns () - s.spawned_ns) *. 1e-9)
    | None ->
      let left = deadline -. Clock.now_s () in
      if left <= 0.0 then failwith ("server did not start listening: " ^ Buffer.contents s.log);
      if (not (pump s (Float.min left 0.5))) && exited s then
        failwith ("server exited before listening: " ^ Buffer.contents s.log);
      go ()
  in
  go ()

let signal s sg = if not s.reaped then try Unix.kill s.pid sg with Unix.Unix_error _ -> ()

let kill9 s =
  signal s Sys.sigkill;
  reap s

(* SIGTERM starts the server's graceful drain; escalate to SIGKILL if
   it has not exited within [grace] seconds. *)
let terminate ?(grace = 30.0) s =
  signal s Sys.sigterm;
  let deadline = Clock.now_s () +. grace in
  let rec go () =
    if not (pump s 0.05) then Unix.sleepf 0.005;
    if not (exited s) then if Clock.now_s () < deadline then go () else kill9 s
  in
  if not s.reaped then go ()

let cleanup () = List.iter kill9 !live

(* ------------------------------------------------------------------ *)
(* procfs *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Some text
  | exception Sys_error _ -> None

(* Integer field "key: value" of a procfs file. *)
let proc_field path key =
  match read_file path with
  | None -> None
  | Some text ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key ->
          Scanf.sscanf_opt (String.sub line (i + 1) (String.length line - i - 1)) " %d" Fun.id
        | _ -> None)
      (String.split_on_char '\n' text)

let peak_rss_mib s =
  match proc_field (Printf.sprintf "/proc/%d/status" s.pid) "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "VmHWM unavailable"

(* Bytes the server caused to be sent to storage, net of truncations. *)
let storage_bytes s =
  let f k = proc_field (Printf.sprintf "/proc/%d/io" s.pid) k in
  match (f "write_bytes", f "cancelled_write_bytes") with
  | Some w, Some c -> Some (w - c)
  | _ -> None

let loadavg1 () =
  match read_file "/proc/loadavg" with
  | Some l -> ( try Scanf.sscanf l "%f" Fun.id with _ -> 0.0)
  | None -> 0.0

let nproc () =
  match read_file "/proc/cpuinfo" with
  | Some text ->
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         (String.split_on_char '\n' text))
  | None -> Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* scratch directories *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then (
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let fresh_dir path =
  rm_rf path;
  mkdir_p path;
  path

(* Copy the regular files of [src] (a server data directory) into a
   fresh [dst]. *)
let copy_dir src dst =
  ignore (fresh_dir dst);
  Array.iter
    (fun f ->
      let from = Filename.concat src f in
      if not (Sys.is_directory from) then
        let data = In_channel.with_open_bin from In_channel.input_all in
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> Out_channel.output_string oc data))
    (Sys.readdir src)
