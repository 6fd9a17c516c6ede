(* Primary/replica replication: WAL shipping, catch-up, failover.

   The primary side is a [hub]: one sender thread per subscribed
   replica, each tailing the WAL files of the primary's data directory
   directly (never the in-memory log — only complete records are
   claimed by [Checkpoint.wal_position], so a tailer cannot ship a
   torn record of its own making).  A subscriber that asks for a
   position the primary no longer has (pruned generation) is
   bootstrapped with the newest checkpoint snapshot and streamed from
   that generation on.

   The replica side is a tailer loop in its own thread: connect,
   Hello, subscribe from the last applied position (or -1 for a
   snapshot bootstrap), read frames up to [Wire.max_replication_frame]
   (one snapshot frame is a whole checkpoint), reassemble WAL records
   from the chunk stream, and hand them to the server's event loop as
   [event]s.  The loop owns liveness: any byte from the primary
   refreshes [last_contact]; when the failover timeout elapses with no
   contact, an [Ev_promote] event is pushed (if auto-promotion is
   enabled) and the loop performs the epoch bump. *)

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Epoch persistence: a tiny "epoch" file in the data directory,
   written atomically.  A promoted replica must remember its epoch
   across restarts or a deposed primary could win fencing again. *)

let load_epoch ~dir =
  match open_in_bin (Filename.concat dir "epoch") with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match int_of_string_opt (String.trim (input_line ic)) with
        | Some e when e >= 0 -> e
        | _ -> 0
        | exception End_of_file -> 0)

let store_epoch ~dir e =
  let s = string_of_int e ^ "\n" in
  Checkpoint.write_atomic dir "epoch" (Bytes.unsafe_of_string s) 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Shared plumbing *)

let file_size path = match Unix.stat path with s -> s.Unix.st_size | exception Unix.Unix_error _ -> -1

(* ------------------------------------------------------------------ *)
(* Hub: the primary side *)

type sub = {
  sub_id : int;
  sfd : Unix.file_descr;
  sfaults : Faults.t option;
  pos_seq : int Atomic.t;  (* generation currently being shipped *)
  pos_off : int Atomic.t;  (* complete bytes shipped within it *)
  alive : bool Atomic.t;
  boots : int Atomic.t;  (* snapshot bootstraps sent *)
}

type hub = {
  dur : Checkpoint.t;
  hepoch : int Atomic.t;  (* the server's epoch, shared *)
  heartbeat_s : float;
  faults_for : int -> Faults.t option;
  mutable subs : sub list;
  mutable senders : Thread.t list;
  hstop : bool Atomic.t;
}

let chunk_bytes = 256 * 1024

let create_hub ?(faults_for = fun _ -> None) ?(heartbeat_s = 0.25) ~epoch dur =
  {
    dur;
    hepoch = epoch;
    heartbeat_s;
    faults_for;
    subs = [];
    senders = [];
    hstop = Atomic.make false;
  }

let send_frame sub resp =
  let buf = Obuf.create 512 in
  Wire.encode_response buf ~id:0 resp;
  Faults.write_all sub.sfaults sub.sfd (Obuf.base buf) 0 (Obuf.length buf)

(* Stream one subscriber.  Returns when the hub stops or the socket
   (or an injected fault) kills the connection. *)
let sender_loop hub sub start_seq start_off () =
  let dir = Checkpoint.dir hub.dur in
  let gen_fd : Unix.file_descr option ref = ref None in
  let close_gen () =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !gen_fd;
    gen_fd := None
  in
  let open_gen seq off =
    close_gen ();
    let fd = Unix.openfile (Checkpoint.wal_file ~dir ~seq) [ O_RDONLY ] 0 in
    if off > 0 then ignore (Unix.lseek fd off SEEK_SET);
    gen_fd := Some fd
  in
  let epoch () = Atomic.get hub.hepoch in
  (* Snapshot bootstrap: ship the newest checkpoint file that checks and
     restart the stream at its generation. *)
  let bootstrap () =
    close_gen ();
    match Checkpoint.newest_checkpoint ~dir with
    | None ->
      send_frame sub
        (Wire.Error_reply { code = `App; message = "primary has no loadable checkpoint" });
      raise Exit
    | Some (seq, checkpoint) ->
      send_frame sub (Wire.Rep_snapshot { epoch = epoch (); seq; checkpoint });
      Atomic.incr sub.boots;
      Atomic.set sub.pos_seq seq;
      Atomic.set sub.pos_off 0;
      open_gen seq 0
  in
  let chunk = Bytes.create chunk_bytes in
  let last_hb = ref 0.0 in
  (* Heartbeats advertise the position this sender has *shipped
     through* — never the live [Checkpoint.wal_position], which may be
     ahead of records still unsent.  Frames are delivered in order, so
     by the time a replica hears of a position, every record before it
     has already arrived: a heartbeat is a stream barrier, and the
     replica's bytes_behind can trust it. *)
  let heartbeat ~force =
    let t = now () in
    if force || t -. !last_hb >= hub.heartbeat_s then begin
      last_hb := t;
      let seq = Atomic.get sub.pos_seq and off = Atomic.get sub.pos_off in
      send_frame sub (Wire.Rep_heartbeat { epoch = epoch (); seq; offset = off })
    end
  in
  (try
     (* Resolve the starting position: an unknown (-1) or implausible
        position, or one whose WAL file is already pruned, becomes a
        snapshot bootstrap. *)
     let cur_seq, cur_off = Checkpoint.wal_position hub.dur in
     let plausible =
       start_seq >= 0
       && (start_seq < cur_seq || (start_seq = cur_seq && start_off <= cur_off))
       &&
       let sz = file_size (Checkpoint.wal_file ~dir ~seq:start_seq) in
       sz >= 0 && (start_seq = cur_seq || start_off <= sz)
     in
     if plausible then begin
       Atomic.set sub.pos_seq start_seq;
       Atomic.set sub.pos_off start_off;
       try open_gen start_seq start_off with Unix.Unix_error _ -> bootstrap ()
     end
     else bootstrap ();
     heartbeat ~force:true;
     while not (Atomic.get hub.hstop) do
       let seq = Atomic.get sub.pos_seq and off = Atomic.get sub.pos_off in
       let cur_seq, cur_off = Checkpoint.wal_position hub.dur in
       (* How many complete-record bytes may we ship from [seq]?  The
          live generation is bounded by the atomic byte counter; a
          retired one by its final size on disk. *)
       let limit =
         if seq = cur_seq then cur_off
         else if seq < cur_seq then file_size (Checkpoint.wal_file ~dir ~seq)
         else 0
       in
       if limit >= 0 && off < limit then begin
         let want = min chunk_bytes (limit - off) in
         let got = match !gen_fd with Some fd -> Unix.read fd chunk 0 want | None -> 0 in
         if got > 0 then begin
           send_frame sub
             (Wire.Rep_records
                {
                  epoch = epoch ();
                  seq;
                  offset = off + got;
                  data = Bytes.sub_string chunk 0 got;
                });
           Atomic.set sub.pos_off (off + got)
         end
         else bootstrap () (* file shrank under us: racing the pruner *)
       end
       else if limit < 0 then bootstrap () (* generation pruned away *)
       else if seq < cur_seq then begin
         (* Retired generation fully shipped: advance. *)
         Atomic.set sub.pos_seq (seq + 1);
         Atomic.set sub.pos_off 0;
         try open_gen (seq + 1) 0 with Unix.Unix_error _ -> bootstrap ()
       end
       else begin
         heartbeat ~force:false;
         Unix.sleepf 0.002
       end
     done
   with Exit | Unix.Unix_error _ | Sys_error _ -> ());
  close_gen ();
  Atomic.set sub.alive false;
  (try Unix.close sub.sfd with Unix.Unix_error _ -> ())

let attach hub ~fd ~replica_id ~seq ~offset =
  let sub =
    {
      sub_id = replica_id;
      sfd = fd;
      sfaults = hub.faults_for replica_id;
      pos_seq = Atomic.make (max seq 0);
      pos_off = Atomic.make (max offset 0);
      alive = Atomic.make true;
      boots = Atomic.make 0;
    }
  in
  (* A reconnecting replica reuses its id: retire the dead entry. *)
  hub.subs <- sub :: List.filter (fun s -> s.sub_id <> replica_id || Atomic.get s.alive) hub.subs;
  hub.senders <- Thread.create (sender_loop hub sub seq offset) () :: hub.senders

let sub_lag hub sub =
  if not (Atomic.get sub.alive) then 0
  else begin
    let dir = Checkpoint.dir hub.dur in
    let cur_seq, cur_off = Checkpoint.wal_position hub.dur in
    let seq = Atomic.get sub.pos_seq and off = Atomic.get sub.pos_off in
    if seq >= cur_seq then max 0 (cur_off - off)
    else begin
      let lag = ref (cur_off - 0) in
      (match file_size (Checkpoint.wal_file ~dir ~seq) with
      | -1 -> ()
      | sz -> lag := !lag + max 0 (sz - off));
      for s = seq + 1 to cur_seq - 1 do
        match file_size (Checkpoint.wal_file ~dir ~seq:s) with
        | -1 -> ()
        | sz -> lag := !lag + sz
      done;
      !lag
    end
  end

let hub_stats hub =
  let live = List.filter (fun s -> Atomic.get s.alive) hub.subs in
  ("replicas_connected", string_of_int (List.length live))
  :: List.concat_map
       (fun s ->
         let p = Printf.sprintf "replica.%d." s.sub_id in
         [
           (p ^ "epoch", string_of_int (Atomic.get hub.hepoch));
           (p ^ "wal_seq", string_of_int (Atomic.get s.pos_seq));
           (p ^ "wal_offset", string_of_int (Atomic.get s.pos_off));
           (p ^ "bytes_behind", string_of_int (sub_lag hub s));
           (p ^ "bootstraps", string_of_int (Atomic.get s.boots));
         ])
       live

let stop_hub hub =
  Atomic.set hub.hstop true;
  let senders = hub.senders in
  hub.senders <- [];
  (* Close the sockets too: a sender blocked in write wakes with EPIPE/EBADF. *)
  List.iter (fun s -> try Unix.shutdown s.sfd SHUTDOWN_ALL with Unix.Unix_error _ -> ()) hub.subs;
  List.iter Thread.join senders

(* ------------------------------------------------------------------ *)
(* Replica: the tailer side *)

type rconfig = {
  primary_host : string;
  primary_port : int;
  replica_id : int;
  auto_promote : bool;
  failover_timeout_s : float;
  staleness_bound_s : float;
}

let default_rconfig ~host ~port ~replica_id =
  {
    primary_host = host;
    primary_port = port;
    replica_id;
    auto_promote = false;
    failover_timeout_s = 3.0;
    staleness_bound_s = 10.0;
  }

type event =
  | Ev_snapshot of { checkpoint : string; epoch : int; seq : int }
  | Ev_mutations of { muts : Wal.mutation list; epoch : int; seq : int; base : int; offset : int }
  | Ev_promote

type replica = {
  rcfg : rconfig;
  repoch : int Atomic.t;  (* the server's epoch, shared *)
  rmax_seen : int Atomic.t;  (* highest epoch observed anywhere, shared *)
  last_contact : float Atomic.t;
  primary_seq : int Atomic.t;
  primary_off : int Atomic.t;
  applied_seq : int Atomic.t;
  applied_off : int Atomic.t;
  (* Last position the tailer pushed to the apply queue: everything up
     to here was *received*; anything past [applied_*] is queued. *)
  recv_seq : int Atomic.t;
  recv_off : int Atomic.t;
  synced_epoch : int Atomic.t;  (* epoch lineage [applied_*] belongs to; -1 = none *)
  connected : bool Atomic.t;
  promoted : bool Atomic.t;
  rstop : bool Atomic.t;
  snapshots_installed : int Atomic.t;
  snapshot_install_ms : float Atomic.t;
  records_applied : int Atomic.t;
  reconnects : int Atomic.t;
  (* Anti-entropy escape hatch: drop the stream and re-subscribe with
     seq = -1, forcing a snapshot bootstrap. *)
  resync : bool Atomic.t;
  mutable rthread : Thread.t option;
}

let create_replica rcfg ~epoch ~max_seen =
  {
    rcfg;
    repoch = epoch;
    rmax_seen = max_seen;
    last_contact = Atomic.make 0.0;
    primary_seq = Atomic.make (-1);
    primary_off = Atomic.make 0;
    applied_seq = Atomic.make (-1);
    applied_off = Atomic.make 0;
    recv_seq = Atomic.make (-1);
    recv_off = Atomic.make 0;
    synced_epoch = Atomic.make (-1);
    connected = Atomic.make false;
    promoted = Atomic.make false;
    rstop = Atomic.make false;
    snapshots_installed = Atomic.make 0;
    snapshot_install_ms = Atomic.make 0.0;
    records_applied = Atomic.make 0;
    reconnects = Atomic.make 0;
    resync = Atomic.make false;
    rthread = None;
  }

let rconfig_of r = r.rcfg
let force_resync r = Atomic.set r.resync true
let mark_promoted r = Atomic.set r.promoted true
let is_promoted r = Atomic.get r.promoted

let applied_position r = (Atomic.get r.applied_seq, Atomic.get r.applied_off)

let note_applied r ~seq ~offset ~n =
  Atomic.set r.applied_seq seq;
  Atomic.set r.applied_off offset;
  if n > 0 then Atomic.set r.records_applied (Atomic.get r.records_applied + n)

let note_installed r ~epoch ~seq ~ms =
  Atomic.incr r.snapshots_installed;
  Atomic.set r.snapshot_install_ms ms;
  Atomic.set r.synced_epoch epoch;
  Atomic.set r.applied_seq seq;
  Atomic.set r.applied_off 0

(* Reads on a replica are refused until this process has installed a
   snapshot (before that it serves a placeholder or an index recovered
   from its own directory, neither checked against the primary), and
   once it has heard nothing from its primary for longer than the
   staleness bound. *)
let stale r =
  (not (Atomic.get r.promoted))
  && (Atomic.get r.snapshots_installed = 0
     || r.rcfg.staleness_bound_s > 0.0
        && now () -. Atomic.get r.last_contact > r.rcfg.staleness_bound_s)

(* The quantity the staleness bound is keyed on, exported so reads can
   be stamped with the data age they were answered at.  [None] before
   the first contact; a promoted replica serves its own (fresh) data. *)
let contact_age_s r =
  if Atomic.get r.promoted then Some 0.0
  else
    let lc = Atomic.get r.last_contact in
    if lc = 0.0 then None else Some (now () -. lc)

exception Watchdog
exception Disconnected of string

let watchdog_expired r =
  let lc = Atomic.get r.last_contact in
  r.rcfg.failover_timeout_s > 0.0 && lc > 0.0
  && now () -. lc > r.rcfg.failover_timeout_s

(* [Unix.read] semantics + liveness accounting: every byte from the
   primary refreshes [last_contact]; with no bytes, the failover
   watchdog fires. *)
let watchdog_read r fd b off len =
  let rec go () =
    if Atomic.get r.rstop || Atomic.get r.promoted then raise (Disconnected "stopping");
    if Atomic.get r.resync then raise (Disconnected "resync requested");
    if watchdog_expired r then raise Watchdog;
    match Unix.select [ fd ] [] [] 0.05 with
    | [], _, _ -> go ()
    | _ -> (
      match Unix.read fd b off len with
      | 0 -> 0
      | n ->
        Atomic.set r.last_contact (now ());
        n
      | exception Unix.Unix_error (EINTR, _, _) -> go ())
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

let read_response r fd =
  match Wire.read_frame ~max_frame:Wire.max_replication_frame ~read:(watchdog_read r fd) () with
  | `Eof -> raise (Disconnected "eof")
  | `Oversized n -> raise (Disconnected (Printf.sprintf "oversized frame (%d bytes)" n))
  | exception Failure msg -> raise (Disconnected msg)
  | exception Unix.Unix_error (e, _, _) -> raise (Disconnected (Unix.error_message e))
  | `Frame payload -> (
    match Wire.decode_response payload with
    | Ok d -> d.Wire.msg
    | Error msg -> raise (Disconnected ("bad frame: " ^ msg)))

let send_request fd req =
  let buf = Obuf.create 64 in
  Wire.encode_request buf ~id:0 req;
  Faults.write_all None fd (Obuf.base buf) 0 (Obuf.length buf)

(* One session against the primary: Hello, subscribe, stream.  A
   requested resync is taken before the Hello: [watchdog_read] ends any
   session while the flag is set, this one's own Hello included.  If
   the Hello fails, the request is put back for the next session. *)
let session r push fd =
  let resync = Atomic.exchange r.resync false in
  (try
     send_request fd (Wire.Hello { version = Wire.version; epoch = Atomic.get r.rmax_seen });
     match read_response r fd with
     | Wire.Hello_reply { version; epoch; role = _ } ->
       if version <> Wire.version then
         raise (Disconnected (Printf.sprintf "protocol version mismatch: primary %d, us %d" version Wire.version));
       if epoch > Atomic.get r.rmax_seen then Atomic.set r.rmax_seen epoch;
       if epoch < Atomic.get r.repoch then raise (Disconnected "primary has an older epoch than us")
     | Wire.Error_reply { code = `Version; message } -> raise (Disconnected ("version refused: " ^ message))
     | _ -> raise (Disconnected "expected hello_reply")
   with e ->
     if resync then Atomic.set r.resync true;
     raise e);
  let sub_seq, sub_off =
    (* A position is only meaningful within the lineage it was applied
       under; anything else (cold start, new primary) bootstraps.  A
       requested resync bootstraps unconditionally. *)
    if resync then (-1, 0)
    else if Atomic.get r.synced_epoch = Atomic.get r.rmax_seen && Atomic.get r.applied_seq >= 0 then
      (Atomic.get r.applied_seq, Atomic.get r.applied_off)
    else (-1, 0)
  in
  send_request fd
    (Wire.Rep_subscribe
       {
         replica_id = r.rcfg.replica_id;
         epoch = Atomic.get r.repoch;
         seq = sub_seq;
         offset = sub_off;
       });
  Atomic.set r.connected true;
  (* Chunk reassembly: [pending] holds bytes from [cur_gen] starting
     at in-generation offset [base]; complete records peel off the
     front through Wal.replay_string (the same canonical decoder WAL
     recovery uses). *)
  let pending = ref "" in
  let cur_gen = ref (-1) in
  let base = ref 0 in
  let reset_at gen off =
    pending := "";
    cur_gen := gen;
    base := off
  in
  while true do
    match read_response r fd with
    | Wire.Rep_heartbeat { epoch; seq; offset } ->
      if epoch > Atomic.get r.rmax_seen then Atomic.set r.rmax_seen epoch;
      Atomic.set r.primary_seq seq;
      Atomic.set r.primary_off offset
    | Wire.Rep_snapshot { epoch; seq; checkpoint } ->
      if epoch > Atomic.get r.rmax_seen then Atomic.set r.rmax_seen epoch;
      reset_at seq 0;
      Atomic.set r.recv_seq seq;
      Atomic.set r.recv_off 0;
      push (Ev_snapshot { checkpoint; epoch; seq })
    | Wire.Rep_records { epoch; seq; offset; data } ->
      if epoch > Atomic.get r.rmax_seen then Atomic.set r.rmax_seen epoch;
      (* Advance the known primary position from record frames too, not
         just heartbeats: [bytes_behind] must count received-but-unapplied
         bytes, else a stale heartbeat position that matches the applied
         position reports "caught up" while records are still in flight. *)
      if
        seq > Atomic.get r.primary_seq
        || (seq = Atomic.get r.primary_seq && offset > Atomic.get r.primary_off)
      then begin
        Atomic.set r.primary_seq seq;
        Atomic.set r.primary_off offset
      end;
      let start = offset - String.length data in
      if seq <> !cur_gen || start <> !base + String.length !pending then reset_at seq start;
      pending := !pending ^ data;
      let rp = Wal.replay_string !pending in
      if rp.Wal.mutations <> [] then begin
        push
          (Ev_mutations
             {
               muts = rp.Wal.mutations;
               epoch;
               seq;
               base = !base;
               offset = !base + rp.Wal.valid_bytes;
             });
        pending := String.sub !pending rp.Wal.valid_bytes (String.length !pending - rp.Wal.valid_bytes);
        base := !base + rp.Wal.valid_bytes;
        if
          seq > Atomic.get r.recv_seq
          || (seq = Atomic.get r.recv_seq && !base > Atomic.get r.recv_off)
        then begin
          Atomic.set r.recv_seq seq;
          Atomic.set r.recv_off !base
        end
      end
    | Wire.Fenced { epoch } ->
      if epoch > Atomic.get r.rmax_seen then Atomic.set r.rmax_seen epoch;
      raise (Disconnected "primary is fenced")
    | Wire.Not_primary _ -> raise (Disconnected "peer is not a primary")
    | Wire.Error_reply { message; _ } -> raise (Disconnected ("primary refused: " ^ message))
    | _ -> ()
  done

let dial r =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string r.rcfg.primary_host, r.rcfg.primary_port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
  fd

let replica_loop r push () =
  let promote_requested = ref false in
  let maybe_auto_promote () =
    if
      r.rcfg.auto_promote && (not !promote_requested) && (not (Atomic.get r.rstop))
      && watchdog_expired r
    then begin
      promote_requested := true;
      push Ev_promote
    end
  in
  let backoff = ref 0.02 in
  while not (Atomic.get r.rstop || Atomic.get r.promoted) do
    (match dial r with
    | exception Unix.Unix_error _ -> ()
    | fd ->
      (try session r push fd
       with Watchdog | Disconnected _ | Unix.Unix_error _ -> ());
      Atomic.set r.connected false;
      Atomic.incr r.reconnects;
      (try Unix.close fd with Unix.Unix_error _ -> ()));
    maybe_auto_promote ();
    if not (Atomic.get r.rstop || Atomic.get r.promoted) then begin
      Unix.sleepf !backoff;
      backoff := min 0.5 (!backoff *. 2.0)
    end
  done;
  Atomic.set r.connected false

let start_replica r ~push = r.rthread <- Some (Thread.create (replica_loop r push) ())

let stop_replica r =
  Atomic.set r.rstop true;
  (match r.rthread with
  | Some th ->
    Thread.join th;
    r.rthread <- None
  | None -> ())

(* How far behind this replica believes it is, in WAL bytes.  Two
   lower bounds, take the larger:

   - the heartbeat-known primary position vs the applied position —
     cross-generation gaps degrade to the current generation's bytes
     (old generations' lengths are unknown here), so a primary that
     merely rotated to an empty new generation reads as caught up;
   - the tailer's received position vs the applied position — bytes
     the tailer already pushed to the apply queue are *definitely*
     pending, whatever the (possibly stale) heartbeats say.  This is
     what makes "bytes_behind = 0" safe to use as a caught-up signal:
     a fast stats path cannot observe 0 while received records sit
     unapplied. *)
let bytes_behind r =
  let aseq = Atomic.get r.applied_seq and aoff = Atomic.get r.applied_off in
  let known =
    let pseq = Atomic.get r.primary_seq and poff = Atomic.get r.primary_off in
    if pseq < 0 || aseq > pseq then 0
    else if aseq = pseq then max 0 (poff - aoff)
    else max 0 poff
  in
  let received =
    let rseq = Atomic.get r.recv_seq and roff = Atomic.get r.recv_off in
    if rseq < 0 || aseq > rseq then 0
    else if aseq = rseq then max 0 (roff - aoff)
    else max 1 roff
  in
  max known received

let replica_stats r =
  let b v = if v then "true" else "false" in
  let lc = Atomic.get r.last_contact in
  [
    ("replication_connected", b (Atomic.get r.connected));
    ("replication_synced_epoch", string_of_int (Atomic.get r.synced_epoch));
    ("replication_applied_seq", string_of_int (Atomic.get r.applied_seq));
    ("replication_applied_offset", string_of_int (Atomic.get r.applied_off));
    ("replication_primary_seq", string_of_int (Atomic.get r.primary_seq));
    ("replication_primary_offset", string_of_int (Atomic.get r.primary_off));
    ("replication_bytes_behind", string_of_int (bytes_behind r));
    ("replication_records_applied", string_of_int (Atomic.get r.records_applied));
    ("replication_snapshots_installed", string_of_int (Atomic.get r.snapshots_installed));
    ("replication_snapshot_install_ms", Printf.sprintf "%.3f" (Atomic.get r.snapshot_install_ms));
    ("replication_reconnects", string_of_int (Atomic.get r.reconnects));
    ( "replication_contact_age_s",
      if lc = 0.0 then "inf" else Printf.sprintf "%.3f" (now () -. lc) );
    ("replication_stale", b (stale r));
  ]
