module Prng = Dkindex_datagen.Prng

type action = Partition of float | Stall_all of float | Reset_all
type event = { at_s : float; action : action }

type spec = {
  delay_ms : float;
  jitter_ms : float;
  bandwidth_bps : int;
  truncate : (int * int) list;
  reset : (int * int) list;
  stall : (int * int) list;
  events : event list;
}

let no_faults =
  {
    delay_ms = 0.0;
    jitter_ms = 0.0;
    bandwidth_bps = 0;
    truncate = [];
    reset = [];
    stall = [];
    events = [];
  }

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let spec_of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let fl what v =
    match float_of_string_opt (String.trim v) with
    | Some f when f >= 0.0 -> Ok f
    | _ -> err "nemesis: bad %s %S (want a non-negative number)" what v
  in
  let nat what v =
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 0 -> Ok n
    | _ -> err "nemesis: bad %s %S (want a non-negative integer)" what v
  in
  let split2 sep v =
    match String.index_opt v sep with
    | None -> None
    | Some i ->
      Some (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))
  in
  let conn_at what v k =
    match split2 '@' v with
    | None -> err "nemesis: %s wants CONN@BYTES, got %S" what v
    | Some (c, b) -> (
      match (nat "connection number" c, nat "byte offset" b) with
      | Ok c, Ok b when c >= 1 -> k (c, b)
      | Ok _, Ok _ -> err "nemesis: connection numbers are 1-based, got %S" v
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  in
  let at_dur what v k =
    match split2 '+' v with
    | None -> err "nemesis: %s wants AT+DUR, got %S" what v
    | Some (a, d) -> (
      match (fl "time" a, fl "duration" d) with
      | Ok a, Ok d -> k a d
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  in
  let clauses =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec go acc = function
    | [] ->
      Ok
        {
          acc with
          truncate = List.rev acc.truncate;
          reset = List.rev acc.reset;
          stall = List.rev acc.stall;
          events = List.rev acc.events;
        }
    | c :: rest -> (
      match split2 ':' c with
      | None -> err "nemesis: bad clause %S (want key:args)" c
      | Some (key, v) -> (
        let continue acc = go acc rest in
        match key with
        | "delay" -> (
          match split2 '~' v with
          | None -> (
            match fl "delay" v with
            | Ok d -> continue { acc with delay_ms = d }
            | Error _ as e -> e)
          | Some (d, j) -> (
            match (fl "delay" d, fl "jitter" j) with
            | Ok d, Ok j -> continue { acc with delay_ms = d; jitter_ms = j }
            | (Error _ as e), _ | _, (Error _ as e) -> e))
        | "bw" -> (
          match nat "bandwidth" v with
          | Ok 0 -> err "nemesis: bw wants a positive byte rate"
          | Ok b -> continue { acc with bandwidth_bps = b }
          | Error _ as e -> e)
        | "truncate" ->
          conn_at "truncate" v (fun p ->
              continue { acc with truncate = p :: acc.truncate })
        | "reset" ->
          conn_at "reset" v (fun p -> continue { acc with reset = p :: acc.reset })
        | "stall" ->
          conn_at "stall" v (fun p -> continue { acc with stall = p :: acc.stall })
        | "partition" ->
          at_dur "partition" v (fun at d ->
              continue
                { acc with events = { at_s = at; action = Partition d } :: acc.events })
        | "stall-all" ->
          at_dur "stall-all" v (fun at d ->
              continue
                { acc with events = { at_s = at; action = Stall_all d } :: acc.events })
        | "reset-all" -> (
          match fl "time" v with
          | Ok at ->
            continue { acc with events = { at_s = at; action = Reset_all } :: acc.events }
          | Error _ as e -> e)
        | _ -> err "nemesis: unknown clause key %S" key))
  in
  go no_faults clauses

let spec_to_string sp =
  let b = Buffer.create 64 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        if Buffer.length b > 0 then Buffer.add_char b ',';
        Buffer.add_string b s)
      fmt
  in
  let num f =
    (* shortest float that round-trips through float_of_string *)
    if Float.is_integer f && Float.abs f < 1e15 then
      string_of_int (int_of_float f)
    else Printf.sprintf "%g" f
  in
  if sp.delay_ms > 0.0 || sp.jitter_ms > 0.0 then
    if sp.jitter_ms > 0.0 then add "delay:%s~%s" (num sp.delay_ms) (num sp.jitter_ms)
    else add "delay:%s" (num sp.delay_ms);
  if sp.bandwidth_bps > 0 then add "bw:%d" sp.bandwidth_bps;
  List.iter (fun (c, n) -> add "truncate:%d@%d" c n) sp.truncate;
  List.iter (fun (c, n) -> add "reset:%d@%d" c n) sp.reset;
  List.iter (fun (c, n) -> add "stall:%d@%d" c n) sp.stall;
  List.iter
    (fun e ->
      match e.action with
      | Partition d -> add "partition:%s+%s" (num e.at_s) (num d)
      | Stall_all d -> add "stall-all:%s+%s" (num e.at_s) (num d)
      | Reset_all -> add "reset-all:%s" (num e.at_s))
    sp.events;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The proxy *)

type stats = {
  accepted : int;
  forwarded_bytes : int;
  truncations : int;
  resets : int;
  stalls : int;
  partitions : int;
}

(* One forwarding direction of a proxied connection: bytes read from
   one side queue here (stamped with a delivery time) until they are
   written to [dst]. *)
type fdir = {
  dst : Unix.file_descr;
  q : (float * Bytes.t * int ref) Queue.t;
  mutable queued : int;  (* bytes waiting in [q] *)
  mutable next_free : float;  (* bandwidth shaping: earliest next release *)
  mutable src_open : bool;  (* the side we read from has not EOF'd *)
  mutable wr_blocked : bool;  (* last write hit EAGAIN / was short *)
  mutable shut : bool;  (* already propagated FIN to [dst] *)
}

type pconn = {
  id : int;  (* 1-based accept order (what specs name) *)
  cfd : Unix.file_descr;  (* client side *)
  ufd : Unix.file_descr;  (* upstream side *)
  c2u : fdir;
  u2c : fdir;
  mutable fwd : int;  (* cumulative bytes read, both directions: the
                         ruler the truncate/reset/stall offsets are
                         measured on *)
  trunc_at : int option;
  reset_at : int option;
  stall_at : int option;
  mutable stalled : bool;
  mutable closing : bool;  (* truncation: drain queues, then close *)
  mutable closed : bool;
}

type t = {
  spec : spec;
  seed : int;
  lfd : Unix.file_descr;
  lport : int;
  upstream : string * int;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stopped : bool Atomic.t;
  a_accepted : int Atomic.t;
  a_forwarded : int Atomic.t;
  a_trunc : int Atomic.t;
  a_resets : int Atomic.t;
  a_stalls : int Atomic.t;
  a_partitions : int Atomic.t;
}

let queue_cap = 4 * 1024 * 1024

let create ?(host = "127.0.0.1") ?(port = 0) ~seed ~upstream spec =
  let lfd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd SO_REUSEADDR true;
     Unix.bind lfd (ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen lfd 64;
     Unix.set_nonblock lfd
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  let lport =
    match Unix.getsockname lfd with ADDR_INET (_, p) -> p | _ -> assert false
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock stop_r;
  {
    spec;
    seed;
    lfd;
    lport;
    upstream;
    stop_r;
    stop_w;
    stopped = Atomic.make false;
    a_accepted = Atomic.make 0;
    a_forwarded = Atomic.make 0;
    a_trunc = Atomic.make 0;
    a_resets = Atomic.make 0;
    a_stalls = Atomic.make 0;
    a_partitions = Atomic.make 0;
  }

let port t = t.lport

let stats t =
  {
    accepted = Atomic.get t.a_accepted;
    forwarded_bytes = Atomic.get t.a_forwarded;
    truncations = Atomic.get t.a_trunc;
    resets = Atomic.get t.a_resets;
    stalls = Atomic.get t.a_stalls;
    partitions = Atomic.get t.a_partitions;
  }

let stop t =
  if not (Atomic.exchange t.stopped true) then
    try ignore (Unix.write t.stop_w (Bytes.make 1 '\000') 0 1)
    with Unix.Unix_error _ -> ()

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run t =
  let loop = Evloop.create () in
  let conns : (Unix.file_descr, pconn) Hashtbl.t = Hashtbl.create 16 in
  let live : pconn list ref = ref [] in
  let prng = Prng.create ~seed:t.seed in
  let started = Unix.gettimeofday () in
  let paused_until = ref 0.0 (* partition: nothing moves *) in
  let stalled_until = ref 0.0 (* global half-open: reads stop, queues drain *) in
  let pending =
    ref (List.stable_sort (fun a b -> compare a.at_s b.at_s) t.spec.events)
  in
  let remove_conn pc =
    if not pc.closed then begin
      pc.closed <- true;
      Evloop.remove loop pc.cfd;
      Evloop.remove loop pc.ufd;
      Hashtbl.remove conns pc.cfd;
      Hashtbl.remove conns pc.ufd;
      live := List.filter (fun c -> c.id <> pc.id) !live
    end
  in
  let close_conn pc =
    if not pc.closed then begin
      remove_conn pc;
      close_fd pc.cfd;
      close_fd pc.ufd
    end
  in
  let abort_conn pc =
    if not pc.closed then begin
      (* SO_LINGER 0 turns close into an RST, the real "reset" *)
      (try Unix.setsockopt_optint pc.cfd SO_LINGER (Some 0)
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      (try Unix.setsockopt_optint pc.ufd SO_LINGER (Some 0)
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      close_conn pc
    end
  in
  let delay_s () =
    let j =
      if t.spec.jitter_ms > 0.0 then
        Prng.float prng (2.0 *. t.spec.jitter_ms) -. t.spec.jitter_ms
      else 0.0
    in
    Float.max 0.0 (t.spec.delay_ms +. j) /. 1000.0
  in
  let enqueue now dir buf len =
    let at = now +. delay_s () in
    let at =
      if t.spec.bandwidth_bps > 0 then begin
        let release = Float.max at dir.next_free in
        dir.next_free <- release +. (float_of_int len /. float_of_int t.spec.bandwidth_bps);
        release
      end
      else at
    in
    Queue.push (at, Bytes.sub buf 0 len, ref 0) dir.q;
    dir.queued <- dir.queued + len
  in
  let rec flush now pc dir =
    if not pc.closed then
      match Queue.peek_opt dir.q with
      | Some (at, b, off) when at <= now -> (
        match Unix.write dir.dst b !off (Bytes.length b - !off) with
        | n ->
          ignore (Atomic.fetch_and_add t.a_forwarded n);
          off := !off + n;
          dir.queued <- dir.queued - n;
          if !off = Bytes.length b then begin
            ignore (Queue.pop dir.q);
            dir.wr_blocked <- false;
            flush now pc dir
          end
          else dir.wr_blocked <- true
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          dir.wr_blocked <- true
        | exception Unix.Unix_error (EINTR, _, _) -> flush now pc dir
        | exception Unix.Unix_error _ -> close_conn pc)
      | Some _ | None -> dir.wr_blocked <- false
  in
  let finalize pc =
    if not pc.closed then begin
      List.iter
        (fun dir ->
          if
            ((not dir.src_open) || pc.closing)
            && Queue.is_empty dir.q && (not dir.shut) && not pc.stalled
          then begin
            (try Unix.shutdown dir.dst SHUTDOWN_SEND with Unix.Unix_error _ -> ());
            dir.shut <- true
          end)
        [ pc.c2u; pc.u2c ];
      let drained = Queue.is_empty pc.c2u.q && Queue.is_empty pc.u2c.q in
      if drained && pc.closing then close_conn pc
      else if drained && (not pc.c2u.src_open) && not pc.u2c.src_open then
        close_conn pc
    end
  in
  let connect_upstream () =
    let host, port = t.upstream in
    let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port)) with
    | () -> Some fd
    | exception Unix.Unix_error _ ->
      close_fd fd;
      None
  in
  let mkdir dst =
    {
      dst;
      q = Queue.create ();
      queued = 0;
      next_free = 0.0;
      src_open = true;
      wr_blocked = false;
      shut = false;
    }
  in
  let rec accept_loop () =
    match Unix.accept ~cloexec:true t.lfd with
    | cfd, _ ->
      let id = Atomic.fetch_and_add t.a_accepted 1 + 1 in
      (match connect_upstream () with
      | None -> close_fd cfd
      | Some ufd ->
        Unix.set_nonblock cfd;
        Unix.set_nonblock ufd;
        (try Unix.setsockopt cfd TCP_NODELAY true with Unix.Unix_error _ -> ());
        (try Unix.setsockopt ufd TCP_NODELAY true with Unix.Unix_error _ -> ());
        let pc =
          {
            id;
            cfd;
            ufd;
            c2u = mkdir ufd;
            u2c = mkdir cfd;
            fwd = 0;
            trunc_at = List.assoc_opt id t.spec.truncate;
            reset_at = List.assoc_opt id t.spec.reset;
            stall_at = List.assoc_opt id t.spec.stall;
            stalled = false;
            closing = false;
            closed = false;
          }
        in
        live := pc :: !live;
        Hashtbl.replace conns cfd pc;
        Hashtbl.replace conns ufd pc);
      accept_loop ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  let rbuf = Bytes.create 65536 in
  let on_readable pc src dir =
    match Unix.read src rbuf 0 (Bytes.length rbuf) with
    | 0 ->
      dir.src_open <- false;
      finalize pc
    | n ->
      let now = Unix.gettimeofday () in
      (* Where does this chunk land on the connection's byte ruler?
         The first trigger inside [fwd, fwd+n) wins. *)
      let hit = function
        | Some at when pc.fwd + n >= at -> Some (max 0 (at - pc.fwd))
        | _ -> None
      in
      let reset = hit pc.reset_at in
      let trunc = if pc.closing then None else hit pc.trunc_at in
      let stall = if pc.stalled then None else hit pc.stall_at in
      pc.fwd <- pc.fwd + n;
      (match (reset, trunc, stall) with
      | Some _, _, _ ->
        ignore (Atomic.fetch_and_add t.a_resets 1);
        abort_conn pc
      | None, Some keep, _ ->
        if keep > 0 then enqueue now dir rbuf keep;
        ignore (Atomic.fetch_and_add t.a_trunc 1);
        pc.closing <- true;
        if now >= !paused_until then flush now pc dir;
        finalize pc
      | None, None, Some keep ->
        if keep > 0 then enqueue now dir rbuf keep;
        ignore (Atomic.fetch_and_add t.a_stalls 1);
        pc.stalled <- true;
        if now >= !paused_until then flush now pc dir
      | None, None, None ->
        enqueue now dir rbuf n;
        if now >= !paused_until then flush now pc dir;
        finalize pc)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn pc
  in
  let process_events now =
    let rec go () =
      match !pending with
      | e :: rest when started +. e.at_s <= now ->
        pending := rest;
        (match e.action with
        | Partition s ->
          paused_until := Float.max !paused_until (now +. s);
          ignore (Atomic.fetch_and_add t.a_partitions 1)
        | Stall_all s -> stalled_until := Float.max !stalled_until (now +. s)
        | Reset_all ->
          List.iter
            (fun pc ->
              ignore (Atomic.fetch_and_add t.a_resets 1);
              abort_conn pc)
            !live);
        go ()
      | _ -> ()
    in
    go ()
  in
  let set_interest fd mask =
    if mask = 0 then Evloop.remove loop fd else Evloop.add loop fd mask
  in
  let compute_interest now =
    let paused = now < !paused_until in
    let gstalled = now < !stalled_until in
    set_interest t.lfd (if paused then 0 else Evloop.rd);
    List.iter
      (fun pc ->
        let rd_ok dir =
          dir.src_open && (not pc.stalled) && (not pc.closing) && (not paused)
          && (not gstalled) && dir.queued < queue_cap
        in
        let wr_ok dir = dir.wr_blocked && not paused in
        set_interest pc.cfd
          ((if rd_ok pc.c2u then Evloop.rd else 0)
          lor if wr_ok pc.u2c then Evloop.wr else 0);
        set_interest pc.ufd
          ((if rd_ok pc.u2c then Evloop.rd else 0)
          lor if wr_ok pc.c2u then Evloop.wr else 0))
      !live
  in
  let next_deadline now =
    let best = ref infinity in
    let upd x = if x < !best then best := x in
    (match !pending with e :: _ -> upd (started +. e.at_s) | [] -> ());
    if !paused_until > now then upd !paused_until;
    if !stalled_until > now then upd !stalled_until;
    if now >= !paused_until then
      List.iter
        (fun pc ->
          List.iter
            (fun dir ->
              if not dir.wr_blocked then
                match Queue.peek_opt dir.q with
                | Some (at, _, _) -> upd at
                | None -> ())
            [ pc.c2u; pc.u2c ])
        !live;
    if !best = infinity then -1
    else max 0 (int_of_float (Float.max 0.0 (!best -. now) *. 1000.0) + 1)
  in
  Evloop.add loop t.stop_r Evloop.rd;
  let drain_stop () =
    let b = Bytes.create 16 in
    let rec go () =
      match Unix.read t.stop_r b 0 16 with
      | 0 -> ()
      | _ -> go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
    in
    go ()
  in
  while not (Atomic.get t.stopped) do
    let now = Unix.gettimeofday () in
    process_events now;
    if now >= !paused_until then
      List.iter
        (fun pc ->
          flush now pc pc.c2u;
          flush now pc pc.u2c;
          finalize pc)
        !live;
    let now = Unix.gettimeofday () in
    compute_interest now;
    let tmo = next_deadline now in
    ignore
      (Evloop.wait loop ~timeout_ms:tmo (fun fd ev ->
           if fd = t.stop_r then drain_stop ()
           else if fd = t.lfd then accept_loop ()
           else
             match Hashtbl.find_opt conns fd with
             | None -> ()
             | Some pc ->
               if ev land Evloop.err <> 0 then close_conn pc
               else begin
                 if ev land Evloop.wr <> 0 then begin
                   let dir = if fd = pc.ufd then pc.c2u else pc.u2c in
                   let now = Unix.gettimeofday () in
                   if now >= !paused_until then begin
                     flush now pc dir;
                     finalize pc
                   end
                 end;
                 if (not pc.closed) && ev land Evloop.rd <> 0 then begin
                   let src, dir =
                     if fd = pc.cfd then (pc.cfd, pc.c2u) else (pc.ufd, pc.u2c)
                   in
                   on_readable pc src dir
                 end
               end))
  done;
  List.iter close_conn !live;
  Evloop.remove loop t.lfd;
  Evloop.remove loop t.stop_r;
  close_fd t.lfd
