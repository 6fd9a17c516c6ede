module Prng = Dkindex_datagen.Prng

type error = Retryable of string | Fatal of string

exception Error of error

let error_to_string = function
  | Retryable msg -> "retryable: " ^ msg
  | Fatal msg -> "fatal: " ^ msg

(* Circuit breaker: after [threshold] consecutive Retryable failures
   the circuit opens and calls fail fast (no dial, no timeout wait)
   for [cooldown_s]; the first call after the cooldown is a half-open
   probe — success closes the circuit, failure reopens it immediately.
   [threshold = 0] disables. *)
type breaker_state = Br_closed | Br_open of float (* fail fast until *) | Br_half_open

type breaker = {
  threshold : int;
  cooldown_s : float;
  mutable fails : int;  (* consecutive Retryable failures *)
  mutable bstate : breaker_state;
  mutable opens : int;  (* transitions into Br_open *)
}

let breaker_make ~threshold ~cooldown_s =
  { threshold; cooldown_s; fails = 0; bstate = Br_closed; opens = 0 }

(* Admission check; transitions a cooled-down open circuit to
   half-open (admitting this one probe). *)
let breaker_admit br =
  match br.bstate with
  | Br_closed | Br_half_open -> ()
  | Br_open until ->
    if Unix.gettimeofday () >= until then br.bstate <- Br_half_open
    else raise (Error (Retryable "circuit breaker open"))

let breaker_success br =
  br.fails <- 0;
  br.bstate <- Br_closed

let breaker_failure br =
  br.fails <- br.fails + 1;
  if br.threshold > 0 then begin
    let reopen =
      match br.bstate with Br_half_open -> true | _ -> br.fails >= br.threshold
    in
    if reopen then begin
      br.bstate <- Br_open (Unix.gettimeofday () +. br.cooldown_s);
      br.opens <- br.opens + 1
    end
  end

let breaker_is_open br =
  match br.bstate with
  | Br_open until -> Unix.gettimeofday () < until
  | Br_closed | Br_half_open -> false

type t = {
  host : string;
  port : int;
  attempts : int;
  retries : int;
  timeout_s : float;
  backoff_base_s : float;
  backoff_max_s : float;
  rng : Prng.t;
  buf : Obuf.t;
  breaker : breaker;
  mutable fd : Unix.file_descr option;
  mutable next_id : int;
  (* Version/epoch negotiation: every new connection starts with a
     Hello carrying the highest epoch this client has observed. *)
  mutable hello_epoch : int;  (* what we will claim on the next dial *)
  mutable server_epoch : int;  (* epoch the server last reported *)
}

(* Internal failure classification; converted to [Error] at the
   [call] boundary. *)
exception Conn_failure of string
exception Proto_failure of string

let dial t =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string t.host, t.port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
  fd

(* Exponential backoff with full jitter: sleep uniform in
   (0, min(max, base * 2^(attempt-1))]. *)
let backoff_sleep t attempt =
  let cap = min t.backoff_max_s (t.backoff_base_s *. (2.0 ** float_of_int (attempt - 1))) in
  Unix.sleepf (cap *. (0.1 +. Prng.float t.rng 0.9))

let drop t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let send_on t fd req =
  let id = t.next_id in
  t.next_id <- id + 1;
  Obuf.clear t.buf;
  Wire.encode_request t.buf ~id req;
  Faults.write_all None fd (Obuf.base t.buf) 0 (Obuf.length t.buf);
  id

(* A read function with [Unix.read] semantics that enforces the
   per-request deadline via select. *)
let timed_read fd deadline b off len =
  let rec wait_readable dl =
    let rem = dl -. Unix.gettimeofday () in
    if rem <= 0.0 then raise (Conn_failure "response timed out");
    match Unix.select [ fd ] [] [] rem with
    | [], _, _ -> raise (Conn_failure "response timed out")
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> wait_readable dl
  in
  let rec go () =
    Option.iter wait_readable deadline;
    match Unix.read fd b off len with
    | n -> n
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

let deadline_of t = if t.timeout_s > 0.0 then Some (Unix.gettimeofday () +. t.timeout_s) else None

let recv_on fd deadline =
  match Wire.read_frame ~read:(timed_read fd deadline) () with
  | `Eof -> raise (Conn_failure "connection closed")
  | `Oversized n -> raise (Proto_failure (Printf.sprintf "oversized response frame (%d bytes)" n))
  | exception Failure msg -> raise (Conn_failure msg) (* stream ended mid-frame *)
  | exception Unix.Unix_error (e, _, _) -> raise (Conn_failure (Unix.error_message e))
  | `Frame payload -> (
    match Wire.decode_response payload with
    | Ok d -> d
    | Error msg -> raise (Proto_failure ("bad response: " ^ msg)))

(* Version/epoch handshake on a freshly dialed connection.  A
   [`Version] refusal is a protocol failure (redialing cannot help);
   anything connection-shaped heals like a failed dial. *)
let hello_on t fd =
  let id =
    try send_on t fd (Wire.Hello { version = Wire.version; epoch = t.hello_epoch })
    with Unix.Unix_error (e, _, _) -> raise (Conn_failure (Unix.error_message e))
  in
  let deadline = deadline_of t in
  let rec wait () =
    let d = recv_on fd deadline in
    if d.Wire.id = id then d.Wire.msg else wait ()
  in
  match wait () with
  | Wire.Hello_reply { version = _; epoch; role = _ } ->
    if epoch > t.hello_epoch then t.hello_epoch <- epoch;
    t.server_epoch <- epoch
  | Wire.Error_reply { code = `Version; message } -> raise (Proto_failure message)
  | _ -> raise (Proto_failure "unexpected reply to hello")

(* Connect if not connected, redialing with backoff up to
   [t.attempts] times.  Every new connection is helloed before use so
   the server always knows the highest epoch we have seen. *)
let ensure t =
  match t.fd with
  | Some fd -> fd
  | None ->
    let rec go attempt =
      let retry_or e =
        if attempt >= t.attempts then raise (Conn_failure e)
        else begin
          backoff_sleep t attempt;
          go (attempt + 1)
        end
      in
      match dial t with
      | fd -> (
        match hello_on t fd with
        | () ->
          t.fd <- Some fd;
          fd
        | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          (match e with Conn_failure msg -> retry_or msg | e -> raise e))
      | exception Unix.Unix_error (e, _, _) ->
        retry_or (Printf.sprintf "connect %s:%d: %s" t.host t.port (Unix.error_message e))
    in
    go 1

let server_epoch t = t.server_epoch

let connect ?(host = "127.0.0.1") ?(attempts = 1) ?(retries = 0) ?(timeout_s = 0.0)
    ?(backoff_base_s = 0.05) ?(backoff_max_s = 2.0) ?(seed = 0) ?(epoch = 0)
    ?(breaker_threshold = 0) ?(breaker_cooldown_s = 1.0) ~port () =
  let t =
    {
      host;
      port;
      attempts = max 1 attempts;
      retries = max 0 retries;
      timeout_s;
      backoff_base_s;
      backoff_max_s;
      rng = Prng.create ~seed;
      buf = Obuf.create 256;
      breaker = breaker_make ~threshold:breaker_threshold ~cooldown_s:breaker_cooldown_s;
      fd = None;
      next_id = 1;
      hello_epoch = max 0 epoch;
      server_epoch = 0;
    }
  in
  (try ignore (ensure t) with
  | Conn_failure msg -> raise (Error (Retryable msg))
  | Proto_failure msg -> raise (Error (Fatal msg)));
  t

let close = drop

let idempotent = function
  | Wire.Ping | Wire.Query _ | Wire.Query_path _ | Wire.Batch_query _ | Wire.Stats
  | Wire.Query_planned _ | Wire.Explain _ | Wire.Has_edge _ -> true
  | _ -> false

let call_once t req =
  let fd = ensure t in
  let id =
    try send_on t fd req with Unix.Unix_error (e, _, _) -> raise (Conn_failure (Unix.error_message e))
  in
  let deadline = deadline_of t in
  let rec wait () =
    let d = recv_on fd deadline in
    if d.Wire.id = id then d.Wire.msg else wait ()
  in
  wait ()

let call t req =
  breaker_admit t.breaker;
  let budget = if idempotent req then t.retries + 1 else 1 in
  let rec go attempt =
    match call_once t req with
    | resp ->
      breaker_success t.breaker;
      resp
    | exception Conn_failure msg ->
      drop t;
      if attempt < budget then begin
        backoff_sleep t attempt;
        go (attempt + 1)
      end
      else begin
        breaker_failure t.breaker;
        raise (Error (Retryable msg))
      end
    | exception Proto_failure msg ->
      drop t;
      raise (Error (Fatal msg))
  in
  go 1

let circuit_open_count t = t.breaker.opens
let circuit_open t = breaker_is_open t.breaker

(* ------------------------------------------------------------------ *)
(* Pipelining primitives: no healing, errors surface raw. *)

let current_fd t =
  match t.fd with
  | Some fd -> fd
  | None -> ( try ensure t with Conn_failure msg -> failwith ("Client: " ^ msg))

let send t req = send_on t (current_fd t) req

let send_raw_frame t payload =
  let b = Bytes.of_string (Wire.frame_of_payload payload) in
  Faults.write_all None (current_fd t) b 0 (Bytes.length b)

let recv t =
  match recv_on (current_fd t) (deadline_of t) with
  | d -> d
  | exception Conn_failure msg -> failwith ("Client.recv: " ^ msg)
  | exception Proto_failure msg -> failwith ("Client.recv: " ^ msg)
