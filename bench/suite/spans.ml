(* Span recorder for the traced replay.

   A span is (name, parent, request id, start, stop); the parent is
   whatever span was open when it started, so nesting follows the call
   structure of the code that records.  Spans live in one preallocated
   int array, four words each, so recording one is a clock read or two
   and four adjacent stores, and allocates nothing.  Past [capacity]
   spans are counted as dropped rather than recorded.  A disabled
   recorder does no work at all, which is what the tracing-overhead
   measurement compares against.

   The recorder may add at most 3% to a replayed read, and on hot-read
   a read replays in ~8 us: a budget of ~250 ns for six spans.  So the
   clocked operations share instants where stages abut ([next],
   [enter2], [leave2]), the four words of a span sit side by side
   rather than in one array per field, and Clock reads the time-stamp
   counter where the kernel does (README.md has the measurements). *)

type t = {
  enabled : bool;
  mutable names : string array;
  ev : int array;  (* span i at 4i: name lor ((parent + 1) lsl 8), request, start, stop *)
  mutable len : int;
  mutable cur : int;  (* innermost open span, -1 when none *)
  mutable cur_req : int;
  mutable dropped : int;
}

let create ?(enabled = true) ~capacity () =
  {
    enabled;
    names = [||];
    ev = Array.make (if enabled then 4 * capacity else 0) 0;
    len = 0;
    cur = -1;
    cur_req = 0;
    dropped = 0;
  }

(* Intern a span name; do this before the timed region. *)
let name t s =
  match Array.find_index (String.equal s) t.names with
  | Some i -> i
  | None ->
    if Array.length t.names = 256 then invalid_arg "Spans.name: more than 256 names";
    t.names <- Array.append t.names [| s |];
    Array.length t.names - 1

let set_request t id = t.cur_req <- id
let name_id t i = t.ev.(4 * i) land 255
let parent t i = (t.ev.(4 * i) lsr 8) - 1
let request t i = t.ev.((4 * i) + 1)
let start_ns t i = t.ev.((4 * i) + 2)
let stop_ns t i = t.ev.((4 * i) + 3)

(* [open_at] and [close_at] take the instant explicitly: the clocked
   operations below are built on them, and tests use them to lay out
   spans at known times. *)
let open_at t nm now =
  let i = t.len in
  let b = 4 * i in
  if b >= Array.length t.ev then (
    t.dropped <- t.dropped + 1;
    -1)
  else (
    (* b + 3 < length: the array holds whole spans *)
    t.len <- i + 1;
    Array.unsafe_set t.ev b (nm lor ((t.cur + 1) lsl 8));
    Array.unsafe_set t.ev (b + 1) t.cur_req;
    Array.unsafe_set t.ev (b + 2) now;
    Array.unsafe_set t.ev (b + 3) now;
    t.cur <- i;
    i)

(* [h] is a handle [open_at] returned, so it is in bounds. *)
let close_at t h now =
  if h >= 0 then (
    Array.unsafe_set t.ev ((4 * h) + 3) now;
    t.cur <- (Array.unsafe_get t.ev (4 * h) lsr 8) - 1)

(* [enter t nm] opens a span and returns its handle (-1 when disabled
   or full); [leave t h] closes it. *)
let enter t nm = if not t.enabled then -1 else open_at t nm (Clock.now_ns ())
let leave t h = if h >= 0 then close_at t h (Clock.now_ns ())

(* Close [h] and open a sibling named [nm] at the same instant. *)
let next t h nm =
  if not t.enabled then -1
  else
    let now = Clock.now_ns () in
    close_at t h now;
    open_at t nm now

let clear t =
  t.len <- 0;
  t.cur <- -1;
  t.dropped <- 0

(* [enter2 t outer inner] opens [outer] and its first child [inner] at
   one instant and returns the child's handle; [leave2 t h] closes [h]
   and its parent at one instant. *)
let enter2 t outer inner =
  if not t.enabled then -1
  else if 4 * (t.len + 2) > Array.length t.ev then (
    t.dropped <- t.dropped + 2;
    -1)
  else
    let now = Clock.now_ns () in
    ignore (open_at t outer now);
    open_at t inner now

let leave2 t h =
  if h >= 0 then (
    let now = Clock.now_ns () in
    let p = parent t h in
    close_at t h now;
    close_at t p now)

let length t = t.len
let dropped t = t.dropped
let duration t i = stop_ns t i - start_ns t i

(* Self time: a span's duration minus the part its direct children
   cover.  Children of one parent never overlap (they are recorded
   sequentially on one domain), so that part is their summed
   duration. *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = parent t i in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

type agg = {
  count : int;
  self_ns : int;  (** summed self time *)
  durations : float array;  (** inclusive durations, sorted, ns *)
}

let aggregate t =
  let self = self_times t in
  List.mapi
    (fun nm s ->
      let d = ref [] and sum = ref 0 in
      for i = t.len - 1 downto 0 do
        if name_id t i = nm then (
          d := float_of_int (duration t i) :: !d;
          sum := !sum + self.(i))
      done;
      let durations = Array.of_list !d in
      Array.sort Float.compare durations;
      (s, { count = Array.length durations; self_ns = !sum; durations }))
    (Array.to_list t.names)

let find_agg aggs s =
  match List.assoc_opt s aggs with
  | Some a -> a
  | None -> { count = 0; self_ns = 0; durations = [||] }

(* Chrome trace-event format ("X" complete events, microsecond
   timestamps relative to the first span), which Perfetto and
   chrome://tracing open offline. *)
let to_trace_json ?(process = "dkbench") t =
  let base = if t.len = 0 then 0 else start_ns t 0 in
  let self = self_times t in
  let us ns = Json.Num (float_of_int ns /. 1000.0) in
  let events =
    List.init t.len (fun i ->
        Json.Obj
          [
            ("name", Json.Str t.names.(name_id t i));
            ("cat", Json.Str "dkbench");
            ("ph", Json.Str "X");
            ("ts", us (start_ns t i - base));
            ("dur", us (duration t i));
            ("pid", Json.int 1);
            ("tid", Json.int 1);
            ("args", Json.Obj [ ("req", Json.int (request t i)); ("self_us", us self.(i)) ]);
          ])
  in
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.int 1);
        ("args", Json.Obj [ ("name", Json.Str process) ]);
      ]
  in
  Json.Obj [ ("traceEvents", Json.Arr (meta :: events)); ("displayTimeUnit", Json.Str "ns") ]
