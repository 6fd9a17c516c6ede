open Dkindex_pathexpr

let version = 4
let max_frame_default = 16 * 1024 * 1024
let max_replication_frame = 1024 * 1024 * 1024

type query_flags = { no_cache : bool }
type role = Primary | Replica

type request =
  | Ping
  | Query_path of { flags : query_flags; labels : string list }
  | Add_edge of { u : int; v : int }
  | Remove_edge of { u : int; v : int }
  | Add_subgraph of { graph : string; reqs : (string * int) list }
  | Promote of (string * int) list
  | Demote of (string * int) list
  | Stats
  | Snapshot
  | Shutdown
  | Hello of { version : int; epoch : int }
  | Rep_subscribe of { replica_id : int; epoch : int; seq : int; offset : int }
  | Promote_primary
  | Query_planned of { flags : query_flags; expr : Path_ast.t }
  | Explain of { expr : Path_ast.t }
  | Has_edge of { u : int; v : int }
  | Digest_request

type query_result = {
  nodes : int array;
  index_visits : int;
  data_visits : int;
  n_candidates : int;
  n_certain : int;
  generation : int;
  age_ms : int;
}

type error_code = [ `Protocol | `App | `Deadline | `Shutting_down | `Version | `Stale ]

type response =
  | Pong
  | Result of query_result
  | Ok_reply of { generation : int; epoch : int }
  | Stats_reply of (string * string) list
  | Error_reply of { code : error_code; message : string }
  | Overloaded
  | Read_only
  | Hello_reply of { version : int; epoch : int; role : role }
  | Rep_records of { epoch : int; seq : int; offset : int; data : string }
  | Rep_snapshot of { epoch : int; seq : int; checkpoint : string }
  | Rep_heartbeat of { epoch : int; seq : int; offset : int }
  | Not_primary of { host : string; port : int }
  | Fenced of { epoch : int }
  | Planned_result of { plan : string; result : query_result }
  | Explain_reply of string list
  | Edge_reply of { present : bool; generation : int; age_ms : int }
  | Digest_reply of {
      generation : int;
      seq : int;  (** write-stream position the digest reflects; -1 = unstable *)
      offset : int;
      n_nodes : int;
      root : int;
    }

let add_u8 = Obuf.add_u8
let add_u16 = Obuf.add_u16
let add_u32 = Obuf.add_u32

open Codec
open Dkindex_graph.Cursor

let flags_byte { no_cache } = if no_cache then 1 else 0
let flags_of_byte b = { no_cache = b land 1 <> 0 }

(* ------------------------------------------------------------------ *)
(* Path expressions: a prefix encoding, one tag byte per constructor;
   a label is a str16.  Decoding is budgeted in nodes and in depth, so
   a hostile expression costs bounded work and stack. *)

let rec add_expr buf = function
  | Path_ast.Any -> add_u8 buf 0
  | Label l ->
    add_u8 buf 1;
    add_str16 buf l
  | Seq (a, b) ->
    add_u8 buf 2;
    add_expr buf a;
    add_expr buf b
  | Alt (a, b) ->
    add_u8 buf 3;
    add_expr buf a;
    add_expr buf b
  | Opt a ->
    add_u8 buf 4;
    add_expr buf a
  | Star a ->
    add_u8 buf 5;
    add_expr buf a

let max_expr_nodes = 65_536
let max_expr_depth = 4_096

let expr c =
  let budget = ref max_expr_nodes in
  let rec go depth =
    if depth > max_expr_depth then raise (Bad "expression too deep");
    decr budget;
    if !budget < 0 then raise (Bad "expression too large");
    match u8 c with
    | 0 -> Path_ast.Any
    | 1 -> Label (str16 c)
    | 2 ->
      let a = go (depth + 1) in
      Seq (a, go (depth + 1))
    | 3 ->
      let a = go (depth + 1) in
      Alt (a, go (depth + 1))
    | 4 -> Opt (go (depth + 1))
    | 5 -> Star (go (depth + 1))
    | t -> raise (Bad (Printf.sprintf "bad expression tag 0x%02x" t))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Frames *)

let frame_of_payload payload =
  let buf = Obuf.create (String.length payload + 4) in
  add_str32 buf payload;
  Obuf.contents buf

(* Reserve the length slot, write the payload, patch the length in
   place — zero copies, and frames already in the buffer are left
   untouched (so several frames can be batched and flushed with one
   write). *)
let with_frame buf f =
  let start = Obuf.length buf in
  add_u32 buf 0;
  f ();
  Obuf.patch_u32 buf start (Obuf.length buf - start - 4)

(* ------------------------------------------------------------------ *)
(* Requests *)

let request_kind = function
  | Ping -> 0x01
  | Query_path _ -> 0x03
  | Add_edge _ -> 0x05
  | Remove_edge _ -> 0x06
  | Add_subgraph _ -> 0x07
  | Promote _ -> 0x08
  | Demote _ -> 0x09
  | Stats -> 0x0a
  | Snapshot -> 0x0b
  | Shutdown -> 0x0c
  | Hello _ -> 0x0d
  | Rep_subscribe _ -> 0x0e
  | Promote_primary -> 0x0f
  | Query_planned _ -> 0x10
  | Explain _ -> 0x11
  | Has_edge _ -> 0x12
  | Digest_request -> 0x13

(* The five mutation requests carry a {!Wal.mutation}'s body, and
   their kinds are the WAL kinds shifted by this much. *)
let mutation_kind_base = 0x04

let mutation = function
  | Add_edge { u; v } -> Some (Wal.Add_edge { u; v })
  | Remove_edge { u; v } -> Some (Wal.Remove_edge { u; v })
  | Add_subgraph { graph; reqs } -> Some (Wal.Add_subgraph { graph; reqs })
  | Promote pairs -> Some (Wal.Promote pairs)
  | Demote pairs -> Some (Wal.Demote pairs)
  | _ -> None

let of_mutation = function
  | Wal.Add_edge { u; v } -> Add_edge { u; v }
  | Wal.Remove_edge { u; v } -> Remove_edge { u; v }
  | Wal.Add_subgraph { graph; reqs } -> Add_subgraph { graph; reqs }
  | Wal.Promote pairs -> Promote pairs
  | Wal.Demote pairs -> Demote pairs

(* Hello carries its sender's protocol version in the header version
   byte itself, so a server can answer a mismatched peer with a typed
   error instead of failing to decode. *)
let encode_request buf ~id req =
  with_frame buf (fun () ->
      (match req with
      | Hello { version = v; _ } -> add_u8 buf v
      | _ -> add_u8 buf version);
      add_u8 buf (request_kind req);
      add_u32 buf id;
      match req with
      | Ping | Stats | Snapshot | Shutdown | Promote_primary | Digest_request -> ()
      | Hello { version = _; epoch } -> add_u32 buf epoch
      | Rep_subscribe { replica_id; epoch; seq; offset } ->
        add_u32 buf replica_id;
        add_u32 buf epoch;
        add_seq buf seq;
        add_u48 buf offset
      | Query_path { flags; labels } ->
        add_u8 buf (flags_byte flags);
        add_list16 buf add_str16 labels
      | Query_planned { flags; expr } ->
        add_u8 buf (flags_byte flags);
        add_expr buf expr
      | Explain { expr } -> add_expr buf expr
      | Has_edge { u; v } ->
        add_u32 buf u;
        add_u32 buf v
      | Add_edge _ | Remove_edge _ | Add_subgraph _ | Promote _ | Demote _ ->
        Option.iter (Wal.encode_body buf) (mutation req))

type 'a decoded = { id : int; msg : 'a }

(* Header version is NOT checked here: Hello frames (kind 0x0d request,
   0x89 response) are decodable at any version so that negotiation can
   reject a mismatched peer with a typed error.  Everything else
   requires an exact version match. *)
let decode_header c =
  let v = u8 c in
  let kind = u8 c in
  let id = u32 c in
  (v, kind, id)

let check_version v kind =
  if v <> version then
    raise (Bad (Printf.sprintf "unsupported version %d for kind 0x%02x" v kind))

let decode_request_at big ~pos ~len =
  let c = make big ~pos ~len in
  match
    let v, kind, id = decode_header c in
    if kind <> 0x0d then check_version v kind;
    let msg =
      match kind with
      | 0x0d ->
        let epoch = u32 c in
        (* A future version may append fields: tolerate trailing bytes
           so the server still sees a Hello it can refuse politely. *)
        if v <> version then skip_rest c;
        Hello { version = v; epoch }
      | 0x01 -> Ping
      | 0x03 ->
        let flags = flags_of_byte (u8 c) in
        Query_path { flags; labels = list16 c ~min_item_bytes:2 str16 }
      | k when k > mutation_kind_base && k <= mutation_kind_base + 0x05 ->
        of_mutation (Wal.decode_body (k - mutation_kind_base) c)
      | 0x0a -> Stats
      | 0x0b -> Snapshot
      | 0x0c -> Shutdown
      | 0x0e ->
        let replica_id = u32 c in
        let epoch = u32 c in
        let seq = seq32 c in
        let offset = u48 c in
        Rep_subscribe { replica_id; epoch; seq; offset }
      | 0x0f -> Promote_primary
      | 0x10 ->
        let flags = flags_of_byte (u8 c) in
        Query_planned { flags; expr = expr c }
      | 0x11 -> Explain { expr = expr c }
      | 0x12 ->
        let u = u32 c in
        let v = u32 c in
        Has_edge { u; v }
      | 0x13 -> Digest_request
      | k -> raise (Bad (Printf.sprintf "unknown request kind 0x%02x" k))
    in
    expect_end c "request";
    { id; msg }
  with
  | decoded -> Ok decoded
  | exception Bad msg -> Error msg

let decode_request payload = decode_request_at payload ~pos:0 ~len:(String.length payload)

(* ------------------------------------------------------------------ *)
(* Responses *)

let encode_result buf (r : query_result) =
  add_u32 buf r.index_visits;
  add_u32 buf r.data_visits;
  add_u32 buf r.n_candidates;
  add_u32 buf r.n_certain;
  add_u32 buf r.generation;
  add_u32 buf r.age_ms;
  add_u32 buf (Array.length r.nodes);
  Array.iter (add_u32 buf) r.nodes

let decode_result c =
  let index_visits = u32 c in
  let data_visits = u32 c in
  let n_candidates = u32 c in
  let n_certain = u32 c in
  let generation = u32 c in
  let age_ms = u32 c in
  let n = u32 c in
  check_count c n ~min_item_bytes:4;
  let nodes = Array.init n (fun _ -> u32 c) in
  { nodes; index_visits; data_visits; n_candidates; n_certain; generation; age_ms }

let error_code_byte = function
  | `Protocol -> 0
  | `App -> 1
  | `Deadline -> 2
  | `Shutting_down -> 3
  | `Version -> 4
  | `Stale -> 5

let error_code_of_byte = function
  | 0 -> `Protocol
  | 1 -> `App
  | 2 -> `Deadline
  | 3 -> `Shutting_down
  | 4 -> `Version
  | 5 -> `Stale
  | b -> raise (Bad (Printf.sprintf "unknown error code %d" b))

let role_byte = function Primary -> 0 | Replica -> 1

let role_of_byte = function
  | 0 -> Primary
  | 1 -> Replica
  | b -> raise (Bad (Printf.sprintf "unknown role %d" b))

let response_kind = function
  | Pong -> 0x81
  | Result _ -> 0x82
  | Ok_reply _ -> 0x84
  | Stats_reply _ -> 0x85
  | Error_reply _ -> 0x86
  | Overloaded -> 0x87
  | Read_only -> 0x88
  | Hello_reply _ -> 0x89
  | Rep_records _ -> 0x8a
  | Rep_snapshot _ -> 0x8b
  | Rep_heartbeat _ -> 0x8c
  | Not_primary _ -> 0x8d
  | Fenced _ -> 0x8e
  | Planned_result _ -> 0x8f
  | Explain_reply _ -> 0x90
  | Edge_reply _ -> 0x91
  | Digest_reply _ -> 0x92

let encode_response buf ~id resp =
  with_frame buf (fun () ->
      (match resp with
      | Hello_reply { version = v; _ } -> add_u8 buf v
      | _ -> add_u8 buf version);
      add_u8 buf (response_kind resp);
      add_u32 buf id;
      match resp with
      | Pong | Overloaded | Read_only -> ()
      | Result r -> encode_result buf r
      | Ok_reply { generation; epoch } ->
        add_u32 buf generation;
        add_u32 buf epoch
      | Hello_reply { version = _; epoch; role } ->
        add_u32 buf epoch;
        add_u8 buf (role_byte role)
      | Rep_records { epoch; seq; offset; data } ->
        add_u32 buf epoch;
        add_seq buf seq;
        add_u48 buf offset;
        add_str32 buf data
      | Rep_snapshot { epoch; seq; checkpoint } ->
        add_u32 buf epoch;
        add_seq buf seq;
        add_str32 buf checkpoint
      | Rep_heartbeat { epoch; seq; offset } ->
        add_u32 buf epoch;
        add_seq buf seq;
        add_u48 buf offset
      | Not_primary { host; port } ->
        add_str16 buf host;
        add_u16 buf port
      | Fenced { epoch } -> add_u32 buf epoch
      | Planned_result { plan; result } ->
        add_str16 buf plan;
        encode_result buf result
      | Explain_reply lines -> add_list16 buf add_str16 lines
      | Edge_reply { present; generation; age_ms } ->
        add_u8 buf (if present then 1 else 0);
        add_u32 buf generation;
        add_u32 buf age_ms
      | Digest_reply { generation; seq; offset; n_nodes; root } ->
        add_u32 buf generation;
        add_seq buf seq;
        add_u48 buf offset;
        add_u32 buf n_nodes;
        add_u48 buf root
      | Stats_reply kvs ->
        add_list16 buf
          (fun buf (k, v) ->
            add_str16 buf k;
            add_str16 buf v)
          kvs
      | Error_reply { code; message } ->
        add_u8 buf (error_code_byte code);
        add_str16 buf message)

let decode_response_at big ~pos ~len =
  let c = make big ~pos ~len in
  match
    let v, kind, id = decode_header c in
    if kind <> 0x89 then check_version v kind;
    let msg =
      match kind with
      | 0x81 -> Pong
      | 0x82 -> Result (decode_result c)
      | 0x84 ->
        let generation = u32 c in
        let epoch = u32 c in
        Ok_reply { generation; epoch }
      | 0x89 ->
        let epoch = u32 c in
        let role = role_of_byte (u8 c) in
        if v <> version then skip_rest c;
        Hello_reply { version = v; epoch; role }
      | 0x8a ->
        let epoch = u32 c in
        let seq = seq32 c in
        let offset = u48 c in
        let data = str32 c in
        Rep_records { epoch; seq; offset; data }
      | 0x8b ->
        let epoch = u32 c in
        let seq = seq32 c in
        let checkpoint = str32 c in
        Rep_snapshot { epoch; seq; checkpoint }
      | 0x8c ->
        let epoch = u32 c in
        let seq = seq32 c in
        let offset = u48 c in
        Rep_heartbeat { epoch; seq; offset }
      | 0x8d ->
        let host = str16 c in
        let port = u16 c in
        Not_primary { host; port }
      | 0x8e -> Fenced { epoch = u32 c }
      | 0x8f ->
        let plan = str16 c in
        Planned_result { plan; result = decode_result c }
      | 0x90 -> Explain_reply (list16 c ~min_item_bytes:2 str16)
      | 0x91 ->
        let present =
          match u8 c with
          | 0 -> false
          | 1 -> true
          | b -> raise (Bad (Printf.sprintf "bad edge_reply %d" b))
        in
        let generation = u32 c in
        let age_ms = u32 c in
        Edge_reply { present; generation; age_ms }
      | 0x92 ->
        let generation = u32 c in
        let seq = seq32 c in
        let offset = u48 c in
        let n_nodes = u32 c in
        let root = u48 c in
        Digest_reply { generation; seq; offset; n_nodes; root }
      | 0x85 ->
        Stats_reply
          (list16 c ~min_item_bytes:4 (fun c ->
               let k = str16 c in
               let v = str16 c in
               (k, v)))
      | 0x86 ->
        let code = error_code_of_byte (u8 c) in
        let message = str16 c in
        Error_reply { code; message }
      | 0x87 -> Overloaded
      | 0x88 -> Read_only
      | k -> raise (Bad (Printf.sprintf "unknown response kind 0x%02x" k))
    in
    expect_end c "response";
    { id; msg }
  with
  | decoded -> Ok decoded
  | exception Bad msg -> Error msg

let decode_response payload = decode_response_at payload ~pos:0 ~len:(String.length payload)

(* ------------------------------------------------------------------ *)
(* Blocking frame reader *)

let read_exact read buf off len =
  let got = ref 0 in
  (try
     while !got < len do
       let n = read buf (off + !got) (len - !got) in
       if n = 0 then raise Exit;
       got := !got + n
     done
   with Exit -> ());
  !got

let read_frame ?(max_frame = max_frame_default) ~read () =
  let hdr = Bytes.create 4 in
  match read_exact read hdr 0 4 with
  | 0 -> `Eof
  | 4 ->
    let len = u32_at (Bytes.unsafe_to_string hdr) 0 in
    if len > max_frame then `Oversized len
    else begin
      let body = Bytes.create len in
      if read_exact read body 0 len < len then failwith "Wire.read_frame: truncated frame";
      `Frame (Bytes.unsafe_to_string body)
    end
  | _ -> failwith "Wire.read_frame: truncated header"
