(* Nodes and edges accumulate in append-only int sequences held in
   segments that double in size: an append is one store, and growing
   allocates one new segment without copying or freeing the old ones,
   so the storage ends up touched once, at about its final size.
   Copy-on-double arrays would touch about twice that and reallocate
   the largest arrays at every doubling: about 10 ms of a fresh
   [Xmark.graph] at scale 2000.  The segments stay on the OCaml heap
   on purpose: the runtime counts every bigarray allocation's whole
   size as off-heap memory and pulls a major collection forward for
   it, where an array is paced like any other heap block.  [build]
   reads the segments in place: the CSR construction takes the edges
   straight from them, checking each endpoint as it reads it, and only
   the label codes are copied, into the vector the graph keeps.
   Nothing the graph holds is shared, so the builder can keep growing
   after a [build].

   Payloads append into a {!Payloads.acc}, which [build] gathers into
   the graph's two sorted arrays, sorting only if the appends came out
   of order (a document generator appends them in node order). *)

module type S = sig
  type t

  val root : t -> int
  val pool : t -> Label.Pool.t
  val add_node : t -> string -> int
  val add_child : t -> parent:int -> string -> int
  val add_child_code : t -> parent:int -> Label.t -> int
  val add_value : ?text:string -> t -> parent:int -> int
  val set_value : t -> int -> string -> unit
  val add_edge : t -> int -> int -> unit
end

module Seq = struct
  type t = {
    mutable full : int array list;  (* filled segments, newest first *)
    mutable cur : int array;  (* live in [0, fill) *)
    mutable fill : int;
    mutable len : int;
  }

  let create () = { full = []; cur = Array.make 1024 0; fill = 0; len = 0 }

  (* A new segment as long as everything before it: capacity doubles. *)
  let push s x =
    if s.fill = Array.length s.cur then begin
      s.full <- s.cur :: s.full;
      s.cur <- Array.make s.len 0;
      s.fill <- 0
    end;
    Array.unsafe_set s.cur s.fill x;
    s.fill <- s.fill + 1;
    s.len <- s.len + 1

  (* The segments oldest first, each with its live length. *)
  let segments s = List.rev_map (fun a -> (a, Array.length a)) s.full @ [ (s.cur, s.fill) ]
end

type t = {
  pool : Label.Pool.t;
  labels : Seq.t;  (* node -> label code *)
  src : Seq.t;  (* edge i is src.(i) -> dst.(i); both grow in step *)
  dst : Seq.t;
  mutable value_code : int;  (* the VALUE code, -1 until first interned here *)
  values : Payloads.acc;  (* the first payload per node wins *)
}

let create_with_root root_label =
  let pool = Label.Pool.create () in
  let labels = Seq.create () in
  Seq.push labels (Label.to_int (Label.Pool.intern pool root_label));
  {
    pool;
    labels;
    src = Seq.create ();
    dst = Seq.create ();
    value_code = -1;
    values = Payloads.acc ();
  }

let create () = create_with_root Label.root_name
let root _ = 0
let n_nodes b = b.labels.len
let pool b = b.pool

let add_node_code b code =
  let id = b.labels.len in
  Seq.push b.labels (Label.to_int code);
  id

let add_node b name = add_node_code b (Label.Pool.intern b.pool name)

let add_edge b u v =
  Seq.push b.src u;
  Seq.push b.dst v

let add_child_code b ~parent code =
  let id = add_node_code b code in
  add_edge b parent id;
  id

let add_child b ~parent name = add_child_code b ~parent (Label.Pool.intern b.pool name)
let set_value b node payload = Payloads.add b.values node payload

let add_value ?text b ~parent =
  if b.value_code < 0 then
    b.value_code <- Label.to_int (Label.Pool.intern b.pool Label.value_name);
  let id = add_child_code b ~parent (Label.of_int b.value_code) in
  (match text with Some payload -> set_value b id payload | None -> ());
  id

let build b =
  let label_codes = Int_vec.create b.labels.len and pos = ref 0 in
  List.iter
    (fun (seg, len) ->
      for i = 0 to len - 1 do
        Int_vec.unsafe_set label_codes (!pos + i) (Array.unsafe_get seg i)
      done;
      pos := !pos + len)
    (Seq.segments b.labels);
  (* [src] and [dst] grow in step, so their segments pair up. *)
  let edges =
    List.map2 (fun (src, len) (dst, _) -> (src, dst, len)) (Seq.segments b.src) (Seq.segments b.dst)
  in
  Data_graph.of_edges ~values:(Payloads.freeze b.values) ~pool:(Label.Pool.copy b.pool)
    ~label_codes edges
