(* Streaming graph construction: the Builder API, but edges go
   straight into two external sorters ((u, v) for the child direction,
   (v, u) for the parent direction) instead of an in-RAM list, and
   [finish] writes a Container directly — the adjacency is never
   materialized.  RAM use is O(n) for the label codes plus the
   sorters' fixed buffers; the O(m) edge data lives in spill runs.

   Both directions are fed up front so one generator pass suffices;
   [finish] merge-dedups each direction and streams it into its
   Container section while accumulating the offsets (O(n) RAM) to
   write next.  Because the sorted, deduplicated runs are exactly what
   [Data_graph.make] produces and the Container section encoders are
   shared, streaming a generator and saving its materialized graph
   yield byte-identical files. *)

type t = {
  pool : Label.Pool.t;
  path : string;
  mutable labels : Int_vec.t;  (* node -> label code *)
  mutable count : int;
  mutable value_code : int;  (* the VALUE code, -1 until first interned here *)
  children : Ext_sort.Pairs.t;
  parents : Ext_sort.Pairs.t;
  values : Payloads.acc;
  mutable finished : bool;
}

let create ?(root_label = Label.root_name) ?mem_budget ?tmp_dir ~path () =
  let pool = Label.Pool.create () in
  let root = Label.Pool.intern pool root_label in
  let labels = Int_vec.create 1024 in
  Int_vec.set labels 0 (Label.to_int root);
  {
    pool;
    path;
    labels;
    count = 1;
    value_code = -1;
    children = Ext_sort.Pairs.create ?mem_budget ?tmp_dir ();
    parents = Ext_sort.Pairs.create ?mem_budget ?tmp_dir ();
    values = Payloads.acc ();
    finished = false;
  }

let root _ = 0
let n_nodes t = t.count
let pool t = t.pool

let add_node_code t l =
  if t.count >= Int_vec.length t.labels then begin
    let bigger = Int_vec.create (2 * Int_vec.length t.labels) in
    Int_vec.blit ~src:t.labels ~src_pos:0 ~dst:bigger ~dst_pos:0 ~len:t.count;
    t.labels <- bigger
  end;
  let id = t.count in
  Int_vec.set t.labels id (Label.to_int l);
  t.count <- id + 1;
  id

let add_node t name = add_node_code t (Label.Pool.intern t.pool name)

let add_edge t u v =
  Ext_sort.Pairs.add t.children u v;
  Ext_sort.Pairs.add t.parents v u

let add_child_code t ~parent l =
  let id = add_node_code t l in
  add_edge t parent id;
  id

let add_child t ~parent name = add_child_code t ~parent (Label.Pool.intern t.pool name)

(* First payload wins, as in the builder: both append into a
   [Payloads.acc]. *)
let set_value t node payload = Payloads.add t.values node payload

let add_value ?text t ~parent =
  if t.value_code < 0 then
    t.value_code <- Label.to_int (Label.Pool.intern t.pool Label.value_name);
  let id = add_child_code t ~parent (Label.of_int t.value_code) in
  (match text with Some payload -> set_value t id payload | None -> ());
  id

(* Merge one direction into its neighbor section, dropping duplicate
   pairs, accumulating degree counts, and validating ranges (edges may
   legitimately reference nodes created after them, so range checks
   can only happen here).  Returns the edge count. *)
let stream_direction w tag sorter n deg =
  Container.Writer.begin_section w tag;
  let last_a = ref (-1) and last_b = ref (-1) and m = ref 0 in
  Ext_sort.Pairs.iter_merged sorter (fun a b ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg (Printf.sprintf "Graph_stream: edge (%d, %d) out of range" a b);
      if not (a = !last_a && b = !last_b) then begin
        last_a := a;
        last_b := b;
        Container.Writer.write_int w b;
        Int_vec.set deg (a + 1) (Int_vec.get deg (a + 1) + 1);
        incr m
      end);
  Container.Writer.end_section w;
  (* Prefix-sum the degree counts into offsets. *)
  for i = 1 to n do
    Int_vec.set deg i (Int_vec.get deg i + Int_vec.get deg (i - 1))
  done;
  !m

let finish t =
  if t.finished then invalid_arg "Graph_stream.finish: already finished";
  t.finished <- true;
  let n = t.count in
  let values = Payloads.freeze t.values in
  let w = Container.Writer.create t.path ~kind:Graph ~n_sections:Container.graph_n_sections in
  (try
     Container.write_pool w t.pool;
     Container.Writer.int_section w "labels" (Int_vec.sub t.labels ~pos:0 ~len:n);
     let cdeg = Int_vec.zeros (n + 1) in
     let m = stream_direction w "carr" t.children n cdeg in
     Container.Writer.int_section w "coff" cdeg;
     let pdeg = Int_vec.zeros (n + 1) in
     let m' = stream_direction w "parr" t.parents n pdeg in
     Container.Writer.int_section w "poff" pdeg;
     if m <> m' then invalid_arg "Graph_stream: direction edge counts disagree";
     Container.write_values w values;
     Container.write_meta w [ n; m; Payloads.length values ]
   with e ->
     Container.Writer.abort w;
     Ext_sort.Pairs.close t.children;
     Ext_sort.Pairs.close t.parents;
     raise e);
  Container.Writer.finish w

let abort t =
  if not t.finished then begin
    t.finished <- true;
    Ext_sort.Pairs.close t.children;
    Ext_sort.Pairs.close t.parents
  end
