module B = Dkindex_graph.Builder
module GS = Dkindex_graph.Graph_stream

let label_name i = Printf.sprintf "l%d" i

(* One generation body drives both the in-RAM builder and the
   streaming container writer; both allocate node ids in call order,
   so with the same PRNG draws the streamed container is byte-identical
   to saving [graph]. *)
let skeleton (type g) rng (module G : B.S with type t = g) (g : g) ~nodes ~n_labels =
  for _ = 1 to nodes - 1 do
    let id = G.add_node g (label_name (Prng.int rng n_labels)) in
    let parent = Prng.int rng id in
    G.add_edge g parent id
  done

let generate (type g) rng (module G : B.S with type t = g) (g : g) ~nodes ~n_labels ~extra_edges
    ~value_fraction =
  skeleton rng (module G) g ~nodes ~n_labels;
  for _ = 1 to extra_edges do
    let u = Prng.int rng nodes and v = Prng.int rng nodes in
    if v <> 0 then G.add_edge g u v
  done;
  if value_fraction > 0.0 then
    for u = 1 to nodes - 1 do
      if Prng.bool rng value_fraction then G.set_value g u (Printf.sprintf "v%d" (Prng.int rng 4))
    done

let graph ?(seed = 7) ?(value_fraction = 0.0) ~nodes ~n_labels ~extra_edges () =
  if nodes < 1 then invalid_arg "Random_graph.graph: need at least the root";
  let rng = Prng.create ~seed in
  let b = B.create () in
  generate rng (module B) b ~nodes ~n_labels ~extra_edges ~value_fraction;
  B.build b

let stream ?(seed = 7) ?(value_fraction = 0.0) ?mem_budget ?tmp_dir ~nodes ~n_labels
    ~extra_edges ~path () =
  if nodes < 1 then invalid_arg "Random_graph.stream: need at least the root";
  let rng = Prng.create ~seed in
  let gs = GS.create ?mem_budget ?tmp_dir ~path () in
  match generate rng (module GS) gs ~nodes ~n_labels ~extra_edges ~value_fraction with
  | () -> GS.finish gs
  | exception e ->
    GS.abort gs;
    raise e

let tree ?(seed = 7) ~nodes ~n_labels () =
  if nodes < 1 then invalid_arg "Random_graph.tree: need at least the root";
  let rng = Prng.create ~seed in
  let b = B.create () in
  skeleton rng (module B) b ~nodes ~n_labels;
  B.build b
