open Dkindex_graph

type t = {
  n_nodes : int;
  n_edges : int;
  n_data_nodes : int;
  compression : float;
  largest_extent : int;
  singleton_extents : int;
  k_histogram : (int * int) list;
  label_rows : (string * int * int) list;
}

let compute idx =
  let pool = Data_graph.pool (Index_graph.data idx) in
  let k_hist = Hashtbl.create 8 in
  let labels : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  let data_nodes = ref 0 and largest = ref 0 and singletons = ref 0 in
  Index_graph.iter_alive idx (fun nd ->
      let k = if nd.Index_graph.k >= Index_graph.k_infinite then -1 else nd.Index_graph.k in
      Hashtbl.replace k_hist k (1 + Option.value (Hashtbl.find_opt k_hist k) ~default:0);
      let size = nd.Index_graph.extent_size in
      data_nodes := !data_nodes + size;
      if size > !largest then largest := size;
      if size = 1 then incr singletons;
      let name = Label.Pool.name pool nd.Index_graph.label in
      let n, d = Option.value (Hashtbl.find_opt labels name) ~default:(0, 0) in
      Hashtbl.replace labels name (n + 1, d + size));
  let n_nodes = Index_graph.n_nodes idx in
  {
    n_nodes;
    n_edges = Index_graph.n_edges idx;
    n_data_nodes = !data_nodes;
    compression = (if n_nodes = 0 then 0.0 else float_of_int !data_nodes /. float_of_int n_nodes);
    largest_extent = !largest;
    singleton_extents = !singletons;
    k_histogram = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) k_hist []);
    label_rows =
      Hashtbl.fold (fun name (n, d) acc -> (name, n, d) :: acc) labels []
      |> List.sort (fun (_, a, _) (_, b, _) -> compare b a);
  }

type source = {
  idx : Index_graph.t;
  mu : Mutex.t;
  mutable gen : int;  (* generation at the last sweep; -1 = never *)
  mutable cached : t option;
  mutable recomputes : int;
}

let source idx = { idx; mu = Mutex.create (); gen = -1; cached = None; recomputes = 0 }

let get s =
  Mutex.lock s.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mu) @@ fun () ->
  match s.cached with
  | Some st when Index_graph.generation s.idx = s.gen -> st
  | _ ->
    (* Snapshot the counter first: a concurrent mutation during the
       sweep at worst forces one extra recompute on the next get. *)
    let gen = Index_graph.generation s.idx in
    let st = compute s.idx in
    s.gen <- gen;
    s.cached <- Some st;
    s.recomputes <- s.recomputes + 1;
    st

let recomputes s = s.recomputes

let pp ppf t =
  Format.fprintf ppf "index nodes   %d@." t.n_nodes;
  Format.fprintf ppf "index edges   %d@." t.n_edges;
  Format.fprintf ppf "data nodes    %d (%.1fx compression)@." t.n_data_nodes t.compression;
  Format.fprintf ppf "extents       largest %d, singletons %d@." t.largest_extent
    t.singleton_extents;
  Format.fprintf ppf "similarity histogram:@.";
  List.iter
    (fun (k, n) ->
      if k < 0 then Format.fprintf ppf "  k=inf  %d nodes@." n
      else Format.fprintf ppf "  k=%-4d %d nodes@." k n)
    t.k_histogram;
  Format.fprintf ppf "busiest labels (index nodes / data nodes):@.";
  List.iteri
    (fun i (name, n, d) ->
      if i < 12 then Format.fprintf ppf "  %-28s %6d / %d@." name n d)
    t.label_rows
