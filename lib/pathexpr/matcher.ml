open Dkindex_graph

let eval_nfa g nfa ~cost =
  let n = Data_graph.n_nodes g in
  let states : Bitset.t option array = Array.make n None in
  let queue = Queue.create () in
  let enqueue u set =
    match states.(u) with
    | None ->
      states.(u) <- Some set;
      Queue.add u queue
    | Some existing -> if Bitset.union_into ~dst:existing set then Queue.add u queue
  in
  let init = Nfa.initial nfa in
  Data_graph.iter_nodes g (fun u ->
      let s = Nfa.step nfa init (Data_graph.label g u) in
      if not (Bitset.is_empty s) then enqueue u s);
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Cost.visit_data cost;
    match states.(u) with
    | None -> ()
    | Some su ->
      Data_graph.iter_children g u (fun c ->
          let t = Nfa.step nfa su (Data_graph.label g c) in
          if not (Bitset.is_empty t) then enqueue c t)
  done;
  let result = ref [] in
  for u = n - 1 downto 0 do
    match states.(u) with
    | Some s when Nfa.accepting nfa s -> result := u :: !result
    | Some _ | None -> ()
  done;
  !result

(* Scratch for [eval_label_path], reused across calls so a query that
   touches a handful of nodes does not pay three O(n) array allocations.
   Domain-local, so evaluations running on different domains cannot
   race.  The stamp array is never cleared: each call
   claims a fresh band of stamp values above [gen], so stale entries
   from earlier calls (all <= gen) can never collide. *)
type scratch = {
  mutable stamp : int array;
  mutable cur : int array;
  mutable nxt : int array;
  mutable gen : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { stamp = [||]; cur = [||]; nxt = [||]; gen = 0 })

let get_scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.stamp < n then begin
    s.stamp <- Array.make n 0;
    s.cur <- Array.make n 0;
    s.nxt <- Array.make n 0;
    s.gen <- 0
  end;
  s

let eval_label_path g path ~cost =
  let m = Array.length path in
  if m = 0 then []
  else begin
    let start = Data_graph.nodes_with_label g path.(0) in
    List.iter (fun _ -> Cost.visit_data cost) start;
    if m = 1 then start (* sorted and duplicate-free already *)
    else begin
      (* Flat int-array frontiers with stamp-array dedup: stamp.(c) =
         base + i marks c as already in level i's frontier, so no
         hashing and no per-level table allocation. *)
      let n = Data_graph.n_nodes g in
      let s = get_scratch n in
      let stamp = s.stamp in
      let base = s.gen in
      s.gen <- base + m;
      let cur = ref s.cur and next = ref s.nxt in
      let cur_len = ref 0 in
      List.iter
        (fun u ->
          !cur.(!cur_len) <- u;
          incr cur_len)
        start;
      for i = 1 to m - 1 do
        let w = ref 0 in
        let nxt = !next in
        for j = 0 to !cur_len - 1 do
          Data_graph.iter_children g !cur.(j) (fun c ->
              if stamp.(c) <> base + i && Label.equal (Data_graph.label g c) path.(i) then begin
                stamp.(c) <- base + i;
                nxt.(!w) <- c;
                incr w;
                Cost.visit_data cost
              end)
        done;
        let tmp = !cur in
        cur := !next;
        next := tmp;
        cur_len := !w
      done;
      Int_arr.sort_range !cur ~lo:0 ~hi:!cur_len;
      let result = ref [] in
      for j = !cur_len - 1 downto 0 do
        result := !cur.(j) :: !result
      done;
      !result
    end
  end

let make_path_validator ?memo g path ~cost =
  let m = Array.length path in
  let memo : (int * int, bool) Hashtbl.t =
    match memo with Some h -> h | None -> Hashtbl.create 256
  in
  (* [matches u pos]: does path.(0 .. pos) match some node path ending
     at u?  pos strictly decreases along recursion, so no cycles. *)
  let rec matches u pos =
    if not (Label.equal (Data_graph.label g u) path.(pos)) then false
    else if pos = 0 then true
    else
      match Hashtbl.find_opt memo (u, pos) with
      | Some r -> r
      | None ->
        Cost.visit_data cost;
        let r = Data_graph.exists_parents g u (fun p -> matches p (pos - 1)) in
        Hashtbl.add memo (u, pos) r;
        r
  in
  fun u -> m > 0 && matches u (m - 1)

let node_matches_nfa g nfa ~node ~cost =
  (* Restrict the product fixpoint to the node's ancestor closure: only
     paths through ancestors can end at [node]. *)
  let in_closure = Hashtbl.create 64 in
  let rec collect u =
    if not (Hashtbl.mem in_closure u) then begin
      Hashtbl.add in_closure u ();
      Cost.visit_data cost;
      Data_graph.iter_parents g u collect
    end
  in
  collect node;
  let states : (int, Bitset.t) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let enqueue u set =
    match Hashtbl.find_opt states u with
    | None ->
      Hashtbl.add states u set;
      Queue.add u queue
    | Some existing -> if Bitset.union_into ~dst:existing set then Queue.add u queue
  in
  let init = Nfa.initial nfa in
  Hashtbl.iter
    (fun u () ->
      let s = Nfa.step nfa init (Data_graph.label g u) in
      if not (Bitset.is_empty s) then enqueue u s)
    in_closure;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Cost.visit_data cost;
    match Hashtbl.find_opt states u with
    | None -> ()
    | Some su ->
      Data_graph.iter_children g u (fun c ->
          if Hashtbl.mem in_closure c then begin
            let t = Nfa.step nfa su (Data_graph.label g c) in
            if not (Bitset.is_empty t) then enqueue c t
          end)
  done;
  match Hashtbl.find_opt states node with
  | Some s -> Nfa.accepting nfa s
  | None -> false
