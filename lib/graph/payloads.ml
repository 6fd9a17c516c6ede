(* Parallel arrays of equal length; nodes strictly increasing. *)
type t = { nodes : int array; texts : string array }

let empty = { nodes = [||]; texts = [||] }
let length p = Array.length p.nodes

let node p i = p.nodes.(i)
let text p i = p.texts.(i)

let find p u =
  (* Invariant: the slot holding [u], if any, is in [lo, hi). *)
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) lsr 1 in
      let w = Array.unsafe_get p.nodes mid in
      if w = u then Some (Array.unsafe_get p.texts mid)
      else if w < u then go (mid + 1) hi
      else go lo mid
  in
  go 0 (length p)

let of_arrays nodes texts =
  let n = Array.length nodes in
  if Array.length texts <> n then invalid_arg "Payloads.of_arrays: lengths differ";
  for i = 1 to n - 1 do
    if nodes.(i) <= nodes.(i - 1) then invalid_arg "Payloads.of_arrays: nodes not increasing"
  done;
  { nodes; texts }

let iter p f =
  for i = 0 to length p - 1 do
    f (Array.unsafe_get p.nodes i) (Array.unsafe_get p.texts i)
  done

(* ------------------------------------------------------------------ *)
(* Accumulation *)

(* Appends fill fixed chunks of [chunk] slots.  A chunk that size is a
   minor-heap block, so filling the accumulator allocates nothing on
   the major heap until [freeze] gathers the chunks into exact-size
   arrays.  Arrays grown by doubling would leave their outgrown copies
   on the major heap, and at XMark scale 40 that is enough to pull two
   collections into a server launch. *)
let chunk = 256

type acc = {
  mutable full : (int array * string array) list;  (* filled chunks, newest first *)
  mutable chunk_nodes : int array;  (* the chunk being filled, live in [0, fill) *)
  mutable chunk_texts : string array;
  mutable fill : int;
  mutable len : int;  (* appends so far *)
  mutable last : int;  (* the node of the latest append *)
  mutable in_order : bool;  (* every append had a larger node than the one before *)
}

let acc () =
  { full = []; chunk_nodes = [||]; chunk_texts = [||]; fill = 0; len = 0; last = 0; in_order = true }

let add a u payload =
  if a.fill = Array.length a.chunk_nodes then begin
    if a.fill > 0 then a.full <- (a.chunk_nodes, a.chunk_texts) :: a.full;
    a.chunk_nodes <- Array.make chunk 0;
    a.chunk_texts <- Array.make chunk "";
    a.fill <- 0
  end;
  if a.len > 0 && u <= a.last then a.in_order <- false;
  Array.unsafe_set a.chunk_nodes a.fill u;
  Array.unsafe_set a.chunk_texts a.fill payload;
  a.fill <- a.fill + 1;
  a.len <- a.len + 1;
  a.last <- u

(* Sort by node, keeping the first append per node: a stable sort of
   the slot numbers, then one pass that skips every slot whose node
   equals the previous kept one. *)
let sort_dedup p =
  let n = length p in
  let perm = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Int.compare p.nodes.(i) p.nodes.(j)) perm;
  let nodes = Array.make n 0 and texts = Array.make n "" in
  let k = ref 0 in
  Array.iter
    (fun i ->
      let u = p.nodes.(i) in
      if !k = 0 || nodes.(!k - 1) <> u then begin
        nodes.(!k) <- u;
        texts.(!k) <- p.texts.(i);
        incr k
      end)
    perm;
  { nodes = Array.sub nodes 0 !k; texts = Array.sub texts 0 !k }

let freeze a =
  let nodes = Array.make a.len 0 and texts = Array.make a.len "" in
  (* Chunks back to front: the newest ends the arrays. *)
  let pos = ref a.len in
  let put (ns, ts) k =
    pos := !pos - k;
    Array.blit ns 0 nodes !pos k;
    Array.blit ts 0 texts !pos k
  in
  put (a.chunk_nodes, a.chunk_texts) a.fill;
  List.iter (fun c -> put c chunk) a.full;
  let p = { nodes; texts } in
  if a.in_order then p else sort_dedup p

let of_list l =
  let a = acc () in
  List.iter (fun (u, payload) -> add a u payload) l;
  freeze a
