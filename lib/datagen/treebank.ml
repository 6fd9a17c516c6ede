open Dkindex_xml

let config =
  { Xml_to_graph.id_attrs = [ "id" ]; idref_attrs = [ "coindex"; "antecedent" ] }

let ref_pairs = [ ("trace", "NP"); ("trace", "WHNP") ]

let words =
  [| "the"; "a"; "market"; "shares"; "trading"; "company"; "investors"; "report";
     "yesterday"; "prices"; "new"; "old"; "rose"; "fell"; "said"; "bought" |]

let el = Xml_ast.element
let txt s = [ Xml_ast.text s ]

type ctx = {
  rng : Prng.t;
  mutable np_count : int;  (* NP/WHNP ids issued, targets for traces *)
  mutable pending_np : string list;  (* ids available for coindexing *)
}

let leaf ctx tag =
  el tag (txt (Prng.choose ctx.rng words))

(* A small probabilistic grammar over Treebank tags.  [depth] bounds
   recursion; productions get flatter as it runs out. *)
let rec sentence ctx ~depth = el "S" (np ctx ~depth:(depth - 1) :: vp ctx ~depth:(depth - 1))

and np ctx ~depth =
  let fresh_id () =
    let id = Printf.sprintf "np%d" ctx.np_count in
    ctx.np_count <- ctx.np_count + 1;
    ctx.pending_np <- id :: ctx.pending_np;
    id
  in
  let attrs = if Prng.bool ctx.rng 0.3 then [ ("id", fresh_id ()) ] else [] in
  let base = [ Xml_ast.Element (leaf ctx "DT"); Xml_ast.Element (leaf ctx "NN") ] in
  let adj = if Prng.bool ctx.rng 0.4 then [ Xml_ast.Element (leaf ctx "JJ") ] else [] in
  let post =
    if depth > 0 && Prng.bool ctx.rng 0.35 then [ Xml_ast.Element (pp ctx ~depth:(depth - 1)) ]
    else if depth > 0 && Prng.bool ctx.rng 0.25 then [ Xml_ast.Element (sbar ctx ~depth:(depth - 1)) ]
    else []
  in
  Xml_ast.Element (el ~attrs "NP" (adj @ base @ post))

and vp ctx ~depth =
  let verb = Xml_ast.Element (leaf ctx "VB") in
  let obj =
    if depth > 0 && Prng.bool ctx.rng 0.7 then [ np ctx ~depth:(depth - 1) ] else []
  in
  let trace =
    if ctx.pending_np <> [] && Prng.bool ctx.rng 0.35 then
      [
        Xml_ast.Element
          (el ~attrs:[ ("coindex", Prng.choose_list ctx.rng ctx.pending_np) ] "trace" []);
      ]
    else []
  in
  let adjunct =
    if depth > 0 && Prng.bool ctx.rng 0.3 then [ Xml_ast.Element (pp ctx ~depth:(depth - 1)) ]
    else []
  in
  let nested =
    if depth > 0 && Prng.bool ctx.rng 0.3 then
      [ Xml_ast.Element (el "VP" [ Xml_ast.Element (leaf ctx "VB"); Xml_ast.Element (sbar ctx ~depth:(depth - 1)) ]) ]
    else []
  in
  [ verb ] @ obj @ trace @ adjunct @ nested

and pp ctx ~depth =
  el "PP" [ Xml_ast.Element (leaf ctx "IN"); np ctx ~depth:(max 0 (depth - 1)) ]

and sbar ctx ~depth =
  let whnp =
    if Prng.bool ctx.rng 0.4 then begin
      let id = Printf.sprintf "np%d" ctx.np_count in
      ctx.np_count <- ctx.np_count + 1;
      ctx.pending_np <- id :: ctx.pending_np;
      [ Xml_ast.Element (el ~attrs:[ ("id", id) ] "WHNP" [ Xml_ast.Element (leaf ctx "WP") ]) ]
    end
    else []
  in
  el "SBAR" (whnp @ [ Xml_ast.Element (sentence ctx ~depth) ])

let doc ?(seed = 47) ~scale () =
  let ctx = { rng = Prng.create ~seed; np_count = 0; pending_np = [] } in
  let sentences =
    List.init (max 1 scale) (fun _ ->
        (* reset coindexation scope per sentence, as in the corpus *)
        ctx.pending_np <- [];
        Xml_ast.Element (sentence ctx ~depth:(10 + Prng.int ctx.rng 6)))
  in
  { Xml_ast.root = el "treebank" sentences }

let graph ?seed ~scale () =
  (Xml_to_graph.convert ~config (Xml_sax.emit_tree (doc ?seed ~scale ()).root)).graph
