type config = { id_attrs : string list; idref_attrs : string list }

let default_config = { id_attrs = [ "id" ]; idref_attrs = [ "idref"; "ref" ] }

type result = {
  graph : Dkindex_graph.Data_graph.t;
  n_reference_edges : int;
  unresolved_refs : string list;
}

module B = Dkindex_graph.Builder
module GS = Dkindex_graph.Graph_stream

let split_refs value =
  String.split_on_char ' ' value |> List.filter (fun s -> not (String.equal s ""))

(* The one conversion driver: feed the producer's events through the
   mapping into the in-RAM [Builder] or the out-of-core [Graph_stream]
   (both allocate node ids in call order, so they build identical
   graphs from the same events), then resolve the pending references.
   Returns [(n_reference_edges, unresolved_refs)]. *)
let run (type g) ?(config = default_config) (module G : B.S with type t = g) (g : g) events =
  let ids = Hashtbl.create 256 in
  let pending = ref [] (* (source node, target id string), newest first *)
  and stack = ref [ G.root g ] in
  let top () =
    match !stack with
    | node :: _ -> node
    | [] -> invalid_arg "Xml_to_graph: event after the root closed"
  in
  events (function
    | Xml_sax.Start_element { tag; attrs } ->
      let node = G.add_child g ~parent:(top ()) tag in
      List.iter
        (fun (a : Xml_ast.attr) ->
          if List.mem a.name config.id_attrs then Hashtbl.replace ids a.value node
          else if List.mem a.name config.idref_attrs then
            List.iter (fun target -> pending := (node, target) :: !pending) (split_refs a.value)
          else begin
            let attr_node = G.add_child g ~parent:node a.name in
            ignore (G.add_value ~text:a.value g ~parent:attr_node)
          end)
        attrs;
      stack := node :: !stack
    | Xml_sax.End_element _ -> (
      match !stack with
      | _ :: rest -> stack := rest
      | [] -> invalid_arg "Xml_to_graph: unmatched end event")
    | Xml_sax.Text text -> ignore (G.add_value ~text g ~parent:(top ())));
  let unresolved = ref [] and n_refs = ref 0 in
  List.iter
    (fun (source, target) ->
      match Hashtbl.find_opt ids target with
      | Some node ->
        G.add_edge g source node;
        incr n_refs
      | None -> unresolved := target :: !unresolved)
    !pending;
  (!n_refs, List.rev !unresolved)

let convert ?config events =
  let builder = B.create () in
  let n_refs, unresolved = run ?config (module B) builder events in
  { graph = B.build builder; n_reference_edges = n_refs; unresolved_refs = unresolved }

let convert_file ?config path = convert ?config (Xml_sax.iter_file path)

let stream_to_container ?config ?mem_budget ?tmp_dir ~path events =
  let gs = GS.create ?mem_budget ?tmp_dir ~path () in
  match run ?config (module GS) gs events with
  | stats ->
    GS.finish gs;
    stats
  | exception e ->
    GS.abort gs;
    raise e
