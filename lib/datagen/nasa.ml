open Dkindex_xml

let config =
  {
    Xml_to_graph.id_attrs = [ "id" ];
    idref_attrs =
      [ "related"; "definition"; "field"; "reference"; "dataset"; "journal" ];
  }

let words =
  [| "stellar"; "galactic"; "infrared"; "photometric"; "spectral"; "radial";
     "binary"; "variable"; "catalog"; "survey"; "cluster"; "nebula"; "proper";
     "motion"; "magnitude"; "flux" |]

let phrase rng n = String.concat " " (List.init n (fun _ -> Prng.choose rng words))
let el = Xml_ast.element
let txt s = [ Xml_ast.text s ]

let dataset_id i = Printf.sprintf "dataset%d" i
let definition_id i = Printf.sprintf "definition%d" i
let field_id i = Printf.sprintf "field%d" i
let reference_id i = Printf.sprintf "reference%d" i
let journal_id i = Printf.sprintf "journal%d" i

(* Per-document counters so ids are globally unique. *)
type counters = {
  mutable definitions : int;
  mutable fields : int;
  mutable references : int;
  mutable journals : int;
}

let gen_date rng =
  el "date"
    [
      Xml_ast.Element (el "year" (txt (string_of_int (Prng.range rng 1965 2002))));
      Xml_ast.Element (el "month" (txt (string_of_int (Prng.range rng 1 12))));
      Xml_ast.Element (el "day" (txt (string_of_int (Prng.range rng 1 28))));
    ]

let gen_author rng =
  el "author"
    ([
       Xml_ast.Element
         (el "lastName" (txt (String.capitalize_ascii (Prng.choose rng words))));
       Xml_ast.Element (el "firstName" (txt (String.capitalize_ascii (Prng.choose rng words))));
     ]
    @
    if Prng.bool rng 0.3 then [ Xml_ast.Element (el "initial" (txt "Q")) ] else [])

(* Recursive irregular prose: paras may contain footnotes which contain
   paras again; footnotes reference datasets, paras reference fields. *)
let rec gen_para rng cnt ~n_datasets ~depth =
  let attrs =
    if cnt.fields > 0 && Prng.bool rng 0.25 then
      [ ("field", field_id (Prng.int rng cnt.fields)) ]
    else []
  in
  let body = [ Xml_ast.Element (el "text" (txt (phrase rng 8))) ] in
  let notes =
    if depth > 0 && Prng.bool rng 0.3 then
      [ Xml_ast.Element (gen_footnote rng cnt ~n_datasets ~depth:(depth - 1)) ]
    else []
  in
  el ~attrs "para" (body @ notes)

and gen_footnote rng cnt ~n_datasets ~depth =
  let attrs =
    if Prng.bool rng 0.5 then [ ("dataset", dataset_id (Prng.int rng n_datasets)) ] else []
  in
  let paras =
    List.init (Prng.range rng 1 2) (fun _ ->
        Xml_ast.Element (gen_para rng cnt ~n_datasets ~depth))
  in
  el ~attrs "footnote" paras

let gen_source rng cnt =
  (* journal | book | other, with different inner shapes (irregularity). *)
  let authors = List.init (Prng.range rng 1 3) (fun _ -> Xml_ast.Element (gen_author rng)) in
  let kind = Prng.int rng 3 in
  let fresh_journal () =
    let id = cnt.journals in
    cnt.journals <- cnt.journals + 1;
    id
  in
  let inner =
    if kind = 0 then
      el
        ~attrs:[ ("id", journal_id (fresh_journal ())) ]
        "journal"
        ([
           Xml_ast.Element (el "title" (txt (phrase rng 3)));
           Xml_ast.Element (el "name" (txt (phrase rng 2)));
         ]
        @ authors
        @ [ Xml_ast.Element (gen_date rng) ]
        @
        if Prng.bool rng 0.6 then
          [ Xml_ast.Element (el "volume" (txt (string_of_int (Prng.range rng 1 400)))) ]
        else [])
    else if kind = 1 then
      el "book"
        ([ Xml_ast.Element (el "title" (txt (phrase rng 4))) ]
        @ authors
        @ [
            Xml_ast.Element (el "publisher" (txt (phrase rng 2)));
            Xml_ast.Element (gen_date rng);
          ])
    else
      el "other"
        ([ Xml_ast.Element (el "title" (txt (phrase rng 3))) ]
        @ authors
        @
        if Prng.bool rng 0.5 then [ Xml_ast.Element (el "city" (txt (phrase rng 1))) ] else [])
  in
  let attrs =
    if cnt.journals > 0 && kind <> 0 && Prng.bool rng 0.3 then
      [ ("journal", journal_id (Prng.int rng cnt.journals)) ]
    else []
  in
  el ~attrs "source" [ Xml_ast.Element inner ]

let gen_reference rng cnt =
  let id = reference_id cnt.references in
  cnt.references <- cnt.references + 1;
  el ~attrs:[ ("id", id) ] "reference" [ Xml_ast.Element (gen_source rng cnt) ]

let gen_definitions rng cnt =
  let n = Prng.range rng 1 4 in
  let def _ =
    let id = definition_id cnt.definitions in
    cnt.definitions <- cnt.definitions + 1;
    Xml_ast.Element (el ~attrs:[ ("id", id) ] "definition" (txt (phrase rng 5)))
  in
  el "definitions" (List.init n def)

let gen_keywords rng cnt =
  let keyword _ =
    let attrs =
      if cnt.definitions > 0 && Prng.bool rng 0.4 then
        [ ("definition", definition_id (Prng.int rng cnt.definitions)) ]
      else []
    in
    Xml_ast.Element (el ~attrs "keyword" (txt (Prng.choose rng words)))
  in
  el "keywords" (List.init (Prng.range rng 1 5) keyword)

let gen_field rng cnt =
  let id = field_id cnt.fields in
  cnt.fields <- cnt.fields + 1;
  let attrs =
    ("id", id)
    ::
    (if cnt.definitions > 0 && Prng.bool rng 0.5 then
       [ ("definition", definition_id (Prng.int rng cnt.definitions)) ]
     else [])
  in
  el ~attrs "field"
    ([ Xml_ast.Element (el "name" (txt (Prng.choose rng words))) ]
    @ (if Prng.bool rng 0.5 then [ Xml_ast.Element (el "units" (txt "mag")) ] else [])
    @
    if Prng.bool rng 0.3 then [ Xml_ast.Element (el "comment" (txt (phrase rng 4))) ]
    else [])

let gen_table_head rng cnt =
  let fields_before = cnt.fields in
  let fields = List.init (Prng.range rng 2 8) (fun _ -> Xml_ast.Element (gen_field rng cnt)) in
  let links =
    if cnt.fields > fields_before && Prng.bool rng 0.6 then
      let link _ =
        Xml_ast.Element
          (el
             ~attrs:[ ("field", field_id (Prng.range rng fields_before (cnt.fields - 1))) ]
             "tableLink"
             (txt (phrase rng 2)))
      in
      [ Xml_ast.Element (el "tableLinks" (List.init (Prng.range rng 1 3) link)) ]
    else []
  in
  el "tableHead" (links @ [ Xml_ast.Element (el "fields" fields) ])

let gen_history rng cnt =
  let revision _ =
    let attrs =
      if cnt.references > 0 && Prng.bool rng 0.5 then
        [ ("reference", reference_id (Prng.int rng cnt.references)) ]
      else []
    in
    Xml_ast.Element
      (el ~attrs "revision"
         [
           Xml_ast.Element (gen_date rng);
           Xml_ast.Element (el "creator" (txt (phrase rng 2)));
           Xml_ast.Element (el "description" (txt (phrase rng 6)));
         ])
  in
  el "history"
    ([
       Xml_ast.Element
         (el "ingest"
            [ Xml_ast.Element (gen_date rng); Xml_ast.Element (el "creator" (txt (phrase rng 2))) ]);
     ]
    @ List.init (Prng.geometric rng ~p:0.5 ~max:4) revision)

let gen_dataset rng cnt ~n_datasets i =
  let attrs =
    ("id", dataset_id i)
    :: ("subject", Prng.choose rng words)
    ::
    (if Prng.bool rng 0.4 then [ ("related", dataset_id (Prng.int rng n_datasets)) ] else [])
  in
  let altname _ =
    Xml_ast.Element
      (el ~attrs:[ ("type", if Prng.bool rng 0.5 then "ADC" else "CDS") ] "altname"
         (txt (phrase rng 1)))
  in
  (* [optional] must be lazy in its element: the generators allocate
     ids in [cnt], so running one and dropping its output would leave
     dangling references behind. *)
  let optional p gen = if Prng.bool rng p then [ Xml_ast.Element (gen ()) ] else [] in
  el ~attrs "dataset"
    ([ Xml_ast.Element (el "title" (txt (phrase rng 4))) ]
    @ List.init (Prng.geometric rng ~p:0.5 ~max:3) altname
    @ optional 0.7 (fun () -> gen_definitions rng cnt)
    @ optional 0.8 (fun () -> gen_keywords rng cnt)
    @ optional 0.6 (fun () ->
          el "descriptions"
            [
              Xml_ast.Element
                (el "description"
                   (List.init (Prng.range rng 1 3) (fun _ ->
                        Xml_ast.Element (gen_para rng cnt ~n_datasets ~depth:3))));
            ])
    @ List.init (Prng.geometric rng ~p:0.45 ~max:4) (fun _ ->
          Xml_ast.Element (gen_reference rng cnt))
    @ optional 0.7 (fun () -> gen_history rng cnt)
    @ optional 0.75 (fun () -> gen_table_head rng cnt)
    @ [ Xml_ast.Element (el "identifier" (txt (dataset_id i))) ])

(* Event emission is the primitive (see {!Xmark}); one dataset subtree
   is materialized at a time and flushed with [Xml_sax.emit_tree]. *)
let events ?(seed = 43) ~scale emit =
  let rng = Prng.create ~seed in
  let n_datasets = max 1 scale in
  let cnt = { definitions = 0; fields = 0; references = 0; journals = 0 } in
  emit (Xml_sax.Start_element { tag = "datasets"; attrs = [] });
  for i = 0 to n_datasets - 1 do
    Xml_sax.emit_tree (gen_dataset rng cnt ~n_datasets i) emit
  done;
  emit (Xml_sax.End_element "datasets")

let doc ?seed ~scale () = Xml_sax.collect (events ?seed ~scale)
let graph ?seed ~scale () = (Xml_to_graph.convert ~config (events ?seed ~scale)).graph

let stream ?seed ?mem_budget ?tmp_dir ~scale ~path () =
  Xml_to_graph.stream_to_container ~config ?mem_budget ?tmp_dir ~path (events ?seed ~scale)

let ref_pairs =
  [
    ("dataset", "dataset");
    ("keyword", "definition");
    ("field", "definition");
    ("tableLink", "field");
    ("revision", "reference");
    ("footnote", "dataset");
    ("para", "field");
    ("source", "journal");
  ]
