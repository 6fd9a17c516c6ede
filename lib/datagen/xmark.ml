open Dkindex_xml

let config =
  {
    Xml_to_graph.id_attrs = [ "id" ];
    idref_attrs = [ "category"; "item"; "person"; "open_auction"; "from"; "to" ];
  }

(* Small vocabularies for text content; actual strings are irrelevant to
   the structural experiments but keep generated files realistic. *)
let words =
  [| "gold"; "vintage"; "rare"; "mint"; "boxed"; "signed"; "classic"; "large";
     "small"; "blue"; "red"; "antique"; "modern"; "heavy"; "light"; "fine" |]

let cities = [| "Singapore"; "Berlin"; "Austin"; "Lyon"; "Osaka"; "Quito" |]
let countries = [| "Singapore"; "Germany"; "USA"; "France"; "Japan"; "Ecuador" |]

let phrase rng n =
  String.concat " " (List.init n (fun _ -> Prng.choose rng words))

let el = Xml_ast.element
let txt s = [ Xml_ast.text s ]

let date rng =
  Printf.sprintf "%02d/%02d/%d" (Prng.range rng 1 12) (Prng.range rng 1 28)
    (Prng.range rng 1998 2003)

let money rng = Printf.sprintf "%d.%02d" (Prng.range rng 1 500) (Prng.range rng 0 99)

type population = {
  n_items : int;
  n_categories : int;
  n_persons : int;
  n_open : int;
  n_closed : int;
}

let population scale =
  {
    n_items = max 1 scale;
    n_categories = max 2 (scale / 10);
    n_persons = max 2 scale;
    n_open = max 1 (scale * 3 / 4);
    n_closed = max 1 (scale / 2);
  }

let category_id i = Printf.sprintf "category%d" i
let item_id i = Printf.sprintf "item%d" i
let person_id i = Printf.sprintf "person%d" i
let auction_id i = Printf.sprintf "open_auction%d" i

let gen_category rng i =
  el ~attrs:[ ("id", category_id i) ] "category"
    [
      Xml_ast.Element (el "name" (txt (phrase rng 2)));
      Xml_ast.Element (el "description" (txt (phrase rng 6)));
    ]

let gen_catgraph rng pop =
  let n_edges = max 1 (pop.n_categories / 2) in
  let edge _ =
    Xml_ast.Element
      (el
         ~attrs:
           [
             ("from", category_id (Prng.int rng pop.n_categories));
             ("to", category_id (Prng.int rng pop.n_categories));
           ]
         "edge" [])
  in
  el "catgraph" (List.init n_edges edge)

let gen_mail rng =
  Xml_ast.Element
    (el "mail"
       [
         Xml_ast.Element (el "from" (txt (phrase rng 1)));
         Xml_ast.Element (el "to" (txt (phrase rng 1)));
         Xml_ast.Element (el "date" (txt (date rng)));
         Xml_ast.Element (el "text" (txt (phrase rng 8)));
       ])

let gen_item rng pop i =
  let incategory _ =
    Xml_ast.Element
      (el ~attrs:[ ("category", category_id (Prng.int rng pop.n_categories)) ] "incategory" [])
  in
  let n_cats = Prng.range rng 1 3 in
  let mails = List.init (Prng.geometric rng ~p:0.6 ~max:3) (fun _ -> gen_mail rng) in
  el ~attrs:[ ("id", item_id i) ] "item"
    ([
       Xml_ast.Element (el "location" (txt (Prng.choose rng countries)));
       Xml_ast.Element (el "quantity" (txt (string_of_int (Prng.range rng 1 10))));
       Xml_ast.Element (el "name" (txt (phrase rng 2)));
       Xml_ast.Element (el "payment" (txt "Creditcard"));
       Xml_ast.Element (el "description" (txt (phrase rng 10)));
       Xml_ast.Element (el "shipping" (txt "Will ship internationally"));
     ]
    @ List.init n_cats incategory
    @ [ Xml_ast.Element (el "mailbox" mails) ])

let region_names = [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |]

let gen_person rng pop i =
  let base =
    [
      Xml_ast.Element (el "name" (txt (phrase rng 2)));
      Xml_ast.Element (el "emailaddress" (txt (Printf.sprintf "mailto:p%d@example.com" i)));
    ]
  in
  let phone =
    if Prng.bool rng 0.5 then
      [ Xml_ast.Element (el "phone" (txt (Printf.sprintf "+65 %07d" (Prng.int rng 9999999)))) ]
    else []
  in
  let address =
    if Prng.bool rng 0.6 then
      [
        Xml_ast.Element
          (el "address"
             [
               Xml_ast.Element (el "street" (txt (phrase rng 2)));
               Xml_ast.Element (el "city" (txt (Prng.choose rng cities)));
               Xml_ast.Element (el "country" (txt (Prng.choose rng countries)));
               Xml_ast.Element (el "zipcode" (txt (string_of_int (Prng.range rng 10000 99999))));
             ]);
      ]
    else []
  in
  let homepage =
    if Prng.bool rng 0.3 then
      [ Xml_ast.Element (el "homepage" (txt (Printf.sprintf "http://example.com/~p%d" i))) ]
    else []
  in
  let creditcard =
    if Prng.bool rng 0.4 then
      [ Xml_ast.Element (el "creditcard" (txt (Printf.sprintf "%04d 1234 5678" (Prng.int rng 9999)))) ]
    else []
  in
  let profile =
    if Prng.bool rng 0.7 then
      let interest _ =
        Xml_ast.Element
          (el ~attrs:[ ("category", category_id (Prng.int rng pop.n_categories)) ] "interest" [])
      in
      let optional tag value p =
        if Prng.bool rng p then [ Xml_ast.Element (el tag (txt value)) ] else []
      in
      [
        Xml_ast.Element
          (el "profile"
             (List.init (Prng.geometric rng ~p:0.5 ~max:4) interest
             @ optional "education" "Graduate School" 0.4
             @ optional "gender" (if Prng.bool rng 0.5 then "male" else "female") 0.6
             @ [ Xml_ast.Element (el "business" (txt (if Prng.bool rng 0.3 then "Yes" else "No"))) ]
             @ optional "age" (string_of_int (Prng.range rng 18 80)) 0.5));
      ]
    else []
  in
  let watches =
    if pop.n_open > 0 && Prng.bool rng 0.4 then
      let watch _ =
        Xml_ast.Element
          (el ~attrs:[ ("open_auction", auction_id (Prng.int rng pop.n_open)) ] "watch" [])
      in
      [ Xml_ast.Element (el "watches" (List.init (Prng.range rng 1 3) watch)) ]
    else []
  in
  el ~attrs:[ ("id", person_id i) ] "person"
    (base @ phone @ address @ homepage @ creditcard @ profile @ watches)

let gen_annotation rng pop =
  el "annotation"
    ([
       Xml_ast.Element
         (el ~attrs:[ ("person", person_id (Prng.int rng pop.n_persons)) ] "author" []);
       Xml_ast.Element (el "description" (txt (phrase rng 6)));
     ]
    @
    if Prng.bool rng 0.5 then [ Xml_ast.Element (el "happiness" (txt (string_of_int (Prng.range rng 1 10)))) ]
    else [])

let gen_open_auction rng pop i =
  let bidder _ =
    Xml_ast.Element
      (el "bidder"
         [
           Xml_ast.Element (el "date" (txt (date rng)));
           Xml_ast.Element (el "time" (txt (Printf.sprintf "%02d:%02d:00" (Prng.int rng 24) (Prng.int rng 60))));
           Xml_ast.Element
             (el ~attrs:[ ("person", person_id (Prng.int rng pop.n_persons)) ] "personref" []);
           Xml_ast.Element (el "increase" (txt (money rng)));
         ])
  in
  el ~attrs:[ ("id", auction_id i) ] "open_auction"
    ([ Xml_ast.Element (el "initial" (txt (money rng))) ]
    @ (if Prng.bool rng 0.4 then [ Xml_ast.Element (el "reserve" (txt (money rng))) ] else [])
    @ List.init (Prng.geometric rng ~p:0.4 ~max:5) bidder
    @ [
        Xml_ast.Element (el "current" (txt (money rng)));
        Xml_ast.Element
          (el ~attrs:[ ("item", item_id (Prng.int rng pop.n_items)) ] "itemref" []);
        Xml_ast.Element
          (el ~attrs:[ ("person", person_id (Prng.int rng pop.n_persons)) ] "seller" []);
        Xml_ast.Element (gen_annotation rng pop);
        Xml_ast.Element (el "quantity" (txt (string_of_int (Prng.range rng 1 5))));
        Xml_ast.Element (el "type" (txt (if Prng.bool rng 0.5 then "Regular" else "Featured")));
        Xml_ast.Element
          (el "interval"
             [
               Xml_ast.Element (el "start" (txt (date rng)));
               Xml_ast.Element (el "end" (txt (date rng)));
             ]);
      ])

let gen_closed_auction rng pop =
  el "closed_auction"
    [
      Xml_ast.Element
        (el ~attrs:[ ("person", person_id (Prng.int rng pop.n_persons)) ] "seller" []);
      Xml_ast.Element
        (el ~attrs:[ ("person", person_id (Prng.int rng pop.n_persons)) ] "buyer" []);
      Xml_ast.Element
        (el ~attrs:[ ("item", item_id (Prng.int rng pop.n_items)) ] "itemref" []);
      Xml_ast.Element (el "price" (txt (money rng)));
      Xml_ast.Element (el "date" (txt (date rng)));
      Xml_ast.Element (el "quantity" (txt (string_of_int (Prng.range rng 1 5))));
      Xml_ast.Element (el "type" (txt "Regular"));
      Xml_ast.Element (gen_annotation rng pop);
    ]

(* Event emission is the primitive: [doc] collects the very same
   events that [graph] and [stream] feed to the graph builder and to a
   container sink, so the three can never diverge.  Each top-level
   chunk (one item, person, auction ...) is still built as a bounded
   [Xml_ast] subtree and flushed with [Xml_sax.emit_tree], so peak
   memory is one chunk, not the document.
   Region assignments are drawn for every item up front — region-major
   emission order needs them before the first region opens. *)
let events ?(seed = 42) ~scale emit =
  let rng = Prng.create ~seed in
  let pop = population scale in
  let start tag = emit (Xml_sax.Start_element { tag; attrs = [] }) in
  let close tag = emit (Xml_sax.End_element tag) in
  let sub element = Xml_sax.emit_tree element emit in
  start "site";
  start "regions";
  let assignment = Array.make pop.n_items 0 in
  for i = 0 to pop.n_items - 1 do
    assignment.(i) <- Prng.int rng (Array.length region_names)
  done;
  Array.iteri
    (fun r name ->
      start name;
      for i = 0 to pop.n_items - 1 do
        if assignment.(i) = r then sub (gen_item rng pop i)
      done;
      close name)
    region_names;
  close "regions";
  start "categories";
  for i = 0 to pop.n_categories - 1 do
    sub (gen_category rng i)
  done;
  close "categories";
  sub (gen_catgraph rng pop);
  start "people";
  for i = 0 to pop.n_persons - 1 do
    sub (gen_person rng pop i)
  done;
  close "people";
  start "open_auctions";
  for i = 0 to pop.n_open - 1 do
    sub (gen_open_auction rng pop i)
  done;
  close "open_auctions";
  start "closed_auctions";
  for _ = 1 to pop.n_closed do
    sub (gen_closed_auction rng pop)
  done;
  close "closed_auctions";
  close "site"

let doc ?seed ~scale () = Xml_sax.collect (events ?seed ~scale)
let graph ?seed ~scale () = (Xml_to_graph.convert ~config (events ?seed ~scale)).graph

let stream ?seed ?mem_budget ?tmp_dir ~scale ~path () =
  Xml_to_graph.stream_to_container ~config ?mem_budget ?tmp_dir ~path (events ?seed ~scale)

let ref_pairs =
  [
    ("incategory", "category");
    ("interest", "category");
    ("edge", "category");
    ("watch", "open_auction");
    ("personref", "person");
    ("seller", "person");
    ("buyer", "person");
    ("author", "person");
    ("itemref", "item");
  ]
