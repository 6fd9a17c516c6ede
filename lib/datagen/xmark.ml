open Dkindex_graph
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

(* Decimal fields without [Printf], which costs several hundred
   nanoseconds a call: [n >= 0] written over [b.[pos] ..] in [width]
   digits, zero-padded, and the template's bytes as a fresh string. *)
let put b pos width n =
  let n = ref n in
  for k = pos + width - 1 downto pos do
    Bytes.unsafe_set b k (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done

let stamp template fill =
  let b = Bytes.of_string template in
  fill b;
  Bytes.unsafe_to_string b

(* Every draw below is a [let] of its own, in the order the pinned
   dataset fixes.  That order is the one an earlier generator got from
   OCaml's right-to-left evaluation of list literals, [@] operands and
   [Printf] arguments, often the reverse of document order: values
   drawn before an element's earlier siblings are bound first and
   emitted in their place. *)
let date rng =
  let year = Prng.range rng 1998 2003 in
  let day = Prng.range rng 1 28 in
  let month = Prng.range rng 1 12 in
  stamp "MM/DD/YYYY" (fun b ->
      put b 0 2 month;
      put b 3 2 day;
      put b 6 4 year)

let money rng =
  let cents = Prng.range rng 0 99 in
  let dollars = Prng.range rng 1 500 in
  let w = if dollars >= 100 then 3 else if dollars >= 10 then 2 else 1 in
  stamp (String.make w 'd' ^ ".cc") (fun b ->
      put b 0 w dollars;
      put b (w + 1) 2 cents)

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

(* ------------------------------------------------------------------ *)
(* The sink: the generator's only output *)

(* Element labels are slots fixed when the module loads; each sink maps
   a slot to its own label code on first use, so codes come out in
   first-use (document) order. *)
let label_names = ref [||]

let label name =
  let slot = Array.length !label_names in
  label_names := Array.append !label_names [| name |];
  slot

module L = struct
  let site = label "site" and regions = label "regions" and categories = label "categories"
  let catgraph = label "catgraph" and edge = label "edge" and people = label "people"
  let open_auctions = label "open_auctions" and closed_auctions = label "closed_auctions"

  let region =
    Array.map label [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |]

  let item = label "item" and location = label "location" and quantity = label "quantity"
  let name = label "name" and payment = label "payment" and description = label "description"
  let shipping = label "shipping" and incategory = label "incategory" and mail = label "mail"
  let mailbox = label "mailbox" and from = label "from" and to_ = label "to"
  let date = label "date" and text = label "text" and category = label "category"
  let person = label "person" and emailaddress = label "emailaddress" and phone = label "phone"
  let address = label "address" and street = label "street" and city = label "city"
  let country = label "country" and zipcode = label "zipcode" and homepage = label "homepage"
  let creditcard = label "creditcard" and profile = label "profile" and age = label "age"
  let interest = label "interest" and education = label "education" and gender = label "gender"
  let business = label "business" and watches = label "watches" and watch = label "watch"
  let open_auction = label "open_auction" and initial = label "initial" and time = label "time"
  let reserve = label "reserve" and bidder = label "bidder" and personref = label "personref"
  let increase = label "increase" and current = label "current" and itemref = label "itemref"
  let seller = label "seller" and annotation = label "annotation" and author = label "author"
  let happiness = label "happiness" and type_ = label "type" and interval = label "interval"
  let start = label "start" and end_ = label "end" and closed_auction = label "closed_auction"
  let buyer = label "buyer" and price = label "price"
end

(* What an ID names and an IDREF points at; its value in XML is the
   kind's name followed by the number. *)
type kind = Category | Item | Person | Open_auction

let kind_name = function
  | Category -> "category" | Item -> "item" | Person -> "person" | Open_auction -> "open_auction"

let kind_slot = function Category -> 0 | Item -> 1 | Person -> 2 | Open_auction -> 3

type sink = {
  open_ : int -> unit;  (* a child of the open element, by label slot *)
  text : string -> unit;  (* a text payload in the open element *)
  id : kind -> int -> unit;  (* the open element is [kind] number [i] *)
  idref : string -> kind -> int -> unit;  (* an IDREF attribute (name) of the open element *)
  close : unit -> unit;
}

let leaf s l text =
  s.open_ l;
  s.text text;
  s.close ()

let leaves s = List.iter (fun (l, text) -> leaf s l text)

(* An empty element whose one IDREF attribute is named after its kind. *)
let ref_leaf s l kind i =
  s.open_ l;
  s.idref (kind_name kind) kind i;
  s.close ()

let elem s l body =
  s.open_ l;
  body ();
  s.close ()

(* The graph side of the sink, over {!Builder} or {!Graph_stream}:
   tree edges as elements open, IDs into per-kind int arrays, and
   IDREFs as (source, kind, number) triples that the returned [finish]
   turns into edges once every ID is known, returning how many.  Every
   IDREF names an ID the generator defines, so each one resolves. *)
let graph_sink (type g) (module G : Builder.S with type t = g) (g : g) pop =
  let names = !label_names in
  let codes = Array.make (Array.length names) (-1) in
  let stack = Array.make 16 (G.root g) and depth = ref 0 and refs = ref [] in
  let ids =
    Array.map (fun n -> Array.make n (-1))
      [| pop.n_categories; pop.n_items; pop.n_persons; pop.n_open |]
  in
  let code l =
    if codes.(l) < 0 then codes.(l) <- Label.to_int (Label.Pool.intern (G.pool g) names.(l));
    Label.of_int codes.(l)
  in
  let sink =
    {
      open_ =
        (fun l ->
          let node = G.add_child_code g ~parent:stack.(!depth) (code l) in
          incr depth;
          stack.(!depth) <- node);
      text = (fun text -> ignore (G.add_value ~text g ~parent:stack.(!depth)));
      id = (fun kind i -> ids.(kind_slot kind).(i) <- stack.(!depth));
      idref = (fun _ kind i -> refs := (stack.(!depth), kind_slot kind, i) :: !refs);
      close = (fun () -> decr depth);
    }
  in
  let finish () =
    List.iter (fun (source, kind, i) -> G.add_edge g source ids.(kind).(i)) !refs;
    List.length !refs
  in
  (sink, finish)

(* The same calls rendered as SAX events: a start tag waits for its
   attributes until the next call. *)
let event_sink emit =
  let names = !label_names in
  let tags = Array.make 16 "" and depth = ref 0 and pending = ref None in
  let flush () =
    Option.iter
      (fun (tag, attrs) -> emit (Xml_sax.Start_element { tag; attrs = List.rev attrs }))
      !pending;
    pending := None
  in
  let attr name kind i =
    let value = kind_name kind ^ string_of_int i in
    pending := Option.map (fun (tag, attrs) -> (tag, { Xml_ast.name; value } :: attrs)) !pending
  in
  {
    open_ =
      (fun l ->
        flush ();
        incr depth;
        tags.(!depth) <- names.(l);
        pending := Some (names.(l), []));
    text =
      (fun text ->
        flush ();
        emit (Xml_sax.Text text));
    id = attr "id";
    idref = attr;
    close =
      (fun () ->
        flush ();
        emit (Xml_sax.End_element tags.(!depth));
        decr depth);
  }

(* ------------------------------------------------------------------ *)
(* The generator *)

let gen_category s rng i =
  let description = phrase rng 6 in
  let name = phrase rng 2 in
  s.open_ L.category;
  s.id Category i;
  leaves s [ (L.name, name); (L.description, description) ];
  s.close ()

let gen_catgraph s rng pop =
  elem s L.catgraph (fun () ->
      for _ = 1 to max 1 (pop.n_categories / 2) do
        let to_ = Prng.int rng pop.n_categories in
        let from = Prng.int rng pop.n_categories in
        elem s L.edge (fun () ->
            s.idref "from" Category from;
            s.idref "to" Category to_)
      done)

let draw_mail rng =
  let text = phrase rng 8 in
  let date = date rng in
  let to_ = phrase rng 1 in
  let from = phrase rng 1 in
  [ (L.from, from); (L.to_, to_); (L.date, date); (L.text, text) ]

let gen_item s rng pop i =
  let n_cats = Prng.range rng 1 3 in
  let mails = List.init (Prng.geometric rng ~p:0.6 ~max:3) (fun _ -> draw_mail rng) in
  let cats = List.init n_cats (fun _ -> Prng.int rng pop.n_categories) in
  let description = phrase rng 10 in
  let name = phrase rng 2 in
  let quantity = Prng.range rng 1 10 in
  let location = Prng.choose rng countries in
  s.open_ L.item;
  s.id Item i;
  leaves s
    [ (L.location, location); (L.quantity, string_of_int quantity); (L.name, name);
      (L.payment, "Creditcard"); (L.description, description);
      (L.shipping, "Will ship internationally") ];
  List.iter (ref_leaf s L.incategory Category) cats;
  elem s L.mailbox (fun () -> List.iter (fun mail -> elem s L.mail (fun () -> leaves s mail)) mails);
  s.close ()

let gen_person s rng pop i =
  s.open_ L.person;
  s.id Person i;
  leaf s L.name (phrase rng 2);
  leaf s L.emailaddress ("mailto:p" ^ string_of_int i ^ "@example.com");
  if Prng.bool rng 0.5 then
    leaf s L.phone (stamp "+65 NNNNNNN" (fun b -> put b 4 7 (Prng.int rng 9999999)));
  if Prng.bool rng 0.6 then begin
    let zipcode = Prng.range rng 10000 99999 in
    let country = Prng.choose rng countries in
    let city = Prng.choose rng cities in
    let street = phrase rng 2 in
    elem s L.address (fun () ->
        leaves s
          [ (L.street, street); (L.city, city); (L.country, country);
            (L.zipcode, string_of_int zipcode) ])
  end;
  if Prng.bool rng 0.3 then leaf s L.homepage ("http://example.com/~p" ^ string_of_int i);
  if Prng.bool rng 0.4 then
    leaf s L.creditcard (stamp "NNNN 1234 5678" (fun b -> put b 0 4 (Prng.int rng 9999)));
  if Prng.bool rng 0.7 then begin
    let age = Prng.range rng 18 80 in
    let has_age = Prng.bool rng 0.5 in
    let business = if Prng.bool rng 0.3 then "Yes" else "No" in
    let gender = if Prng.bool rng 0.5 then "male" else "female" in
    let has_gender = Prng.bool rng 0.6 in
    let has_education = Prng.bool rng 0.4 in
    elem s L.profile (fun () ->
        for _ = 1 to Prng.geometric rng ~p:0.5 ~max:4 do
          ref_leaf s L.interest Category (Prng.int rng pop.n_categories)
        done;
        if has_education then leaf s L.education "Graduate School";
        if has_gender then leaf s L.gender gender;
        leaf s L.business business;
        if has_age then leaf s L.age (string_of_int age))
  end;
  if Prng.bool rng 0.4 then
    elem s L.watches (fun () ->
        for _ = 1 to Prng.range rng 1 3 do
          ref_leaf s L.watch Open_auction (Prng.int rng pop.n_open)
        done);
  s.close ()

(* An annotation is drawn before its auction's other children and
   emitted after them. *)
let draw_annotation s rng pop =
  let happiness =
    if Prng.bool rng 0.5 then Some (string_of_int (Prng.range rng 1 10)) else None
  in
  let description = phrase rng 6 in
  let author = Prng.int rng pop.n_persons in
  fun () ->
    elem s L.annotation (fun () ->
        ref_leaf s L.author Person author;
        leaf s L.description description;
        Option.iter (leaf s L.happiness) happiness)

let draw_bidder s rng pop =
  let increase = money rng in
  let person = Prng.int rng pop.n_persons in
  let minute = Prng.int rng 60 in
  let hour = Prng.int rng 24 in
  let date = date rng in
  let time = stamp "HH:MM:00" (fun b -> put b 0 2 hour; put b 3 2 minute) in
  fun () ->
    elem s L.bidder (fun () ->
        leaves s [ (L.date, date); (L.time, time) ];
        ref_leaf s L.personref Person person;
        leaf s L.increase increase)

let gen_open_auction s rng pop i =
  let end_ = date rng in
  let start = date rng in
  let type_ = if Prng.bool rng 0.5 then "Regular" else "Featured" in
  let quantity = Prng.range rng 1 5 in
  let annotation = draw_annotation s rng pop in
  let seller = Prng.int rng pop.n_persons in
  let item = Prng.int rng pop.n_items in
  let current = money rng in
  let bidders = List.init (Prng.geometric rng ~p:0.4 ~max:5) (fun _ -> draw_bidder s rng pop) in
  let reserve = if Prng.bool rng 0.4 then Some (money rng) else None in
  let initial = money rng in
  s.open_ L.open_auction;
  s.id Open_auction i;
  leaf s L.initial initial;
  Option.iter (leaf s L.reserve) reserve;
  List.iter (fun bidder -> bidder ()) bidders;
  leaf s L.current current;
  ref_leaf s L.itemref Item item;
  ref_leaf s L.seller Person seller;
  annotation ();
  leaves s [ (L.quantity, string_of_int quantity); (L.type_, type_) ];
  elem s L.interval (fun () -> leaves s [ (L.start, start); (L.end_, end_) ]);
  s.close ()

let gen_closed_auction s rng pop =
  let annotation = draw_annotation s rng pop in
  let quantity = Prng.range rng 1 5 in
  let date = date rng in
  let price = money rng in
  let item = Prng.int rng pop.n_items in
  let buyer = Prng.int rng pop.n_persons in
  let seller = Prng.int rng pop.n_persons in
  elem s L.closed_auction (fun () ->
      ref_leaf s L.seller Person seller;
      ref_leaf s L.buyer Person buyer;
      ref_leaf s L.itemref Item item;
      leaves s
        [ (L.price, price); (L.date, date); (L.quantity, string_of_int quantity);
          (L.type_, "Regular") ];
      annotation ())

(* The one generator.  Region assignments are drawn for every item up
   front: region-major document order needs them before the first
   item. *)
let generate ~seed pop s =
  let rng = Prng.create ~seed in
  let each l n gen = elem s l (fun () -> for i = 0 to n - 1 do gen i done) in
  let assignment = Array.init pop.n_items (fun _ -> Prng.int rng (Array.length L.region)) in
  elem s L.site (fun () ->
      elem s L.regions (fun () ->
          Array.iteri
            (fun r region ->
              each region pop.n_items (fun i -> if assignment.(i) = r then gen_item s rng pop i))
            L.region);
      each L.categories pop.n_categories (gen_category s rng);
      gen_catgraph s rng pop;
      each L.people pop.n_persons (gen_person s rng pop);
      each L.open_auctions pop.n_open (gen_open_auction s rng pop);
      each L.closed_auctions pop.n_closed (fun _ -> gen_closed_auction s rng pop))

let events ?(seed = 42) ~scale emit = generate ~seed (population scale) (event_sink emit)
let doc ?seed ~scale () = Xml_sax.collect (events ?seed ~scale)

let graph ?(seed = 42) ~scale () =
  let pop = population scale and b = Builder.create () in
  let sink, finish = graph_sink (module Builder) b pop in
  generate ~seed pop sink;
  ignore (finish ());
  Builder.build b

let stream ?(seed = 42) ?mem_budget ?tmp_dir ~scale ~path () =
  let pop = population scale and gs = Graph_stream.create ?mem_budget ?tmp_dir ~path () in
  let sink, finish = graph_sink (module Graph_stream) gs pop in
  match
    generate ~seed pop sink;
    finish ()
  with
  | n_refs ->
    Graph_stream.finish gs;
    n_refs
  | exception e ->
    Graph_stream.abort gs;
    raise e

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
