type event =
  | Start_element of { tag : string; attrs : Xml_ast.attr list }
  | End_element of string
  | Text of string

exception Parse_error of { line : int; msg : string }

type phase =
  | Prolog
  | Content
  | Epilog
  | Done

type t = {
  source : in_channel option;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* valid bytes in buf *)
  mutable eof : bool;
  mutable line : int;
  mutable stack : string list;
  mutable phase : phase;
  mutable pending : event list;
}

let error t fmt = Printf.ksprintf (fun msg -> raise (Parse_error { line = t.line; msg })) fmt

let of_channel ?(buffer_size = 65536) ic =
  {
    source = Some ic;
    buf = Bytes.create (max 64 buffer_size);
    start = 0;
    len = 0;
    eof = false;
    line = 1;
    stack = [];
    phase = Prolog;
    pending = [];
  }

let of_string s =
  {
    source = None;
    buf = Bytes.of_string s;
    start = 0;
    len = String.length s;
    eof = true;
    line = 1;
    stack = [];
    phase = Prolog;
    pending = [];
  }

(* Make at least [n] unconsumed bytes available, or hit eof.  Returns
   the number actually available. *)
let ensure t n =
  let available () = t.len - t.start in
  if available () >= n || t.eof then available ()
  else begin
    (* compact *)
    if t.start > 0 then begin
      Bytes.blit t.buf t.start t.buf 0 (available ());
      t.len <- available ();
      t.start <- 0
    end;
    (* grow if a single token exceeds the buffer *)
    if n > Bytes.length t.buf then begin
      let bigger = Bytes.create (max n (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    (match t.source with
    | None -> t.eof <- true
    | Some ic ->
      let rec fill () =
        if t.len < Bytes.length t.buf && not t.eof then begin
          let got = input ic t.buf t.len (Bytes.length t.buf - t.len) in
          if got = 0 then t.eof <- true
          else begin
            t.len <- t.len + got;
            if t.len - t.start < n then fill ()
          end
        end
      in
      fill ());
    available ()
  end

let peek t = if ensure t 1 >= 1 then Some (Bytes.get t.buf t.start) else None

let advance t k =
  for i = t.start to t.start + k - 1 do
    if Char.equal (Bytes.get t.buf i) '\n' then t.line <- t.line + 1
  done;
  t.start <- t.start + k

let looking_at t s =
  let n = String.length s in
  ensure t n >= n && String.equal (Bytes.sub_string t.buf t.start n) s

let eat t s =
  if looking_at t s then begin
    advance t (String.length s);
    true
  end
  else false

let expect t s = if not (eat t s) then error t "expected %S" s

let is_space c = Char.equal c ' ' || Char.equal c '\t' || Char.equal c '\n' || Char.equal c '\r'

let skip_space t =
  let continue_ = ref true in
  while !continue_ do
    match peek t with
    | Some c when is_space c -> advance t 1
    | Some _ | None -> continue_ := false
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || Char.equal c '_' || Char.equal c ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || Char.equal c '-' || Char.equal c '.'

let parse_name t =
  (match peek t with
  | Some c when is_name_start c -> ()
  | Some c -> error t "expected a name, found %C" c
  | None -> error t "expected a name at end of input");
  let buf = Buffer.create 16 in
  let continue_ = ref true in
  while !continue_ do
    match peek t with
    | Some c when is_name_char c ->
      Buffer.add_char buf c;
      advance t 1
    | Some _ | None -> continue_ := false
  done;
  Buffer.contents buf

let decode_entity t =
  (* cursor just past '&' *)
  let buf = Buffer.create 8 in
  let rec read () =
    match peek t with
    | Some ';' -> advance t 1
    | Some c when Buffer.length buf < 32 ->
      Buffer.add_char buf c;
      advance t 1;
      read ()
    | Some _ -> error t "entity reference too long"
    | None -> error t "unterminated entity reference"
  in
  read ();
  match Buffer.contents buf with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "quot" -> "\""
  | "apos" -> "'"
  | entity ->
    let code =
      if String.length entity > 2 && Char.equal entity.[0] '#'
         && (Char.equal entity.[1] 'x' || Char.equal entity.[1] 'X') then
        int_of_string_opt ("0x" ^ String.sub entity 2 (String.length entity - 2))
      else if String.length entity > 1 && Char.equal entity.[0] '#' then
        int_of_string_opt (String.sub entity 1 (String.length entity - 1))
      else None
    in
    (match code with
    | Some c when c >= 0 && c < 128 -> String.make 1 (Char.chr c)
    | Some c ->
      let b = Buffer.create 4 in
      Buffer.add_utf_8_uchar b (Uchar.of_int c);
      Buffer.contents b
    | None -> error t "unknown entity &%s;" entity)

(* Skip (or collect) everything up to and including [closer]. *)
let scan_until t ?into closer =
  let n = String.length closer in
  let rec go () =
    if looking_at t closer then advance t n
    else
      match peek t with
      | Some c ->
        (match into with Some buf -> Buffer.add_char buf c | None -> ());
        advance t 1;
        go ()
      | None -> error t "unterminated construct (expected %S)" closer
  in
  go ()

let parse_attr_value t =
  let quote =
    match peek t with
    | Some (('"' | '\'') as q) ->
      advance t 1;
      q
    | Some _ | None -> error t "expected quoted attribute value"
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match peek t with
    | Some c when Char.equal c quote -> advance t 1
    | Some '&' ->
      advance t 1;
      Buffer.add_string buf (decode_entity t);
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance t 1;
      go ()
    | None -> error t "unterminated attribute value"
  in
  go ();
  Buffer.contents buf

let parse_attrs t =
  let rec go acc =
    skip_space t;
    match peek t with
    | Some c when is_name_start c ->
      let name = parse_name t in
      skip_space t;
      expect t "=";
      skip_space t;
      let value = parse_attr_value t in
      go ({ Xml_ast.name; value } :: acc)
    | Some _ | None -> List.rev acc
  in
  go []

let skip_doctype t =
  let rec go () =
    match peek t with
    | Some '[' ->
      advance t 1;
      scan_until t "]";
      go ()
    | Some '>' -> advance t 1
    | Some _ ->
      advance t 1;
      go ()
    | None -> error t "unterminated DOCTYPE"
  in
  go ()

(* Skip whitespace, comments, PIs and DOCTYPE between markup. *)
let rec skip_misc t =
  skip_space t;
  if looking_at t "<!--" then begin
    advance t 4;
    scan_until t "-->";
    skip_misc t
  end
  else if looking_at t "<!DOCTYPE" then begin
    advance t 9;
    skip_doctype t;
    skip_misc t
  end
  else if looking_at t "<?" then begin
    advance t 2;
    scan_until t "?>";
    skip_misc t
  end

let all_space s =
  let ok = ref true in
  String.iter (fun c -> if not (is_space c) then ok := false) s;
  !ok

let parse_open_tag t =
  expect t "<";
  let tag = parse_name t in
  let attrs = parse_attrs t in
  skip_space t;
  if eat t "/>" then begin
    t.pending <- [ End_element tag ];
    Start_element { tag; attrs }
  end
  else begin
    expect t ">";
    t.stack <- tag :: t.stack;
    Start_element { tag; attrs }
  end

let parse_close_tag t =
  expect t "</";
  let tag = parse_name t in
  skip_space t;
  expect t ">";
  match t.stack with
  | top :: rest when String.equal top tag ->
    t.stack <- rest;
    if rest = [] then t.phase <- Epilog;
    End_element tag
  | top :: _ -> error t "mismatched closing tag </%s> for <%s>" tag top
  | [] -> error t "closing tag </%s> without an open element" tag

let rec content_event t =
  if looking_at t "</" then parse_close_tag t
  else if looking_at t "<!--" then begin
    advance t 4;
    scan_until t "-->";
    content_event t
  end
  else if looking_at t "<![CDATA[" then begin
    advance t 9;
    let buf = Buffer.create 32 in
    scan_until t ~into:buf "]]>";
    Text (Buffer.contents buf)
  end
  else if looking_at t "<?" then begin
    advance t 2;
    scan_until t "?>";
    content_event t
  end
  else
    match peek t with
    | Some '<' -> parse_open_tag t
    | Some _ ->
      let buf = Buffer.create 32 in
      let rec text () =
        match peek t with
        | Some '<' | None -> ()
        | Some '&' ->
          advance t 1;
          Buffer.add_string buf (decode_entity t);
          text ()
        | Some c ->
          Buffer.add_char buf c;
          advance t 1;
          text ()
      in
      text ();
      let data = Buffer.contents buf in
      if all_space data then content_event t else Text data
    | None -> error t "unexpected end of input inside <%s>" (List.hd t.stack)

let rec next t =
  match t.pending with
  | event :: rest ->
    t.pending <- rest;
    if t.stack = [] && t.phase = Content then t.phase <- Epilog;
    Some event
  | [] -> (
    match t.phase with
    | Done -> None
    | Prolog ->
      skip_misc t;
      (match peek t with
      | Some '<' ->
        t.phase <- Content;
        Some (parse_open_tag t)
      | Some c -> error t "expected root element, found %C" c
      | None -> error t "empty document")
    | Epilog ->
      skip_misc t;
      (match peek t with
      | None ->
        t.phase <- Done;
        None
      | Some c -> error t "trailing content after root element (%C)" c)
    | Content ->
      if t.stack = [] then begin
        t.phase <- Epilog;
        next t
      end
      else Some (content_event t))

let iter t emit =
  let rec go () =
    match next t with
    | Some event ->
      emit event;
      go ()
    | None -> ()
  in
  go ()

let iter_file path emit =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> iter (of_channel ic) emit)

(* Tree <-> event bridges: the generators emit events as the primitive,
   [collect] rebuilds the tree for the materializing [doc] API and for
   [parse_string], and [emit_tree] lets a generator build a bounded
   subtree with the ordinary Xml_ast constructors and flush it into the
   event stream. *)

let emit_tree (root : Xml_ast.element) emit =
  let rec go (el : Xml_ast.element) =
    emit (Start_element { tag = el.tag; attrs = el.attrs });
    List.iter
      (function Xml_ast.Element child -> go child | Xml_ast.Text text -> emit (Text text))
      el.children;
    emit (End_element el.tag)
  in
  go root

type frame = {
  f_tag : string;
  f_attrs : Xml_ast.attr list;
  mutable f_children : Xml_ast.node list;  (* reverse document order *)
}

let collect events =
  let stack = ref [] and result = ref None in
  events (function
    | Start_element { tag; attrs } ->
      if !result <> None then invalid_arg "Xml_sax.collect: second root element";
      stack := { f_tag = tag; f_attrs = attrs; f_children = [] } :: !stack
    | Text text -> (
      match !stack with
      | top :: _ -> top.f_children <- Xml_ast.Text text :: top.f_children
      | [] -> invalid_arg "Xml_sax.collect: text outside any element")
    | End_element tag -> (
      match !stack with
      | top :: rest ->
        if not (String.equal top.f_tag tag) then
          invalid_arg (Printf.sprintf "Xml_sax.collect: </%s> closes <%s>" tag top.f_tag);
        let el = { Xml_ast.tag; attrs = top.f_attrs; children = List.rev top.f_children } in
        stack := rest;
        (match rest with
        | parent :: _ -> parent.f_children <- Xml_ast.Element el :: parent.f_children
        | [] -> result := Some el)
      | [] -> invalid_arg "Xml_sax.collect: end event without a matching start"));
  match (!result, !stack) with
  | Some root, [] -> { Xml_ast.root }
  | _, _ :: _ -> invalid_arg "Xml_sax.collect: unclosed element"
  | None, [] -> invalid_arg "Xml_sax.collect: no events"

let parse_string s = collect (iter (of_string s))
let parse_file path = collect (iter_file path)

let pp_error ppf = function
  | Parse_error { line; msg } -> Format.fprintf ppf "XML parse error at line %d: %s" line msg
  | exn -> raise exn
