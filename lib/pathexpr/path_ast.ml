type t =
  | Any
  | Label of string
  | Seq of t * t
  | Alt of t * t
  | Opt of t
  | Star of t

let seq_of_labels = function
  | [] -> invalid_arg "Path_ast.seq_of_labels: empty path"
  | first :: rest -> List.fold_left (fun acc l -> Seq (acc, Label l)) (Label first) rest

let rec as_label_seq = function
  | Label l -> Some [ l ]
  | Seq (a, b) -> (
    match (as_label_seq a, as_label_seq b) with
    | Some xs, Some ys -> Some (xs @ ys)
    | _, _ -> None)
  | Any | Alt _ | Opt _ | Star _ -> None

let rec max_word_length = function
  | Any | Label _ -> Some 1
  | Seq (a, b) -> (
    match (max_word_length a, max_word_length b) with
    | Some x, Some y -> Some (x + y)
    | _, _ -> None)
  | Alt (a, b) -> (
    match (max_word_length a, max_word_length b) with
    | Some x, Some y -> Some (max x y)
    | _, _ -> None)
  | Opt a -> max_word_length a
  | Star a -> ( match max_word_length a with Some 0 -> Some 0 | Some _ | None -> None)

let rec min_word_length = function
  | Any | Label _ -> 1
  | Seq (a, b) -> min_word_length a + min_word_length b
  | Alt (a, b) -> min (min_word_length a) (min_word_length b)
  | Opt _ | Star _ -> 0

let labels expr =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Any -> ()
    | Label l ->
      if not (Hashtbl.mem seen l) then begin
        Hashtbl.add seen l ();
        acc := l :: !acc
      end
    | Seq (a, b) | Alt (a, b) ->
      go a;
      go b
    | Opt a | Star a -> go a
  in
  go expr;
  List.rev !acc

(* Precedence: Alt < Seq < postfix.  Parenthesize when a lower-precedence
   construct appears under a higher-precedence one. *)
let rec pp_prec prec ppf t =
  let open Format in
  match t with
  | Any -> pp_print_char ppf '_'
  | Label l -> pp_print_string ppf l
  | Seq (a, b) ->
    let doc ppf () = fprintf ppf "%a.%a" (pp_prec 1) a (pp_prec 1) b in
    if prec > 1 then fprintf ppf "(%a)" doc () else doc ppf ()
  | Alt (a, b) ->
    let doc ppf () = fprintf ppf "%a|%a" (pp_prec 0) a (pp_prec 0) b in
    if prec > 0 then fprintf ppf "(%a)" doc () else doc ppf ()
  | Opt a -> fprintf ppf "%a?" (pp_prec 2) a
  | Star a -> fprintf ppf "%a*" (pp_prec 2) a

let pp ppf t = pp_prec 0 ppf t
let to_string t = Format.asprintf "%a" pp t

let equal = ( = )
