module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Node = Aqua_xml.Node

let row_prefix = ">"
let column_separator = "<"
let null_marker = "\x00"

let row_fn = "#text-row"
let cell_fn = "#text-cell"

let needs_escape c =
  match c with
  | '&' | '<' | '>' -> true
  | '\t' | '\n' | '\r' -> false
  | c -> Char.code c < 0x20

let clean s =
  let n = String.length s in
  let rec go i =
    i = n || ((not (needs_escape (String.unsafe_get s i))) && go (i + 1))
  in
  go 0

let escape_into buf s =
  if clean s then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '&' -> Buffer.add_string buf "&amp;"
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | c when needs_escape c ->
          Buffer.add_string buf "&#";
          Buffer.add_string buf (string_of_int (Char.code c));
          Buffer.add_char buf ';'
        | c -> Buffer.add_char buf c)
      s

let escape s =
  if clean s then s
  else begin
    let buf = Buffer.create (String.length s + 16) in
    escape_into buf s;
    Buffer.contents buf
  end

(* Element content semantics: a run of adjacent atomic values becomes
   one text node, joined by single spaces; a node contributes its
   string value.  Appending each piece through [add] therefore yields
   the string value of [<E>{seq}</E>] without building it. *)
let add_content add buf seq =
  let rec go after_atomic = function
    | [] -> ()
    | Item.Atomic a :: rest ->
      if after_atomic then Buffer.add_char buf ' ';
      add buf (Atomic.to_lexical a);
      go true rest
    | Item.Node n :: rest ->
      add buf (Node.string_value n);
      go false rest
  in
  go false seq

let add_escaped_content buf seq = add_content escape_into buf seq

let content_string seq =
  let buf = Buffer.create 32 in
  add_content Buffer.add_string buf seq;
  Buffer.contents buf

let add_cell buf seq =
  match Item.atomize seq with
  | [] -> Buffer.add_string buf null_marker
  | [ a ] -> escape_into buf (Atomic.to_lexical a)
  | _ -> Error.fail "%s expects at most one atomic value per cell" row_fn

let separator i = if i = 0 then row_prefix else column_separator
