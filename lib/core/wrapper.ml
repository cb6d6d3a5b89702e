(* The result-handling wrapper of paper section 4: instead of shipping
   XML to the client, the translated query is wrapped in an outer
   query that emits the rows as text interspersed with column and row
   delimiters, via fn:string-join.

   The column delimiters are '<' and the row prefix '>'.  This is safe
   precisely because every value passes through fn-bea:xml-escape,
   after which the data can contain neither character (the paper's
   sample output `>987654<Acme Widget Stores` relies on the same
   property).  SQL NULL (an empty sequence) is encoded by
   fn-bea:if-empty as a single NUL byte, which escaped data can never
   contain either (control characters become character references).

   The optimizer recognizes exactly this shape and, when the rows are
   RECORD constructors, fuses the per-column encoders into them
   (Aqua_xqeval.Optimize, "Section-4 text encoder fusion"). *)

module X = Aqua_xquery.Ast
module Text_row = Aqua_xqeval.Text_row

let encode_column token_var (col : Outcol.t) : X.expr =
  X.call "fn-bea:if-empty"
    [ X.call "fn-bea:xml-escape"
        [ X.call "fn-bea:serialize-atomic"
            [ X.call "fn:data"
                [ X.path1 (X.var token_var) col.Outcol.element ] ] ];
      X.str Text_row.null_marker ]

let wrap (query : X.query) (columns : Outcol.t list) : X.query =
  let actual = "actualQuery" in
  let token = "tokenQuery" in
  let parts =
    List.concat
      (List.mapi
         (fun i col ->
           [ X.str (Text_row.separator i); encode_column token col ])
         columns)
  in
  let body =
    X.call "fn:string-join"
      [ X.Flwor
          {
            X.clauses =
              [ X.Let { var = actual; value = query.X.body };
                X.For
                  {
                    var = token;
                    source = X.path1 (X.var actual) "RECORD";
                  } ];
            X.return = X.Seq parts;
          };
        X.str "" ]
  in
  { query with X.body }

(* ------------------------------------------------------------------ *)
(* Client-side decoding                                               *)

exception Decode_error of string

let unescape s =
  (* inverse of fn-bea:xml-escape; a cell without a reference is its
     own decoding, and the runs between references are copied whole *)
  match String.index_opt s '&' with
  | None -> s
  | Some first ->
    let n = String.length s in
    let buf = Buffer.create n in
    let rec reference start amp =
      Buffer.add_substring buf s start (amp - start);
      let semi =
        match String.index_from_opt s amp ';' with
        | Some semi -> semi
        | None -> raise (Decode_error "unterminated character reference")
      in
      let at k c = s.[amp + k] = c in
      (match semi - amp - 1 with
      | 3 when at 1 'a' && at 2 'm' && at 3 'p' -> Buffer.add_char buf '&'
      | 2 when at 1 'l' && at 2 't' -> Buffer.add_char buf '<'
      | 2 when at 1 'g' && at 2 't' -> Buffer.add_char buf '>'
      | len -> (
        let name = String.sub s (amp + 1) len in
        if len > 1 && name.[0] = '#' then
          match int_of_string_opt (String.sub name 1 (len - 1)) with
          | Some c when c >= 0 && c < 256 -> Buffer.add_char buf (Char.chr c)
          | _ -> raise (Decode_error ("bad character reference &" ^ name ^ ";"))
        else raise (Decode_error ("unknown entity &" ^ name ^ ";"))));
      match String.index_from_opt s (semi + 1) '&' with
      | Some next -> reference (semi + 1) next
      | None -> Buffer.add_substring buf s (semi + 1) (n - semi - 1)
    in
    reference 0 first;
    Buffer.contents buf

let decode ~(columns : Outcol.t list) (text : string) :
    string option list list =
  (* Returns rows of optional lexical column values (None = NULL). *)
  if text = "" then []
  else begin
    if not (String.length text > 0 && text.[0] = Text_row.row_prefix.[0]) then
      raise (Decode_error "text result does not start with a row prefix");
    let rows =
      (* drop the leading empty chunk before the first '>' *)
      match String.split_on_char Text_row.row_prefix.[0] text with
      | "" :: rest -> rest
      | rest -> rest
    in
    let ncols = List.length columns in
    List.map
      (fun row ->
        let cells = String.split_on_char Text_row.column_separator.[0] row in
        if List.length cells <> ncols then
          raise
            (Decode_error
               (Printf.sprintf "row has %d cells, expected %d"
                  (List.length cells) ncols));
        List.map
          (fun cell ->
            if cell = Text_row.null_marker then None else Some (unescape cell))
          cells)
      rows
  end
