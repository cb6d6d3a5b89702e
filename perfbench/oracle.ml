(* Reply checking against the direct SQL engine.

   A wire reply is a list of text cells; the engine returns typed
   values.  The reply is typed back through the engine's output schema
   and compared as a multiset, plus row order on the ORDER BY keys
   that name output columns.  Timed replies are then checked by
   digest against a reply that passed this comparison. *)

module Engine = Aqua_sqlengine.Engine
module Rowset = Aqua_relational.Rowset
module Schema = Aqua_relational.Schema
module Value = Aqua_relational.Value
module Sql = Aqua_sql.Ast

type reply = { columns : string list; rows : string option list list }

let ordered sql = (Aqua_sql.Parser.parse sql).Sql.order_by <> []

(* Row order counts only under ORDER BY. *)
let digest ~ordered rows =
  let line r =
    String.concat "\x01" (List.map (function None -> "\x00" | Some s -> s) r)
  in
  let lines = List.map line rows in
  let lines = if ordered then lines else List.sort String.compare lines in
  Digest.string (String.concat "\x02" lines)

(* Output-column indexes of the ORDER BY keys; a key that is not an
   output column constrains nothing the reply shows. *)
let sort_keys (stmt : Sql.statement) (schema : Schema.t) =
  let index name =
    let rec go i = function
      | [] -> None
      | (c : Schema.column) :: rest ->
        if String.uppercase_ascii c.Schema.name = String.uppercase_ascii name
        then Some i
        else go (i + 1) rest
    in
    go 0 schema
  in
  List.filter_map
    (fun (o : Sql.order_item) ->
      match o.Sql.key with
      | Sql.Ord_position i -> Some (i - 1)
      | Sql.Ord_expr (Sql.Column { name; _ }) -> index name
      | Sql.Ord_expr _ -> None)
    stmt.Sql.order_by

let typed schema (reply : reply) =
  let cols = Array.of_list schema in
  List.map
    (fun row ->
      Array.of_list
        (List.mapi
           (fun i cell ->
             match cell with
             | None -> Value.Null
             | Some s -> Value.of_string cols.(i).Schema.ty s)
           row))
    reply.rows

(* [Ok ()] when the reply is the engine's answer to [sql]. *)
let check env sql (reply : reply) =
  match Engine.execute_sql env sql with
  | exception e -> Error ("oracle raised " ^ Printexc.to_string e)
  | direct -> (
    let schema = direct.Rowset.schema in
    if List.length reply.columns <> List.length schema then
      Error
        (Printf.sprintf "%d columns on the wire, %d from the engine"
           (List.length reply.columns) (List.length schema))
    else
      match typed schema reply with
      | exception e -> Error ("untypable reply: " ^ Printexc.to_string e)
      | rows -> (
        let via = Rowset.make schema rows in
        match Rowset.diff_summary direct via with
        | Some msg -> Error msg
        | None ->
          let keys = sort_keys (Aqua_sql.Parser.parse sql) schema in
          if keys = [] || Rowset.sorted_under_order_by ~keys direct via then
            Ok ()
          else Error "rows out of ORDER BY order"))

(* Bytes the reply occupied on the wire: RowDescription, DataRows,
   CommandComplete and ReadyForQuery, as {!Aqua_net.Wire} frames them. *)
let wire_bytes (reply : reply) =
  let desc =
    7 + List.fold_left (fun a c -> a + String.length c + 19) 0 reply.columns
  in
  let row r =
    7
    + List.fold_left
        (fun a c -> a + 4 + match c with None -> 0 | Some s -> String.length s)
        0 r
  in
  let tag = Printf.sprintf "SELECT %d" (List.length reply.rows) in
  desc
  + List.fold_left (fun a r -> a + row r) 0 reply.rows
  + (6 + String.length tag) + 6
