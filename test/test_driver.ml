(* JDBC-style driver: connection, result sets, prepared statements,
   database metadata. *)

module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Value = Aqua_relational.Value
module Metadata = Aqua_dsp.Metadata

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let conn ?transport () = Connection.connect ?transport (Helpers.demo_app ())

let cursor_api () =
  let c = conn () in
  let rs =
    Connection.execute_query c
      "SELECT CUSTOMERID, CUSTOMERNAME, CITY FROM CUSTOMERS ORDER BY CUSTOMERID"
  in
  check_int "column count" 3 (Result_set.column_count rs);
  check_str "label 1" "CUSTOMERID" (Result_set.column_label rs 1);
  check_str "label 3" "CITY" (Result_set.column_label rs 3);
  check_bool "first row" true (Result_set.next rs);
  check_bool "id" true (Result_set.get_int rs 1 = Some 1);
  check_bool "name" true (Result_set.get_string rs 2 = Some "Acme Widget Stores");
  check_bool "by label" true
    (Result_set.get_value_by_label rs "CITY" = Value.Str "Austin");
  check_bool "was_null false" false (Result_set.was_null rs);
  (* advance to customer 4, whose CITY is NULL *)
  check_bool "rows 2-4" true
    (Result_set.next rs && Result_set.next rs && Result_set.next rs);
  check_bool "null city" true (Result_set.get_string rs 3 = None);
  check_bool "was_null true" true (Result_set.was_null rs);
  check_bool "rows 5-6" true (Result_set.next rs && Result_set.next rs);
  check_bool "exhausted" false (Result_set.next rs);
  (* reading without a row *)
  match Result_set.get_value rs 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read past the last row"

let transports_equal () =
  let sql =
    "SELECT CUSTOMERNAME, TIER, CREDIT FROM CUSTOMERS ORDER BY CUSTOMERID"
  in
  ignore sql;
  let sql = "SELECT CUSTOMERNAME, TIER FROM CUSTOMERS ORDER BY CUSTOMERID" in
  let via_text = Helpers.driver_rows ~transport:Connection.Text (Helpers.demo_app ()) sql in
  let via_xml = Helpers.driver_rows ~transport:Connection.Xml (Helpers.demo_app ()) sql in
  Helpers.check_rows "transports" via_xml via_text

let switching_transport () =
  let c = conn ~transport:Connection.Xml () in
  check_bool "initial" true (Connection.transport c = Connection.Xml);
  Connection.set_transport c Connection.Text;
  check_bool "switched" true (Connection.transport c = Connection.Text);
  ignore (Connection.execute_query c "SELECT * FROM CUSTOMERS")

let prepared_statements () =
  let c = conn () in
  let stmt =
    Connection.Prepared.prepare c
      "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ? OR TIER = ?"
  in
  check_int "parameter count" 2 (Connection.Prepared.parameter_count stmt);
  (* unbound execution fails *)
  (match Connection.Prepared.execute_query stmt with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbound parameters accepted");
  Connection.Prepared.set_int stmt 1 2;
  Connection.Prepared.set_int stmt 2 3;
  let rs = Connection.Prepared.execute_query stmt in
  let rows = Result_set.to_rowset rs in
  check_int "supermart + zenith" 2 (List.length rows.Aqua_relational.Rowset.rows);
  (* rebinding and re-executing *)
  Connection.Prepared.set_int stmt 1 1;
  Connection.Prepared.set_int stmt 2 99;
  let rs2 = Connection.Prepared.execute_query stmt in
  check_int "only acme" 1
    (List.length (Result_set.to_rowset rs2).Aqua_relational.Rowset.rows);
  (* null parameter *)
  Connection.Prepared.clear_parameters stmt;
  Connection.Prepared.set_null stmt 1;
  Connection.Prepared.set_null stmt 2;
  let rs3 = Connection.Prepared.execute_query stmt in
  check_int "null params match nothing" 0
    (List.length (Result_set.to_rowset rs3).Aqua_relational.Rowset.rows);
  (* out of range *)
  match Connection.Prepared.set_int stmt 3 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad parameter index accepted"

let string_parameters () =
  let c = conn () in
  let stmt =
    Connection.Prepared.prepare c
      "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERNAME = ?"
  in
  Connection.Prepared.set_string stmt 1 "Sue";
  let rows = Result_set.to_rowset (Connection.Prepared.execute_query stmt) in
  check_int "one sue" 1 (List.length rows.Aqua_relational.Rowset.rows)

(* Prepared statements on an interpreter connection run the same
   queries through Eval instead of a compiled plan: every statement,
   transport and binding returns the rows the compiled engine does. *)
let prepared_on_interpreter () =
  let app = Helpers.demo_app () in
  let compiled = Connection.connect app in
  let interp = Connection.connect ~vectorize:false app in
  let rows c sql bind =
    let stmt = Connection.Prepared.prepare c sql in
    bind stmt;
    Aqua_relational.Rowset.to_string
      (Result_set.to_rowset (Connection.Prepared.execute_query stmt))
  in
  List.iter
    (fun transport ->
      Connection.set_transport compiled transport;
      Connection.set_transport interp transport;
      List.iter
        (fun (sql, bind) ->
          check_str sql (rows compiled sql bind) (rows interp sql bind))
        [ ( "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ? OR TIER = ?",
            fun s ->
              Connection.Prepared.set_int s 1 2;
              Connection.Prepared.set_int s 2 3 );
          ( "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERNAME = ?",
            fun s -> Connection.Prepared.set_string s 1 "Sue" );
          ( "SELECT CITY, COUNT(*) N FROM CUSTOMERS WHERE TIER >= ? GROUP BY \
             CITY ORDER BY CITY",
            fun s -> Connection.Prepared.set_int s 1 1 );
          ( "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT OUTER \
             JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID WHERE C.CUSTOMERID \
             <> ? ORDER BY 1, 2",
            fun s -> Connection.Prepared.set_int s 1 1 );
          ( "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?",
            fun s -> Connection.Prepared.set_null s 1 ) ])
    [ Connection.Text; Connection.Xml ]

let database_metadata () =
  let c = conn () in
  check_str "catalog" "DemoApp" (Connection.Database_metadata.catalog c);
  Alcotest.(check (list string)) "schemas (Figure 2)"
    [ "TestDataServices/CUSTOMERS";
      "TestDataServices/PAYMENTS";
      "TestDataServices/PO_CUSTOMERS" ]
    (Connection.Database_metadata.schemas c);
  check_int "tables" 3 (List.length (Connection.Database_metadata.tables c));
  (match Connection.Database_metadata.columns c ~table:"CUSTOMERS" with
  | Some cols -> check_int "customer columns" 4 (List.length cols)
  | None -> Alcotest.fail "no columns");
  check_bool "unknown table" true
    (Connection.Database_metadata.columns c ~table:"NOPE" = None)

let metadata_cache_counts () =
  let c = conn () in
  let cache = Connection.metadata_cache c in
  ignore (Connection.execute_query c "SELECT * FROM CUSTOMERS");
  ignore (Connection.execute_query c "SELECT * FROM CUSTOMERS");
  check_bool "cache hits recorded" true (Metadata.Cache.hits cache > 0)

let qualified_table_names () =
  let rows =
    Helpers.driver_rows (Helpers.demo_app ())
      "SELECT CUSTOMERID FROM \"TestDataServices/CUSTOMERS\".CUSTOMERS WHERE CUSTOMERID = 1"
  in
  Helpers.check_rows "schema-qualified" [ [ "1" ] ] rows

let odd_identifiers_pipeline () =
  (* mixed-case table, a column whose name needs XML sanitization, and
     quoted references all the way through translate/execute/decode *)
  let module Table = Aqua_relational.Table in
  let module Schema = Aqua_relational.Schema in
  let module Sql_type = Aqua_relational.Sql_type in
  let t =
    Table.create "Mixed_Case"
      [ Schema.column ~nullable:false "Plain" Sql_type.Integer;
        Schema.column "With Space" (Sql_type.Varchar None) ]
  in
  Table.insert t [ Value.Int 1; Value.Str "a b" ];
  Table.insert t [ Value.Int 2; Value.Null ];
  let app = Aqua_dsp.Artifact.application "OddApp" in
  ignore (Aqua_dsp.Artifact.import_physical_table app ~project:"P" t);
  List.iter
    (fun transport ->
      let rows =
        Helpers.driver_rows ~transport app
          "SELECT \"With Space\", PLAIN FROM mixed_case ORDER BY plain"
      in
      Helpers.check_rows "odd identifiers" [ [ "a b"; "1" ]; [ "NULL"; "2" ] ]
        rows)
    [ Connection.Text; Connection.Xml ]

let translation_is_deterministic () =
  let app = Helpers.demo_app () in
  let env = Aqua_translator.Semantic.env_of_application app in
  let sql =
    "SELECT C.CITY, COUNT(*) N FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P \
     ON C.CUSTOMERID = P.CUSTID GROUP BY C.CITY ORDER BY N DESC"
  in
  let once =
    Aqua_translator.Translator.to_string
      (Aqua_translator.Translator.translate env sql)
  in
  let twice =
    Aqua_translator.Translator.to_string
      (Aqua_translator.Translator.translate env sql)
  in
  check_str "same text every time" once twice

let suite =
  ( "driver",
    [ Helpers.case "cursor api" cursor_api;
      Helpers.case "transports equal" transports_equal;
      Helpers.case "transport switching" switching_transport;
      Helpers.case "prepared statements" prepared_statements;
      Helpers.case "string parameters" string_parameters;
      Helpers.case "prepared statements on the interpreter"
        prepared_on_interpreter;
      Helpers.case "database metadata" database_metadata;
      Helpers.case "metadata cache" metadata_cache_counts;
      Helpers.case "qualified table names" qualified_table_names;
      Helpers.case "odd identifiers through the pipeline" odd_identifiers_pipeline;
      Helpers.case "translation is deterministic" translation_is_deterministic ] )
