(* Golden tests reproducing the paper's worked examples (section 3.5
   and Figures 5-7).  The fixture mirrors the paper's schema:
   CUSTOMERS(CUSTOMERID, CUSTOMERNAME), PAYMENTS(CUSTID, PAYMENT),
   PO_CUSTOMERS(ORDERID, CUSTOMERID) in project TestDataServices.

   We assert the structural shape of each translation (the paper's
   output modulo whitespace and exact variable numbering) and that the
   translated query executes to the rows the SQL means. *)

module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Artifact = Aqua_dsp.Artifact

let paper_app () =
  let app = Artifact.application "PaperApp" in
  let project = "TestDataServices" in
  let customers =
    Table.create "CUSTOMERS"
      [ Schema.column ~nullable:false "CUSTOMERID" Sql_type.Integer;
        Schema.column ~nullable:false "CUSTOMERNAME" (Sql_type.Varchar (Some 40)) ]
  in
  Table.insert_all customers
    [ [ Value.Int 55; Value.Str "Joe" ];
      [ Value.Int 23; Value.Str "Sue" ];
      [ Value.Int 7; Value.Str "Ann" ] ];
  let payments =
    Table.create "PAYMENTS"
      [ Schema.column ~nullable:false "CUSTID" Sql_type.Integer;
        Schema.column ~nullable:false "PAYMENT" (Sql_type.Decimal (Some (10, 2))) ]
  in
  Table.insert_all payments
    [ [ Value.Int 55; Value.Num 10.0 ];
      [ Value.Int 55; Value.Num 20.0 ];
      [ Value.Int 23; Value.Num 5.5 ] ];
  let po =
    Table.create "PO_CUSTOMERS"
      [ Schema.column ~nullable:false "ORDERID" Sql_type.Integer;
        Schema.column ~nullable:false "CUSTOMERID" Sql_type.Integer ]
  in
  Table.insert_all po
    [ [ Value.Int 1; Value.Int 55 ];
      [ Value.Int 2; Value.Int 55 ];
      [ Value.Int 3; Value.Int 23 ] ];
  ignore (Artifact.import_physical_table app ~project customers);
  ignore (Artifact.import_physical_table app ~project payments);
  ignore (Artifact.import_physical_table app ~project po);
  app

let check = Helpers.assert_contains

(* Every statement the examples below translate. *)
let statements =
  [ "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME = 'Sue'";
    "SELECT * FROM CUSTOMERS";
    "SELECT CUSTOMERID ID FROM CUSTOMERS";
    "SELECT INFO.ID, INFO.NAME FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME \
     FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10 ORDER BY INFO.ID DESC";
    "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER \
     JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID ORDER BY 1, 2";
    "SELECT CUSTOMERS.CUSTOMERNAME, COUNT(PO_CUSTOMERS.ORDERID) N FROM \
     CUSTOMERS, PO_CUSTOMERS WHERE CUSTOMERS.CUSTOMERID = \
     PO_CUSTOMERS.CUSTOMERID GROUP BY CUSTOMERS.CUSTOMERID, \
     CUSTOMERS.CUSTOMERNAME ORDER BY N DESC";
    "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS" ]

(* Example 3: a typical XQuery over the CUSTOMERS() function. *)
let example_3_where_eq () =
  let app = paper_app () in
  let text =
    Helpers.xquery_text app
      "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME = 'Sue'"
  in
  check ~needle:"ns0:CUSTOMERS()" text;
  check ~needle:"CUSTOMERNAME = xs:string(\"Sue\")" text;
  Helpers.check_rows "rows" [ [ "23"; "Sue" ] ]
    (Helpers.driver_rows app
       "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME = 'Sue'")

(* Examples 5/6 and Figures 5-7: SELECT * FROM CUSTOMERS. *)
let example_5_6_star () =
  let app = paper_app () in
  let text = Helpers.xquery_text app "SELECT * FROM CUSTOMERS" in
  check ~needle:"import schema namespace ns0 = \"ld:TestDataServices/CUSTOMERS\" at \"ld:TestDataServices/schemas/CUSTOMERS.xsd\";" text;
  check ~needle:"<RECORDSET>" text;
  check ~needle:"for $var1FR0 in ns0:CUSTOMERS()" text;
  check ~needle:"<CUSTOMERS.CUSTOMERID>" text;
  check ~needle:"{fn:data($var1FR0/CUSTOMERID)}" text;
  check ~needle:"<CUSTOMERS.CUSTOMERNAME>" text;
  Helpers.assert_differential app "SELECT * FROM CUSTOMERS"

(* Example 4: aliased single column. *)
let example_4_alias () =
  let app = paper_app () in
  let text = Helpers.xquery_text app "SELECT CUSTOMERID ID FROM CUSTOMERS" in
  check ~needle:"<ID>" text;
  check ~needle:"{fn:data($var1FR0/CUSTOMERID)}" text

(* Examples 7/8: derived table becomes a let-bound RECORDSET. *)
let example_7_8_subquery () =
  let app = paper_app () in
  let sql =
    "SELECT INFO.ID, INFO.NAME FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME \
     FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10"
  in
  let text = Helpers.xquery_text app sql in
  check ~needle:"let $tempvar" text;
  check ~needle:"<RECORDSET>" text;
  check ~needle:"/RECORD" text;
  check ~needle:"<ID>" text;
  check ~needle:"<NAME>" text;
  check ~needle:"> xs:int(10)" text;
  check ~needle:"<INFO.ID>" text;
  check ~needle:"<INFO.NAME>" text;
  Helpers.check_rows "rows"
    [ [ "55"; "Joe" ]; [ "23"; "Sue" ] ]
    (Helpers.driver_rows app (sql ^ " ORDER BY INFO.ID DESC"))

(* Examples 9/10: left outer join via if (fn:empty(...)). *)
let example_9_10_left_outer () =
  let app = paper_app () in
  let sql =
    "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER \
     JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"
  in
  let text = Helpers.xquery_text app sql in
  check ~needle:"import schema namespace ns1 = \"ld:TestDataServices/PAYMENTS\"" text;
  check ~needle:"let $tempvar" text;
  check ~needle:"fn:empty" text;
  check ~needle:"<CUSTOMERS.CUSTOMERID>" text;
  check ~needle:"<PAYMENTS.PAYMENT>" text;
  Helpers.assert_differential app sql;
  (* Ann (customer 7) must appear with a NULL payment *)
  let rows = Helpers.driver_rows app (sql ^ " ORDER BY 1, 2") in
  Helpers.check_rows "null-extended row"
    [ [ "7"; "NULL" ]; [ "23"; "5.5" ]; [ "55"; "10" ]; [ "55"; "20" ] ]
    rows

(* Examples 11/12: join + group-by + aggregates + order-by. *)
let example_11_12_complex () =
  let app = paper_app () in
  let sql =
    "SELECT CUSTOMERS.CUSTOMERNAME, COUNT(PO_CUSTOMERS.ORDERID) N FROM \
     CUSTOMERS, PO_CUSTOMERS WHERE CUSTOMERS.CUSTOMERID = \
     PO_CUSTOMERS.CUSTOMERID GROUP BY CUSTOMERS.CUSTOMERID, \
     CUSTOMERS.CUSTOMERNAME ORDER BY N DESC"
  in
  let text = Helpers.xquery_text app sql in
  (* the double-for inner join *)
  check ~needle:"for $var1FR0 in ns0:CUSTOMERS()" text;
  check ~needle:"for $var1FR1 in ns1:PO_CUSTOMERS()" text;
  (* materialized intermediate and BEA group-by *)
  check ~needle:"let $tempvar" text;
  check ~needle:"group $" text;
  check ~needle:"Partition" text;
  check ~needle:"fn:count($" text;
  Helpers.check_rows "rows"
    [ [ "Joe"; "2" ]; [ "Sue"; "1" ] ]
    (Helpers.driver_rows app sql)

(* Section 4: the text-encoded result wrapper. *)
let section_4_wrapper () =
  let app = paper_app () in
  let t = Helpers.translate app "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS" in
  let wrapped = Aqua_translator.Translator.for_text_transport t in
  let text = Aqua_xquery.Pretty.query_to_string wrapped in
  check ~needle:"fn:string-join" text;
  check ~needle:"let $actualQuery :=" text;
  check ~needle:"for $tokenQuery in $actualQuery/RECORD" text;
  check ~needle:"fn-bea:if-empty" text;
  check ~needle:"fn-bea:xml-escape" text;
  check ~needle:"fn-bea:serialize-atomic" text;
  let srv = Aqua_dsp.Server.create app in
  let wire = Aqua_dsp.Server.execute_to_text srv wrapped in
  (* paper-style encoding: >id<name per row *)
  check ~needle:">55<Joe" wire;
  check ~needle:">23<Sue" wire

let suite =
  ( "golden-paper",
    [ Helpers.case "example 3 (where eq)" example_3_where_eq;
      Helpers.case "examples 5-6 / figures 5-7 (select star)" example_5_6_star;
      Helpers.case "example 4 (alias)" example_4_alias;
      Helpers.case "examples 7-8 (subquery)" example_7_8_subquery;
      Helpers.case "examples 9-10 (left outer join)" example_9_10_left_outer;
      Helpers.case "examples 11-12 (group-by)" example_11_12_complex;
      Helpers.case "section 4 (text wrapper)" section_4_wrapper ] )
