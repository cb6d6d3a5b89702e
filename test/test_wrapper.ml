(* Section-4 text transport: encoding and decoding, and the fused
   row encoder against the wrapper it replaces. *)

module Wrapper = Aqua_translator.Wrapper
module Outcol = Aqua_translator.Outcol
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Sql_type = Aqua_relational.Sql_type
module Schema = Aqua_relational.Schema
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Artifact = Aqua_dsp.Artifact
module Server = Aqua_dsp.Server
module Text_row = Aqua_xqeval.Text_row
module Optimize = Aqua_xqeval.Optimize
module Connection = Aqua_driver.Connection
module Telemetry = Aqua_core.Telemetry
module Datagen = Aqua_workload.Datagen
module Workload = Perfbench.Workload

let cols n =
  List.init n (fun i ->
      Outcol.make
        ~label:(Printf.sprintf "C%d" i)
        ~element:(Printf.sprintf "C%d" i)
        ~ty:(Sql_type.Varchar None) ~nullable:true)

let check_rows = Alcotest.(check (list (list (option string))))

(* Encode rows the way the generated wrapper query does. *)
let encode rows =
  String.concat ""
    (List.map
       (fun row ->
         String.concat ""
           (List.mapi
              (fun i cell ->
                let sep = if i = 0 then ">" else "<" in
                let body =
                  match cell with
                  | None -> "\x00"
                  | Some s -> Text_row.escape s
                in
                sep ^ body)
              row))
       rows)

let roundtrip rows ncols () =
  let text = encode rows in
  check_rows "decoded" rows (Wrapper.decode ~columns:(cols ncols) text)

let nasty_rows =
  [ [ Some "plain"; Some "" ];
    [ Some "a<b>c&d"; None ];
    [ Some ">starts"; Some "<mid<" ];
    [ Some "new\nline"; Some "tab\there" ];
    [ None; None ];
    [ Some "\x01control"; Some "d\x1fe" ] ]

let empty_result () =
  check_rows "no rows" [] (Wrapper.decode ~columns:(cols 2) "")

let decode_errors () =
  (match Wrapper.decode ~columns:(cols 2) "junk" with
  | exception Wrapper.Decode_error _ -> ()
  | _ -> Alcotest.fail "missing row prefix accepted");
  match Wrapper.decode ~columns:(cols 2) ">only-one-cell" with
  | exception Wrapper.Decode_error _ -> ()
  | _ -> Alcotest.fail "wrong arity accepted"

let unescape_cases () =
  Alcotest.(check string) "entities" "<&>" (Wrapper.unescape "&lt;&amp;&gt;");
  let plain = "no reference <here>" in
  Alcotest.(check bool) "a cell without '&' is returned uncopied" true
    (Wrapper.unescape plain == plain);
  Alcotest.(check string) "char ref" "\x01" (Wrapper.unescape "&#1;");
  Alcotest.(check string) "runs between references" "a<b&c>d\x00"
    (Wrapper.unescape "a&lt;b&amp;c&gt;d&#0;");
  (match Wrapper.unescape "x&amp" with
  | exception Wrapper.Decode_error _ -> ()
  | _ -> Alcotest.fail "unterminated reference accepted");
  (match Wrapper.unescape "&#256;" with
  | exception Wrapper.Decode_error _ -> ()
  | _ -> Alcotest.fail "out-of-range character reference accepted");
  match Wrapper.unescape "&bogus;" with
  | exception Wrapper.Decode_error _ -> ()
  | _ -> Alcotest.fail "bad entity accepted"

(* property: arbitrary strings and NULLs survive the round-trip *)
let arb_cell =
  QCheck.(
    option
      (string_gen_of_size (Gen.int_bound 12) (Gen.char_range '\x00' '\x7f')))

let prop_roundtrip =
  QCheck.Test.make ~name:"text transport round-trip" ~count:500
    QCheck.(list_of_size (Gen.int_range 1 6) (pair arb_cell arb_cell))
    (fun rows ->
      let rows = List.map (fun (a, b) -> [ a; b ]) rows in
      Wrapper.decode ~columns:(cols 2) (encode rows) = rows)

(* end-to-end: driver text transport equals xml transport on nasty data *)
let transports_agree_on_nasty_data () =
  let module Table = Aqua_relational.Table in
  let module Schema = Aqua_relational.Schema in
  let module Value = Aqua_relational.Value in
  let module Artifact = Aqua_dsp.Artifact in
  let t =
    Table.create "NASTY"
      [ Schema.column ~nullable:false "ID" Sql_type.Integer;
        Schema.column "S" (Sql_type.Varchar None) ]
  in
  List.iteri
    (fun i cell ->
      Table.insert t
        [ Value.Int i; (match cell with None -> Value.Null | Some s -> Value.Str s) ])
    [ Some "a<b>&c"; None; Some ""; Some ">x<"; Some "q\"uote'"; Some "\ttab" ];
  let app = Artifact.application "NastyApp" in
  ignore (Artifact.import_physical_table app ~project:"P" t);
  let sql = "SELECT ID, S FROM NASTY ORDER BY ID" in
  let via_text = Helpers.driver_rows ~transport:Aqua_driver.Connection.Text app sql in
  let via_xml = Helpers.driver_rows ~transport:Aqua_driver.Connection.Xml app sql in
  Helpers.check_rows "transports agree" via_xml via_text

(* ---------------------------------------------------------------- *)
(* The fused row encoder (Optimize "Section-4 text encoder fusion")   *)

let text_of srv q =
  match Server.execute_to_text srv q with
  | text -> Ok text
  | exception e -> Error (Printexc.to_string e)

let encode_of (q : Aqua_xquery.Ast.query) =
  (snd (Optimize.query q)).Optimize.encode

(* The fused text of the columnar engine and of the interpreter equals
   the unfused wrapper's ([~optimize:false], which never fuses) byte
   for byte at every edge batch size, and decodes and re-encodes to
   itself. *)
let assert_identical ~what app ~columns (wrapped : Aqua_xquery.Ast.query) =
  let expected = text_of (Server.create ~optimize:false app) wrapped in
  let engines =
    [ ("columnar", Server.create app);
      ("interpreter", Server.create ~vectorize:false app) ]
  in
  List.iter
    (fun size ->
      Test_columnar.with_batch_size size @@ fun () ->
      List.iter
        (fun (engine, srv) ->
          let where = Printf.sprintf "%s (%s @%d)" what engine size in
          match (expected, text_of srv wrapped) with
          | Ok e, Ok f ->
            if e <> f then
              Alcotest.failf "%s: fused text differs\n-- wrapper: %S\n-- fused:   %S"
                where e f;
            let decoded =
              try Wrapper.decode ~columns f
              with Wrapper.Decode_error m -> Alcotest.failf "%s: %s" where m
            in
            if encode decoded <> f then
              Alcotest.failf "%s: decode does not round-trip %S" where f
          | Error _, Error _ -> ()
          | Ok _, Error e -> Alcotest.failf "%s: fused raised %s" where e
          | Error e, Ok _ -> Alcotest.failf "%s: wrapper raised %s" where e)
        engines)
    Test_columnar.edge_sizes

let assert_sql_identical ~what app sql =
  let t = Translator.translate (Semantic.env_of_application app) sql in
  assert_identical ~what:(what ^ ": " ^ sql) app ~columns:t.Translator.columns
    (Translator.for_text_transport t)

let small_catalog =
  lazy
    (Datagen.application
       { Datagen.customers = 12; orders = 30; lines_per_order = 3;
         payments = 25 })

let fused_battery () =
  let demo = Helpers.demo_app () in
  List.iter (assert_sql_identical ~what:"battery" demo) Test_differential.battery;
  let paper = Test_golden_paper.paper_app () in
  List.iter (assert_sql_identical ~what:"paper" paper) Test_golden_paper.statements;
  Array.iter
    (assert_sql_identical ~what:"export" (Lazy.force small_catalog))
    Workload.export_statements

let prop_fused_differential =
  let app = Lazy.force small_catalog in
  let tables = Aqua_dsp.Metadata.list_tables app in
  QCheck.Test.make ~name:"fused text equals the wrapper on random statements"
    ~count:40
    QCheck.(
      make
        (fun rand -> Aqua_workload.Querygen.generate rand tables)
        ~print:Aqua_sql.Pretty.statement_to_string)
    (fun stmt ->
      assert_sql_identical ~what:"generated" app
        (Aqua_sql.Pretty.statement_to_string stmt);
      true)

(* Cells with both delimiters, '&', control and non-ASCII bytes, and
   the empty string next to NULL. *)
let arb_value =
  QCheck.(
    option
      (string_gen_of_size (Gen.int_bound 8)
         (Gen.oneof
            [ Gen.oneofl [ '<'; '>'; '&'; ';'; '#'; ' ' ];
              Gen.char_range '\x00' '\x1f';
              Gen.char_range 'a' 'e';
              Gen.char_range '\x80' '\xff' ])))

let nasty_app rows =
  let t =
    Table.create "NASTY"
      [ Schema.column ~nullable:false "ID" Sql_type.Integer;
        Schema.column "S" (Sql_type.Varchar None);
        Schema.column "T" (Sql_type.Varchar None) ]
  in
  let cell = function None -> Value.Null | Some s -> Value.Str s in
  List.iteri (fun i (s, t') -> Table.insert t [ Value.Int i; cell s; cell t' ]) rows;
  let app = Artifact.application "NastyApp" in
  ignore (Artifact.import_physical_table app ~project:"P" t);
  app

let prop_fused_nasty_values =
  QCheck.Test.make ~name:"fused text equals the wrapper on nasty values"
    ~count:60
    QCheck.(list_of_size (Gen.int_range 0 6) (pair arb_value arb_value))
    (fun rows ->
      let app = nasty_app rows in
      List.iter
        (assert_sql_identical ~what:"nasty" app)
        [ "SELECT * FROM NASTY";
          "SELECT S, ID FROM NASTY WHERE ID >= 1 ORDER BY ID DESC";
          "SELECT A.ID, B.S, B.T FROM NASTY A LEFT OUTER JOIN NASTY B ON \
           A.ID = B.ID + 1";
          "SELECT S, COUNT(*) N FROM NASTY GROUP BY S";
          "SELECT DISTINCT T FROM NASTY" ];
      (* and the values themselves survive *)
      let t =
        Translator.translate (Semantic.env_of_application app)
          "SELECT S, T FROM NASTY ORDER BY ID"
      in
      let text =
        Server.execute_to_text (Server.create app) (Translator.for_text_transport t)
      in
      Wrapper.decode ~columns:t.Translator.columns text
      = List.map (fun (s, t') -> [ s; t' ]) rows)

(* Element content semantics through a hand-written RECORDSET: empty
   content is "", several items join with a space, a guarded column is
   NULL when its guard holds. *)
let element_content_rules () =
  let q =
    Aqua_xquery.Parser.parse_query
      "<RECORDSET>{for $x in (1, 2) return <RECORD><C0>{()}</C0>\
       <C1>{($x, \"a<b\", $x)}</C1>\
       {if ($x = 2) then () else <C2>{$x}</C2>}</RECORD>}</RECORDSET>"
  in
  let app = Helpers.demo_app () in
  let wrapped = Wrapper.wrap q (cols 3) in
  Alcotest.(check (option string)) "fused" (Some "fused")
    (Option.map Optimize.encode_label (encode_of wrapped));
  Alcotest.(check string) "encoded" "><1 a&lt;b 1<1><2 a&lt;b 2<\x00"
    (Server.execute_to_text (Server.create app) wrapped);
  assert_identical ~what:"element content" app ~columns:(cols 3) wrapped

(* Shapes the fusion does not cover keep the wrapper, say why, and
   still produce the wrapper's bytes (or its error). *)
let general_shapes () =
  let app = Helpers.demo_app () in
  let expect ncols reason body =
    let wrapped = Wrapper.wrap (Aqua_xquery.Parser.parse_query body) (cols ncols) in
    Alcotest.(check (option string)) body
      (Some (Printf.sprintf "general (%s)" reason))
      (Option.map Optimize.encode_label (encode_of wrapped));
    assert_identical ~what:reason app ~columns:(cols ncols) wrapped
  in
  let rows record =
    Printf.sprintf
      "<RECORDSET>{for $x in (1, 2) return <RECORD>%s</RECORD>}</RECORDSET>"
      record
  in
  expect 2 "missing column element C1" (rows "<C0>{$x}</C0>");
  expect 2 "duplicated column element C0"
    (rows "<C0>{$x}</C0><C0>{$x}</C0><C1>{$x}</C1>");
  expect 2 "column elements unread or out of order"
    (rows "<C1>{$x}</C1><C0>{$x}</C0>");
  expect 2 "node content in column C0" (rows "<C0>{$x}<b/></C0><C1>{$x}</C1>");
  expect 1 "RECORD content other than column elements" (rows "{<C0>{$x}</C0>}x");
  expect 1 "rows other than RECORD constructors"
    "<RECORDSET>{let $s := <RECORDSET><RECORD><C0>1</C0></RECORD></RECORDSET> \
     for $r in $s/RECORD return $r}</RECORDSET>"

(* Every statement the benchmark's four workloads issue, and every
   paper example, encodes through the fused path, and the counters say
   so. *)
let no_general_encodes () =
  let catalogs =
    [ (Lazy.force small_catalog,
       List.concat_map (fun w -> Workload.warmup w ~seed:7) Workload.all);
      (Test_golden_paper.paper_app (), Test_golden_paper.statements) ]
  in
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) (fun () ->
      List.iter
        (fun (app, sqls) ->
          let conn = Connection.connect app in
          List.iter (fun sql -> ignore (Connection.execute_query conn sql)) sqls)
        catalogs);
  Alcotest.(check int) "general" 0
    (Telemetry.value Telemetry.c_text_encoder_general);
  Alcotest.(check int) "fused"
    (List.fold_left (fun n (_, sqls) -> n + List.length sqls) 0 catalogs)
    (Telemetry.value Telemetry.c_text_encoder_fused);
  List.iter
    (fun (app, sqls) ->
      let env = Semantic.env_of_application app in
      List.iter
        (fun sql ->
          let t = Translator.translate env sql in
          Alcotest.(check (option string)) sql (Some "fused")
            (Option.map Optimize.encode_label
               (encode_of (Translator.for_text_transport t))))
        sqls)
    catalogs

let suite =
  ( "wrapper",
    [ Helpers.case "round-trip simple" (roundtrip [ [ Some "a"; Some "b" ] ] 2);
      Helpers.case "round-trip nasty" (roundtrip nasty_rows 2);
      Helpers.case "empty result" empty_result;
      Helpers.case "decode errors" decode_errors;
      Helpers.case "unescape" unescape_cases;
      Helpers.qcheck prop_roundtrip;
      Helpers.case "transports agree on nasty data" transports_agree_on_nasty_data;
      Helpers.case "fused text equals the wrapper on the batteries" fused_battery;
      Helpers.qcheck prop_fused_differential;
      Helpers.qcheck prop_fused_nasty_values;
      Helpers.case "fused cells keep element content rules" element_content_rules;
      Helpers.case "other shapes stay general, with a reason" general_shapes;
      Helpers.case "no benchmark or paper statement encodes generally"
        no_general_encodes ] )
