(* The compiling evaluator must agree with the reference interpreter
   on everything the translator emits. *)

module X = Aqua_xquery.Ast
module Compile = Aqua_xqeval.Compile
module Eval = Aqua_xqeval.Eval
module Item = Aqua_xml.Item
module Atomic = Aqua_xml.Atomic
module Server = Aqua_dsp.Server
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Connection = Aqua_driver.Connection
module Telemetry = Aqua_core.Telemetry
module Datagen = Aqua_workload.Datagen
module Querygen = Aqua_workload.Querygen
module Workload = Perfbench.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let same_sequences a b =
  List.length a = List.length b && List.for_all2 Item.equal a b

let eval_both ?(bindings = []) expr =
  let ctx =
    List.fold_left
      (fun ctx (n, v) -> Eval.bind ctx n v)
      (Eval.context ()) bindings
  in
  let interpreted = Eval.eval ctx expr in
  let compiled =
    Compile.run ~bindings
      (Compile.compile_expr ~vars:(List.map fst bindings) expr)
  in
  (interpreted, compiled)

let assert_agree ?bindings expr =
  let a, b = eval_both ?bindings expr in
  if not (same_sequences a b) then
    Alcotest.failf "interpreter and compiler disagree on %s"
      (Aqua_xquery.Pretty.expr_to_string expr)

let expression_agreement () =
  List.iter
    (fun src -> assert_agree (Aqua_xquery.Parser.parse_expr src))
    [ "1 + 2 * 3";
      "7 div 2";
      "(1, 2, 3)";
      "fn:sum((1, 2, 3))";
      "fn:string-join((\"a\", \"b\"), \"-\")";
      "if (1 = 1) then \"y\" else \"n\"";
      "some $x in (1, 2, 3) satisfies $x > 2";
      "every $x in (1, 2, 3) satisfies $x > 0";
      "for $x in (3, 1, 2) order by $x descending return $x";
      "for $x in (1, 2, 3) where $x != 2 let $y := $x * 10 return $y";
      "for $x in (1, 1, 2, 2, 2) group $x as $p by $x as $k return \
       fn:concat($k, \":\", fn:string(fn:count($p)))";
      "<R><A>{1 + 1}</A><B>x</B></R>";
      "fn:count((<a/>, <b/>)[2])" ]

let flwor_with_barriers () =
  (* order-by inside nested flwors, group with downstream clauses *)
  assert_agree
    (Aqua_xquery.Parser.parse_expr
       "for $x in (5, 3, 4, 3) group $x as $p by $x as $k order by $k \
        descending return <G><K>{$k}</K><N>{fn:count($p)}</N></G>");
  assert_agree
    (Aqua_xquery.Parser.parse_expr
       "for $x in (1, 2) return for $y in (9, 8) order by $y return \
        ($x * 10) + $y")

let compile_errors () =
  (match Compile.compile_expr (X.var "nope") with
  | exception Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "unknown variable compiled");
  (match Compile.compile_expr (X.call "fn:bogus" []) with
  | exception Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "unknown function compiled");
  (* variables dropped by group-by are compile errors *)
  match
    Compile.compile_expr
      (Aqua_xquery.Parser.parse_expr
         "for $x in (1, 2) let $y := $x group $x as $p by $x as $k return $y")
  with
  | exception Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "dropped binding compiled"

let external_bindings () =
  let compiled =
    Compile.compile_expr ~vars:[ "param1" ]
      (Aqua_xquery.Parser.parse_expr "$param1 + 1")
  in
  check_bool "bound run" true
    (Compile.run ~bindings:[ ("param1", Item.of_int 41) ] compiled
    = Item.of_int 42);
  match Compile.run compiled with
  | exception Aqua_xqeval.Error.Dynamic_error _ -> ()
  | _ -> Alcotest.fail "unbound external ran"

(* every translated battery query executes identically through
   Server.execute (ad hoc) and Server.prepare (a reusable plan) *)
let server_agreement () =
  let app = Helpers.demo_app () in
  let env = Semantic.env_of_application app in
  let srv = Server.create app in
  List.iter
    (fun sql ->
      let t = Translator.translate env sql in
      let interpreted = Server.execute srv t.Translator.xquery in
      let prepared = Server.prepare srv t.Translator.xquery in
      let compiled = Server.execute_prepared prepared in
      if not (same_sequences interpreted compiled) then
        Alcotest.failf "server paths disagree on %s" sql;
      (* compiled queries are reusable *)
      check_bool "re-execution stable" true
        (same_sequences compiled (Server.execute_prepared prepared)))
    [ "SELECT * FROM CUSTOMERS";
      "SELECT CUSTOMERID ID FROM CUSTOMERS WHERE CUSTOMERID > 2 ORDER BY 1 DESC";
      "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
      "SELECT CITY, COUNT(*) N, SUM(TIER) S FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1 ORDER BY N DESC";
      "SELECT CITY FROM CUSTOMERS WHERE TIER = 1 UNION SELECT CITY FROM CUSTOMERS WHERE TIER = 2";
      "SELECT CITY FROM CUSTOMERS EXCEPT ALL SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID > 3";
      "SELECT DISTINCT CITY, TIER FROM CUSTOMERS";
      "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE EXISTS (SELECT 1 FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID)";
      "SELECT (SELECT COUNT(*) FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID) N FROM CUSTOMERS C";
      "SELECT COUNT(*), SUM(TIER), MIN(CITY) FROM CUSTOMERS" ]

let prepared_parameters_via_server () =
  let app = Helpers.demo_app () in
  let env = Semantic.env_of_application app in
  let srv = Server.create app in
  let t =
    Translator.translate env
      "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?"
  in
  let prepared = Server.prepare ~vars:[ "param1" ] srv t.Translator.xquery in
  let run i =
    Server.execute_prepared ~bindings:[ ("param1", Item.of_int i) ] prepared
  in
  let count seq =
    List.length
      (List.concat_map
         (fun item ->
           match item with
           | Item.Node n -> Aqua_xml.Node.children_elements n
           | Item.Atomic _ -> [])
         seq)
  in
  check_int "one row for id 1" 1 (count (run 1));
  check_int "no rows for id 99" 0 (count (run 99))

(* property: random statements agree between the two evaluators *)
let prop_agreement =
  let app =
    Aqua_workload.Datagen.application
      { Aqua_workload.Datagen.customers = 10; orders = 20; lines_per_order = 2;
        payments = 12 }
  in
  let tables = Aqua_dsp.Metadata.list_tables app in
  let env = Semantic.env_of_application app in
  let srv = Server.create app in
  QCheck.Test.make ~name:"compiler agrees with interpreter" ~count:150
    QCheck.(
      make
        (fun rand -> Aqua_workload.Querygen.generate rand tables)
        ~print:Aqua_sql.Pretty.statement_to_string)
    (fun stmt ->
      let t = Translator.translate_statement env stmt in
      let interpreted = Server.execute srv t.Translator.xquery in
      let compiled =
        Server.execute_prepared (Server.prepare srv t.Translator.xquery)
      in
      same_sequences interpreted compiled)

(* [f ()] with telemetry on, and the interpreter fallbacks it caused. *)
let fallbacks_during f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  let v = f () in
  (v, Telemetry.value Telemetry.c_interpret_fallbacks)

(* Nothing the translator emits needs the interpreter: the fallback
   counter stays 0 over the differential batteries (the fixed one and
   the generated statements, both profiles), the paper's examples and
   every perfbench workload statement. *)
let no_interpret_fallbacks () =
  let check_none what app sqls =
    let conn = Connection.connect app in
    let (), n =
      fallbacks_during (fun () ->
          List.iter (fun sql -> ignore (Connection.execute_query conn sql)) sqls)
    in
    check_int (what ^ ": interpreter fallbacks") 0 n
  in
  check_none "differential battery" (Helpers.demo_app ())
    Test_differential.battery;
  let app = Lazy.force Test_differential.random_app in
  let tables = Aqua_dsp.Metadata.list_tables app in
  let rand = Random.State.make [| 42 |] in
  let generated profile n =
    List.init n (fun _ ->
        Aqua_sql.Pretty.statement_to_string
          (Querygen.generate ?profile rand tables))
  in
  check_none "generated statements" app
    (generated None 250 @ generated (Some Querygen.reporting_profile) 100);
  check_none "paper examples" (Test_golden_paper.paper_app ())
    Test_golden_paper.statements;
  let small =
    Datagen.application
      { Datagen.customers = 30; orders = 60; lines_per_order = 2;
        payments = 60 }
  in
  List.iter
    (fun (w : Workload.t) ->
      check_none ("perfbench " ^ w.Workload.name) small
        (Workload.warmup w ~seed:42))
    Workload.all

(* The positive case: an expression the compiler rejects (an undefined
   variable on a branch never taken) is answered by the interpreter,
   counted once, and visible in the Prometheus exposition. *)
let compile_rejection_is_counted () =
  let e =
    Aqua_xquery.Parser.parse_expr "if (fn:true()) then 1 else $undefined"
  in
  (match Compile.compile_expr e with
  | exception Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "the compiler accepted an undefined variable");
  let result, n = fallbacks_during (fun () -> Eval.eval (Eval.context ()) e) in
  check_int "one interpreter fallback" 1 n;
  check_bool "the interpreter's answer" true
    (same_sequences result (Item.of_int 1));
  let prom = Aqua_obs.Expose.prometheus () in
  Helpers.assert_contains ~needle:"aqua_xqeval_interpret_fallbacks_total 1"
    prom;
  Alcotest.(check (list string)) "exposition lints clean" []
    (Aqua_obs.Expose.lint prom)

let suite =
  ( "compile",
    [ Helpers.case "expression agreement" expression_agreement;
      Helpers.case "flwor barriers" flwor_with_barriers;
      Helpers.case "compile errors" compile_errors;
      Helpers.case "external bindings" external_bindings;
      Helpers.case "server agreement" server_agreement;
      Helpers.case "prepared parameters" prepared_parameters_via_server;
      Helpers.qcheck prop_agreement;
      Helpers.case "no statement falls back to the interpreter"
        no_interpret_fallbacks;
      Helpers.case "a compile rejection is counted"
        compile_rejection_is_counted ] )
