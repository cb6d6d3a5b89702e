(* The compiled columnar engine against its oracle (DESIGN.md section
   16): the tree-walking interpreter ([~vectorize:false]).  The
   compiled engine must be observationally identical to it at every
   edge batch size — including NULL-heavy aggregation over LEFT OUTER
   JOIN, empty groups and non-kernelizable group shapes — while
   governors still trip at batch boundaries, batch faults still
   degrade gracefully, every batch is columnar, and required-column
   pruning is visible in the optimizer's plan notes. *)

module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Rowset = Aqua_relational.Rowset
module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Artifact = Aqua_dsp.Artifact
module Scan_cache = Aqua_dsp.Scan_cache
module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Batch = Aqua_xqeval.Batch
module Join_table = Aqua_xqeval.Join_table
module Kernels = Aqua_xqeval.Kernels
module Optimize = Aqua_xqeval.Optimize
module Budget = Aqua_resilience.Budget
module Failpoint = Aqua_resilience.Failpoint
module Sqlstate = Aqua_resilience.Sqlstate
module Telemetry = Aqua_core.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let edge_sizes = [ 1; 2; 7; 1024 ]

let with_batch_size n f =
  let prev = Batch.size () in
  Batch.set_size n;
  Fun.protect ~finally:(fun () -> Batch.set_size prev) f

let with_failpoints ?seed spec f =
  Failpoint.arm ?seed spec;
  Fun.protect ~finally:Failpoint.disarm f

let with_telemetry f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

let run conn sql =
  match Result_set.to_rowset (Connection.execute_query conn sql) with
  | rs -> Ok rs
  | exception e -> Error (Printexc.to_string e)

let agree ~what sql col oracle =
  match (col, oracle) with
  | Ok c, Ok o -> (
    match Rowset.diff_summary o c with
    | None -> ()
    | Some msg ->
      Alcotest.failf "%s diverged on %s: %s\n-- oracle:\n%s\n-- columnar:\n%s"
        what sql msg (Rowset.to_string o) (Rowset.to_string c))
  | Error _, Error _ -> ()
  | Ok _, Error e ->
    Alcotest.failf "%s: oracle raised (%s) but columnar succeeded on %s" what e
      sql
  | Error e, Ok _ ->
    Alcotest.failf "%s: columnar raised (%s) but oracle succeeded on %s" what e
      sql

(* --------------------------------------------------------------- *)
(* Fixed batteries at every edge batch size.                        *)

let battery_at_size size () =
  let app = Helpers.demo_app () in
  let col = Connection.connect app in
  let interp = Connection.connect ~vectorize:false app in
  with_batch_size size @@ fun () ->
  List.iter
    (fun sql ->
      agree ~what:(Printf.sprintf "battery@%d" size) sql (run col sql)
        (run interp sql))
    Test_differential.battery

(* Aggregation shapes the kernel path must cover: every kernel kind,
   the SUM-over-NULL fusion via LEFT OUTER JOIN (groups whose slices
   hold only empty payment columns), groups keyed by a nullable
   column, empty group sets after an always-false filter, and
   post-aggregation ORDER BY over kernel outputs. *)
let agg_queries =
  [ "SELECT C.CUSTOMERID, COUNT(*) N FROM CUSTOMERS C GROUP BY C.CUSTOMERID";
    "SELECT P.CUSTID, COUNT(*) N, SUM(P.PAYMENT) S, AVG(P.PAYMENT) A, \
     MIN(P.PAYMENT) MN, MAX(P.PAYMENT) MX FROM PAYMENTS P GROUP BY P.CUSTID";
    "SELECT C.CUSTOMERID, COUNT(P.PAYMENTID) N, SUM(P.PAYMENT) S FROM \
     CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID \
     GROUP BY C.CUSTOMERID";
    "SELECT C.CITY, COUNT(*) N, MIN(C.TIER) MN, MAX(C.TIER) MX FROM \
     CUSTOMERS C GROUP BY C.CITY";
    "SELECT O.STATUS, COUNT(*) N, SUM(O.AMOUNT) S FROM PO_CUSTOMERS O \
     GROUP BY O.STATUS ORDER BY O.STATUS";
    "SELECT P.CUSTID, COUNT(*) N, SUM(P.PAYMENT) S FROM PAYMENTS P \
     WHERE P.PAYMENT > 100000 GROUP BY P.CUSTID";
    "SELECT C.TIER, AVG(C.CUSTOMERID) A FROM CUSTOMERS C GROUP BY C.TIER";
    "SELECT C.CITY, MAX(C.CUSTOMERNAME) MX FROM CUSTOMERS C GROUP BY C.CITY" ]

let aggregation_battery () =
  let app = Helpers.demo_app () in
  let col = Connection.connect app in
  let interp = Connection.connect ~vectorize:false app in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      List.iter
        (fun sql ->
          agree ~what:(Printf.sprintf "agg@%d" size) sql (run col sql)
            (run interp sql))
        agg_queries)
    edge_sizes

(* --------------------------------------------------------------- *)
(* Randomized differential sweep, columnar vs the interpreter.       *)

let bench_app = lazy (
  Aqua_workload.Datagen.application
    { Aqua_workload.Datagen.customers = 12; orders = 25; lines_per_order = 2;
      payments = 18 })

let prop_columnar_differential =
  let app = Lazy.force bench_app in
  let tables = Aqua_dsp.Metadata.list_tables app in
  let col = Connection.connect app in
  let interp = Connection.connect ~vectorize:false app in
  QCheck.Test.make ~name:"random statements agree at every batch size"
    ~count:60
    QCheck.(
      make
        (fun rand -> Aqua_workload.Querygen.generate rand tables)
        ~print:Aqua_sql.Pretty.statement_to_string)
    (fun stmt ->
      let sql = Aqua_sql.Pretty.statement_to_string stmt in
      let expected = run interp sql in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          agree ~what:(Printf.sprintf "qcheck@%d" size) sql (run col sql)
            expected)
        edge_sizes;
      true)

(* --------------------------------------------------------------- *)
(* Governors trip at batch boundaries under the columnar layout.     *)

let sqlstate_of_query conn sql =
  match Connection.execute_query conn sql with
  | exception Sqlstate.Error e -> e.Sqlstate.sqlstate
  | _ -> Alcotest.fail "expected the governor to trip"

let governors_under_columnar () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT P.CUSTID, SUM(P.PAYMENT) S FROM PAYMENTS P GROUP BY P.CUSTID"
  in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      let fuel =
        Connection.connect ~limits:(Budget.limits ~max_fuel:10 ()) app
      in
      Alcotest.(check string)
        (Printf.sprintf "fuel governor @%d" size)
        "53000" (sqlstate_of_query fuel sql);
      let rows =
        Connection.connect
          ~limits:(Budget.limits ~max_rows:2 ())
          app
      in
      Alcotest.(check string)
        (Printf.sprintf "row governor @%d" size)
        "53400"
        (sqlstate_of_query rows "SELECT * FROM CUSTOMERS");
      let deadline =
        Connection.connect ~limits:(Budget.limits ~timeout_ms:0 ()) app
      in
      Alcotest.(check string)
        (Printf.sprintf "deadline probed at batch boundary @%d" size)
        "57014" (sqlstate_of_query deadline sql))
    [ 1; 7; 1024 ]

(* A batch fault at a boundary mid-aggregation degrades to the
   row-at-a-time rerun and still produces the oracle rows. *)
let midstream_failpoint_falls_back () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT P.CUSTID, COUNT(*) N, SUM(P.PAYMENT) S FROM PAYMENTS P \
     GROUP BY P.CUSTID"
  in
  let oracle =
    Aqua_sqlengine.Engine.execute_sql
      (Aqua_sqlengine.Engine.env_of_application app)
      sql
  in
  with_batch_size 2 @@ fun () ->
  with_telemetry @@ fun () ->
  with_failpoints "xqeval.batch=at(2)" @@ fun () ->
  let conn = Connection.connect app in
  let rs = Connection.execute_query conn sql in
  (match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
  | None -> ()
  | Some msg -> Alcotest.failf "mid-stream fallback wrong rows: %s" msg);
  check_bool "the batch fault actually fired" true
    (Telemetry.value Telemetry.c_faults_injected >= 1)

(* --------------------------------------------------------------- *)
(* Counter hygiene: on a default run every batch is columnar — the
   xqeval.columnar.* family moves in lockstep with xqeval.batch.*.    *)

let every_batch_is_columnar () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT P.CUSTID, SUM(P.PAYMENT) S FROM PAYMENTS P \
     WHERE P.PAYMENT > 50 GROUP BY P.CUSTID"
  in
  with_telemetry @@ fun () ->
  let col = Connection.connect app in
  ignore (Connection.execute_query col sql);
  let m = Telemetry.snapshot () in
  check_bool "columnar run pushes columnar batches" true
    (m.Telemetry.columnar_batches > 0);
  check_bool "columnar run carries rows" true (m.Telemetry.columnar_rows > 0);
  check_int "columnar batches also count as batch traffic"
    m.Telemetry.columnar_batches m.Telemetry.batch_batches;
  check_int "columnar rows also count as batch rows" m.Telemetry.columnar_rows
    m.Telemetry.batch_rows;
  check_bool "the aggregation ran through kernels" true
    (m.Telemetry.columnar_kernel_updates > 0);
  check_bool "the where filter dropped rows in-batch" true
    (m.Telemetry.batch_filtered > 0)

(* --------------------------------------------------------------- *)
(* Pruning goldens: the optimizer report names the columnar pipeline
   shape — kernels selected per group clause, columns carried vs
   pruned per expander.                                              *)

let pruning_notes_golden () =
  let app = Helpers.demo_app () in
  let notes sql =
    let t = Helpers.translate app sql in
    let _, report = Optimize.query t.Aqua_translator.Translator.xquery in
    String.concat "\n" report.Optimize.notes
  in
  let agg =
    "SELECT P.CUSTID, COUNT(*) N, SUM(P.PAYMENT) S FROM PAYMENTS P \
     GROUP BY P.CUSTID"
  in
  let s = notes agg in
  Helpers.assert_contains ~needle:"columnar layout: one value vector" s;
  Helpers.assert_contains ~needle:"kernels [" s;
  Helpers.assert_contains ~needle:"count" s;
  Helpers.assert_contains ~needle:"sum?" s;
  Helpers.assert_contains ~needle:"partition not materialized" s;
  let join =
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P \
     WHERE C.CUSTOMERID = P.CUSTID"
  in
  let s = notes join in
  Helpers.assert_contains ~needle:"columnar:" s;
  Helpers.assert_contains ~needle:"(pruned" s

(* Kernel recognition bails to the materializing path when the
   partition escapes the aggregate shapes — and the results agree
   either way. *)
let non_kernelizable_group_agrees () =
  let app = Helpers.demo_app () in
  (* DISTINCT inside the aggregate materializes the partition *)
  let sql =
    "SELECT P.CUSTID, COUNT(DISTINCT P.PAYMENT) N FROM PAYMENTS P \
     GROUP BY P.CUSTID"
  in
  let col = Connection.connect app in
  let row = Connection.connect ~vectorize:false app in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      agree ~what:(Printf.sprintf "distinct-agg@%d" size) sql (run col sql)
        (run row sql))
    edge_sizes

(* --------------------------------------------------------------- *)
(* Join_table.probe_batch: identical matches and errors to row-wise
   probe calls.                                                      *)

let probe_batch_matches_probe () =
  let item i = Item.Atomic (Atomic.Integer i) in
  let source = [ item 2; item 3; item 3; item 5 ] in
  let t =
    Join_table.build source ~key_of:(fun it -> [ it ]) ~value_cmp:true
  in
  let probes =
    [ [ Atomic.Integer 3 ]; []; [ Atomic.Integer 2 ]; [ Atomic.Integer 9 ] ]
  in
  let expected =
    List.concat
      (List.mapi
         (fun i atoms ->
           List.map (fun r -> (i, r)) (Join_table.probe t ~value_cmp:true atoms))
         probes)
  in
  let got = ref [] in
  Join_table.probe_batch t ~value_cmp:true ~rows:(List.length probes)
    ~atoms_of:(fun i -> List.nth probes i)
    ~emit:(fun i r -> got := (i, r) :: !got);
  Alcotest.(check (list (pair int int)))
    "batched probe emits the same (probe, build) pairs in order" expected
    (List.rev !got);
  (* cardinality error parity: a multi-atom probe against a nonempty
     build raises in both entry points *)
  let multi = [ Atomic.Integer 1; Atomic.Integer 2 ] in
  let raises f = match f () with _ -> false | exception _ -> true in
  check_bool "row-wise probe raises on multi-atom key" true
    (raises (fun () -> Join_table.probe t ~value_cmp:true multi));
  check_bool "batched probe raises on multi-atom key" true
    (raises (fun () ->
         Join_table.probe_batch t ~value_cmp:true ~rows:1
           ~atoms_of:(fun _ -> multi)
           ~emit:(fun _ _ -> ())))

(* --------------------------------------------------------------- *)
(* Columnar views: Rowset transposed batches and the scan cache's
   zero-copy value vector.                                           *)

let rowset_column_batches () =
  let schema =
    [ Schema.column ~nullable:false "A" Sql_type.Integer;
      Schema.column ~nullable:false "B" Sql_type.Integer ]
  in
  let rows =
    List.map (fun i -> [| Value.Int i; Value.Int (10 * i) |]) [ 1; 2; 3; 4; 5 ]
  in
  let rs = Rowset.make schema rows in
  let batches = Rowset.column_batches ~size:2 rs in
  Alcotest.(check (list int))
    "one vector per column, size-capped with a short tail" [ 2; 2; 1 ]
    (List.map (fun cols -> Array.length cols.(0)) batches);
  List.iter
    (fun cols -> check_int "every batch carries both columns" 2 (Array.length cols))
    batches;
  let col_a =
    List.concat_map (fun cols -> Array.to_list cols.(0)) batches
  in
  let col_b =
    List.concat_map (fun cols -> Array.to_list cols.(1)) batches
  in
  Alcotest.(check (list string))
    "column A preserves row order" [ "1"; "2"; "3"; "4"; "5" ]
    (List.map Value.to_display col_a);
  Alcotest.(check (list string))
    "column B is the transposed second column" [ "10"; "20"; "30"; "40"; "50" ]
    (List.map Value.to_display col_b)

let scan_cache_column_serve () =
  let app = Artifact.application "A" in
  let cache = Scan_cache.create app in
  let items = List.init 10 (fun i -> Item.Atomic (Atomic.Integer i)) in
  Scan_cache.store cache "k" items;
  (match Scan_cache.find_column cache "k" with
  | None -> Alcotest.fail "stored key must be served"
  | Some arr ->
    check_int "the whole scan as one vector" 10 (Array.length arr);
    check_bool "items shared, not copied" true
      (List.for_all2 ( == ) items (Array.to_list arr));
    (* zero-copy: a second columnar serve hands back the same array *)
    (match Scan_cache.find_column cache "k" with
    | Some arr' -> check_bool "repeat serve is the same array" true (arr == arr')
    | None -> Alcotest.fail "repeat lookup must still hit"));
  check_int "columnar lookups counted as hits" 2
    (Scan_cache.stats cache).Scan_cache.hits;
  check_bool "unknown key misses" true (Scan_cache.find_column cache "nope" = None)

(* --------------------------------------------------------------- *)
(* Group-key buffer reuse (row path satellite): grouping stays
   injective — groups keyed by values that stringify alike must not
   merge after the composite buffer became shared scratch.           *)

let group_key_injective_after_buffer_reuse () =
  let app = Artifact.application "G" in
  let t =
    Table.create "T"
      [ Schema.column ~nullable:false "K" (Sql_type.Varchar (Some 10));
        Schema.column ~nullable:false "V" Sql_type.Integer ]
  in
  (* "1" (string) vs 1 (int-looking string) and a NULL-adjacent empty
     string: all distinct group keys *)
  List.iter (fun (k, v) -> Table.insert t [ Value.Str k; Value.Int v ])
    [ ("1", 1); ("1 ", 2); ("", 3); ("1", 4) ];
  ignore (Artifact.import_physical_table app ~project:"P" t);
  let sql = "SELECT X.K, COUNT(*) N, SUM(X.V) S FROM T X GROUP BY X.K" in
  let col = Connection.connect app in
  let row = Connection.connect ~vectorize:false app in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      (match run col sql with
      | Ok rs -> check_int "three distinct groups" 3 (List.length rs.Rowset.rows)
      | Error e -> Alcotest.failf "columnar group failed: %s" e);
      agree ~what:(Printf.sprintf "group-key@%d" size) sql (run col sql)
        (run row sql))
    edge_sizes

let suite =
  ( "columnar",
    [ Helpers.case "battery agrees at batch size 1" (battery_at_size 1);
      Helpers.case "battery agrees at batch size 2" (battery_at_size 2);
      Helpers.case "battery agrees at batch size 7" (battery_at_size 7);
      Helpers.case "battery agrees at batch size 1024" (battery_at_size 1024);
      Helpers.case "aggregation kernels agree at every edge size"
        aggregation_battery;
      Helpers.qcheck prop_columnar_differential;
      Helpers.case "governors trip at batch boundaries"
        governors_under_columnar;
      Helpers.case "mid-stream batch fault falls back"
        midstream_failpoint_falls_back;
      Helpers.case "every batch is columnar" every_batch_is_columnar;
      Helpers.case "pruning and kernel notes in analyze output"
        pruning_notes_golden;
      Helpers.case "non-kernelizable groups agree"
        non_kernelizable_group_agrees;
      Helpers.case "batched probe matches row-wise probe"
        probe_batch_matches_probe;
      Helpers.case "rowset columnar batch view" rowset_column_batches;
      Helpers.case "scan cache zero-copy column serve" scan_cache_column_serve;
      Helpers.case "group keys stay injective under buffer reuse"
        group_key_injective_after_buffer_reuse ] )
