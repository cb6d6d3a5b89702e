(* Tests of the benchmark's own code: its statement streams, the
   properties each workload is chosen for, the oracle comparison and
   the ledger arithmetic. *)

open Perfbench

let workload name = Option.get (Workload.find name)
let texts w ~seed n = List.init n (Workload.statement w ~seed)

let same_seed_same_sequence () =
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check (list string))
        (w.Workload.name ^ " replays") (texts w ~seed:7 500) (texts w ~seed:7 500);
      Alcotest.(check (list string))
        (w.Workload.name ^ " warm-up replays")
        (Workload.warmup w ~seed:7) (Workload.warmup w ~seed:7))
    Workload.all;
  let adhoc = workload "lookup_adhoc" in
  Alcotest.(check bool) "another seed, other texts" true
    (texts adhoc ~seed:7 50 <> texts adhoc ~seed:8 50)

let adhoc_texts_are_new () =
  let adhoc = workload "lookup_adhoc" in
  let timed = texts adhoc ~seed:1 50_000 in
  let share = Workload.distinct_share timed in
  Alcotest.(check bool) (Printf.sprintf "%.4f of texts distinct" share) true (share >= 0.99);
  let hits = Workload.lru_model ~warm:(Workload.warmup adhoc ~seed:1) timed in
  Alcotest.(check bool) (Printf.sprintf "LRU hit ratio %.4f" hits) true (hits < 0.01)

let repeat_texts_fit_the_lru () =
  let repeat = workload "lookup_repeat" in
  let timed = texts repeat ~seed:1 10_000 in
  let distinct = Workload.distinct_share timed *. 10_000. in
  Alcotest.(check bool) "at most 64 texts" true (distinct <= 64.);
  Alcotest.(check (float 0.)) "every timed text hits the LRU" 1.0
    (Workload.lru_model ~warm:(Workload.warmup repeat ~seed:1) timed)

let working_sets () =
  let bytes name = Workload.working_set_bytes (workload name) ~seed:1 in
  Alcotest.(check bool) "rollup exceeds the scan-cache bound" true
    (bytes "rollup" > Workload.scan_cache_bound);
  Alcotest.(check bool) "export fits the scan-cache bound" true
    (bytes "export" <= Workload.scan_cache_bound)

let oracle_verdicts () =
  let app = Aqua_workload.Datagen.application ~seed:1 Aqua_workload.Datagen.default_sizes in
  let env = Aqua_sqlengine.Engine.env_of_application app in
  let conn = Aqua_driver.Connection.connect app in
  let sql = "SELECT CUSTOMERID, CITY FROM CUSTOMERS WHERE CUSTOMERID <= 5 ORDER BY CUSTOMERID" in
  let rs = Aqua_driver.Result_set.to_rowset (Aqua_driver.Connection.execute_query conn sql) in
  let cell = function
    | Aqua_relational.Value.Null -> None
    | v -> Some (Aqua_relational.Value.to_string v)
  in
  let rows = List.map (fun r -> Array.to_list (Array.map cell r)) rs.Aqua_relational.Rowset.rows in
  let reply rows = { Oracle.columns = [ "CUSTOMERID"; "CITY" ]; rows } in
  Alcotest.(check bool) "the driver's reply passes" true
    (Oracle.check env sql (reply rows) = Ok ());
  Alcotest.(check bool) "a changed cell fails" true
    (Oracle.check env sql (reply (List.tl rows @ [ [ Some "999"; None ] ])) <> Ok ());
  Alcotest.(check bool) "reordered rows fail under ORDER BY" true
    (Oracle.check env sql (reply (List.rev rows)) <> Ok ());
  Alcotest.(check bool) "row order is ignored without ORDER BY" true
    (Oracle.digest ~ordered:false rows = Oracle.digest ~ordered:false (List.rev rows))

let span ~id ~parent name t0 t1 =
  { Ledger.id; parent; stmt = 1; name; t0 = Int64.of_int t0; t1 = Int64.of_int t1 }

(* A round trip's self time subtracts the union of its children,
   overlapping ones once; on a well-formed tree (children inside their
   parent, siblings disjoint) the rows sum to the round trip exactly. *)
let ledger_reconciles () =
  let overlapping =
    [ span ~id:1 ~parent:(-1) Ledger.roundtrip 0 100;
      span ~id:2 ~parent:1 "a" 10 30;
      span ~id:3 ~parent:1 "b" 20 50;
      span ~id:4 ~parent:1 "e" 90 120 ]
  in
  Alcotest.(check (float 1e-9)) "unattributed" 50.
    (Hashtbl.find (Ledger.self_times overlapping) Ledger.unattributed);
  let tree =
    [ span ~id:1 ~parent:(-1) Ledger.roundtrip 0 100;
      span ~id:2 ~parent:1 "a" 10 30;
      span ~id:3 ~parent:1 "b" 30 50;
      span ~id:4 ~parent:1 "c" 60 70;
      span ~id:5 ~parent:4 "d" 62 65;
      span ~id:6 ~parent:1 "a" 80 90 ]
  in
  let selfs = Ledger.self_times tree in
  Alcotest.(check (float 1e-9)) "c minus its child" 7. (Hashtbl.find selfs "c");
  Alcotest.(check (float 1e-9)) "a twice" 30. (Hashtbl.find selfs "a");
  let ledger = Ledger.build ~order:[ "a"; "b"; "c"; "d" ] tree in
  let sum = List.fold_left (fun a r -> a +. r.Ledger.mean_us) 0. ledger.Ledger.rows in
  Alcotest.(check (float 1e-12)) "rows plus unattributed equal the round trip"
    ledger.Ledger.roundtrip_mean_us sum

(* The composed pipeline of the traced run: its replies are the
   engine's, and its spans reconcile with the round trip around them. *)
let traced_pipeline_reconciles () =
  let app = Aqua_workload.Datagen.application ~seed:3 Aqua_workload.Datagen.default_sizes in
  let conn = Aqua_driver.Connection.connect app in
  let p = Trace.pipeline conn ~sessions:1 in
  let check = Check.create app in
  let r = Trace.recorder () in
  let sqls = Workload.warmup (workload "lookup_repeat") ~seed:3 in
  List.iteri
    (fun stmt sql ->
      let buf = Buffer.create 256 in
      let t0 = Ledger.now () in
      Trace.answer p r ~stmt sql buf;
      let t1 = Ledger.now () in
      r.Trace.spans <-
        { Ledger.id = stmt; parent = -1; stmt; name = Ledger.roundtrip; t0; t1 } :: r.Trace.spans;
      Check.full check sql (Trace.decode (Buffer.contents buf)))
    sqls;
  Alcotest.(check int) "every reply matches the engine" 0 (List.length check.Check.failures);
  List.iter
    (fun (_, rt, ss) ->
      let selfs = Ledger.self_times ss in
      let sum = Hashtbl.fold (fun _ v a -> a +. v) selfs 0. in
      Alcotest.(check (float 1e-6)) "self times sum to the round trip" (Ledger.duration rt) sum)
    (Ledger.by_statement r.Trace.spans)

(* [xqeval.batch_rows] counts each row a batch carries once: on a
   columnar GROUP BY it equals the rows the columnar batches carried,
   and a row-batch run of the same statement gives the same count. *)
let batch_rows_count_once () =
  let module T = Aqua_core.Telemetry in
  let app = Aqua_workload.Datagen.application ~seed:3 Aqua_workload.Datagen.default_sizes in
  let conn = Aqua_driver.Connection.connect app in
  let batch_rows = List.assoc "xqeval.batch_rows" Trace.counters in
  let sql = "SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY" in
  let run ~columnar =
    let p = { (Trace.pipeline conn ~sessions:1) with Trace.columnar } in
    T.set_enabled true;
    Fun.protect ~finally:(fun () -> T.set_enabled false) @@ fun () ->
    let b0 = T.value batch_rows and c0 = T.value T.c_col_rows in
    Trace.answer p (Trace.recorder ()) ~stmt:0 sql (Buffer.create 256);
    (T.value batch_rows - b0, T.value T.c_col_rows - c0)
  in
  let counted, fed = run ~columnar:true in
  Alcotest.(check bool) "the statement ran in columnar batches" true (fed > 0);
  Alcotest.(check int) "columnar: the rows fed, once" fed counted;
  Alcotest.(check int) "row batches: the same count" counted (fst (run ~columnar:false))

let () =
  Alcotest.run "perfbench"
    [ ( "workloads",
        [ Alcotest.test_case "same seed, same statements" `Quick same_seed_same_sequence;
          Alcotest.test_case "lookup_adhoc texts are new" `Quick adhoc_texts_are_new;
          Alcotest.test_case "lookup_repeat texts fit the LRU" `Quick repeat_texts_fit_the_lru;
          Alcotest.test_case "scan working sets against the bound" `Quick working_sets ] );
      ( "oracle", [ Alcotest.test_case "reply verdicts" `Quick oracle_verdicts ] );
      ( "ledger",
        [ Alcotest.test_case "self times reconcile" `Quick ledger_reconciles;
          Alcotest.test_case "traced pipeline reconciles" `Quick traced_pipeline_reconciles;
          Alcotest.test_case "batch rows counted once" `Quick batch_rows_count_once ] ) ]
