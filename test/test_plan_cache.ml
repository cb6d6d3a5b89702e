(* The driver's compiled-plan cache (DESIGN.md section 18): a text's
   second use stores its compiled plan in the translation-LRU entry and
   later uses run it without optimizing or compiling again.  A warm
   reply must be byte-identical to a cold one and agree with the
   interpreter oracle; warm and cold runs must trip the same governors;
   a metadata revision bump drops the plans; a degradable fault on a
   cached plan falls back and leaves the plan usable. *)

module T = Aqua_core.Telemetry
module Budget = Aqua_resilience.Budget
module Sqlstate = Aqua_resilience.Sqlstate
module Failpoint = Aqua_resilience.Failpoint
module Recorder = Aqua_obs.Recorder
module Batch = Aqua_xqeval.Batch
module Artifact = Aqua_dsp.Artifact
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Rowset = Aqua_relational.Rowset
module Engine = Aqua_sqlengine.Engine
module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set

let check_int = Alcotest.(check int)

let with_telemetry f =
  let was = T.enabled () in
  T.set_enabled true;
  T.reset ();
  Fun.protect ~finally:(fun () -> T.set_enabled was) f

let with_batch_size n f =
  let prev = Batch.size () in
  Batch.set_size n;
  Fun.protect ~finally:(fun () -> Batch.set_size prev) f

(* A reply as the client sees it: the decoded rows in order, or the
   SQLSTATE error in full. *)
let reply ?limits conn sql =
  match Connection.execute_query ?limits conn sql with
  | rs -> Ok (Rowset.to_string (Result_set.to_rowset rs))
  | exception Sqlstate.Error e -> Error (Sqlstate.to_string e)

let show = function Ok s -> s | Error e -> "error: " ^ e

let hits () = T.value T.c_plan_cache_hits
let misses () = T.value T.c_plan_cache_misses

let join_sql =
  "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN PAYMENTS P \
   ON C.CUSTOMERID = P.CUSTID"

(* ------------------------------------------------------------------ *)

(* Every battery statement three times on one connection — cold (ad
   hoc), second use (plan built) and warm (cached plan) — against the
   interpreter connection's reply. *)
let warm_matches_cold transport size () =
  let app = Helpers.demo_app () in
  with_batch_size size @@ fun () ->
  with_telemetry @@ fun () ->
  let conn = Connection.connect ~transport app in
  let interp = Connection.connect ~transport ~vectorize:false app in
  List.iter
    (fun sql ->
      let cold = reply conn sql in
      let built = reply conn sql in
      let h = hits () in
      let warm = reply conn sql in
      check_int ("warm run is a plan-cache hit: " ^ sql) (h + 1) (hits ());
      if built <> cold || warm <> cold then
        Alcotest.failf
          "cached plan changed the reply of %s\n-- cold:\n%s\n-- warm:\n%s" sql
          (show cold) (show warm);
      let oracle = reply interp sql in
      if warm <> oracle then
        Alcotest.failf
          "warm reply differs from the interpreter on %s\n-- interpreter:\n%s\n\
           -- warm:\n%s"
          sql (show oracle) (show warm))
    Test_differential.battery;
  check_int "no statement fell back to the interpreter" 0
    (T.value T.c_interpret_fallbacks)

(* The interpreter connection keeps no plans and counts no lookups. *)
let interpreter_has_no_plan_cache () =
  with_telemetry @@ fun () ->
  let conn = Connection.connect ~vectorize:false (Helpers.demo_app ()) in
  for _ = 1 to 3 do ignore (reply conn join_sql) done;
  check_int "hits" 0 (hits ());
  check_int "misses" 0 (misses ())

(* A warm execution does not run the optimizer; a text seen once
   stores no plan, so its second use does. *)
let warm_skips_optimizer () =
  with_telemetry @@ fun () ->
  let conn = Connection.connect (Helpers.demo_app ()) in
  let rewrites () = T.value T.c_hash_join_rewrites in
  ignore (reply conn join_sql);
  let once = rewrites () in
  Alcotest.(check bool) "the join is hash-joined" true (once > 0);
  check_int "first use: a miss" 1 (misses ());
  ignore (reply conn join_sql);
  check_int "second use optimizes again: no plan was stored" (2 * once)
    (rewrites ());
  check_int "second use: a miss that builds the plan" 2 (misses ());
  check_int "no hit yet" 0 (hits ());
  ignore (reply conn join_sql);
  check_int "warm: optimizer not run" (2 * once) (rewrites ());
  check_int "warm: misses unchanged" 2 (misses ());
  check_int "warm: one hit" 1 (hits ());
  (match List.rev (Recorder.events ()) with
  | ev :: _ -> Alcotest.(check string) "recorder plan note" "cached" ev.Recorder.plan
  | [] -> Alcotest.fail "recorder is empty");
  (* a prepared statement over the same text shares the plan *)
  let stmt = Connection.Prepared.prepare conn join_sql in
  ignore (Connection.Prepared.execute_query stmt);
  check_int "prepared: optimizer not run" (2 * once) (rewrites ());
  check_int "prepared: misses unchanged" 2 (misses ())

(* Preparing builds the plan, and the first ad-hoc run of the same
   text uses it. *)
let prepare_shares_with_adhoc () =
  with_telemetry @@ fun () ->
  let conn = Connection.connect (Helpers.demo_app ()) in
  let stmt = Connection.Prepared.prepare conn join_sql in
  let rewrites = T.value T.c_hash_join_rewrites in
  check_int "prepare builds the plan" 1 (misses ());
  let prepared =
    Rowset.to_string
      (Result_set.to_rowset (Connection.Prepared.execute_query stmt))
  in
  Alcotest.(check (result string string)) "ad hoc = prepared" (Ok prepared)
    (reply conn join_sql);
  check_int "ad hoc ran the prepared plan" rewrites
    (T.value T.c_hash_join_rewrites);
  check_int "two hits" 2 (hits ())

(* A metadata revision bump drops the plans with the translations; a
   row insert leaves them (plans hold no data) and the rerun serves
   the new row. *)
let revision_bump_drops_plans () =
  with_telemetry @@ fun () ->
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  let sql = "SELECT CUSTOMERID FROM CUSTOMERS" in
  let rows () =
    Result_set.row_count (Connection.execute_query conn sql)
  in
  for _ = 1 to 3 do ignore (rows ()) done;
  check_int "warm" 1 (hits ());
  ignore (Artifact.add_logical_service app ~project:"Aux" ~name:"NOOP" []);
  check_int "rows after the bump" 6 (rows ());
  check_int "no plan served across the bump" 1 (hits ());
  ignore (rows ());
  check_int "the plan is rebuilt, not found" 1 (hits ());
  ignore (rows ());
  check_int "and then served" 2 (hits ());
  let customers =
    match Artifact.find_service app ~path:"TestDataServices" ~name:"CUSTOMERS" with
    | Some ds -> (
      match Artifact.find_function ds "CUSTOMERS" with
      | Some { Artifact.body = Artifact.Physical t; _ } -> t
      | _ -> Alcotest.fail "CUSTOMERS is not physical")
    | None -> Alcotest.fail "no CUSTOMERS service"
  in
  Table.insert customers
    [ Value.Int 7; Value.Str "Grace"; Value.Str "Geneva"; Value.Int 1 ];
  check_int "the cached plan sees the inserted row" 7 (rows ());
  check_int "served from the plan" 3 (hits ())

(* Governors trip identically cold (a fresh connection, ad hoc) and
   warm (a cached plan): same SQLSTATE, same message, and the same
   pass/fail boundary over a sweep of limits. *)
let governors_cold_and_warm () =
  let app = Helpers.demo_app () in
  let sqls =
    [ "SELECT * FROM CUSTOMERS"; join_sql;
      "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY" ]
  in
  let limits =
    [ ("53000", Budget.limits ~max_fuel:10 ());
      ("53000", Budget.limits ~max_items:3 ());
      ("53400", Budget.limits ~max_rows:2 ());
      ("57014", Budget.limits ~timeout_ms:0 ()) ]
    @ List.map
        (fun n -> ("", Budget.limits ~max_fuel:n ()))
        [ 20; 50; 100; 200; 400; 1000 ]
    @ List.map
        (fun n -> ("", Budget.limits ~max_items:n ()))
        [ 1; 5; 6; 10; 20; 40 ]
    @ List.map (fun n -> ("", Budget.limits ~max_rows:n ())) [ 1; 3; 6; 12 ]
  in
  with_telemetry @@ fun () ->
  let warm = Connection.connect app in
  List.iter (fun sql -> ignore (reply warm sql); ignore (reply warm sql)) sqls;
  List.iter
    (fun sql ->
      List.iter
        (fun (code, limits) ->
          let cold = reply ~limits (Connection.connect app) sql in
          let h = hits () in
          let hot = reply ~limits warm sql in
          check_int "the warm run used its plan" (h + 1) (hits ());
          Alcotest.(check (result string string)) ("cold = warm: " ^ sql) cold hot;
          if code <> "" then
            match hot with
            | Error e ->
              Alcotest.(check string) "SQLSTATE" code (String.sub e 1 5)
            | Ok _ -> Alcotest.failf "%s: expected %s" sql code)
        limits)
    sqls

(* A degradable fault inside a cached plan reruns on the unoptimized
   interpreter; the plan stays stored and serves the next run. *)
let fault_on_cached_plan () =
  let app = Helpers.demo_app () in
  let oracle = Engine.execute_sql (Engine.env_of_application app) join_sql in
  with_telemetry @@ fun () ->
  let conn = Connection.connect app in
  for _ = 1 to 2 do ignore (reply conn join_sql) done;
  let check_rows what rs =
    match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
    | None -> ()
    | Some msg -> Alcotest.failf "%s: %s" what msg
  in
  Failpoint.arm "xqeval.hashjoin=fail(1)";
  Fun.protect ~finally:Failpoint.disarm (fun () ->
      check_rows "fallback rows" (Connection.execute_query conn join_sql));
  check_int "one fallback" 1 (T.value T.c_fallbacks_unoptimized);
  check_int "the faulting run was a cached plan" 1 (hits ());
  let rewrites = T.value T.c_hash_join_rewrites in
  check_rows "next run" (Connection.execute_query conn join_sql);
  check_int "still served from the plan" 2 (hits ());
  check_int "no rebuild" rewrites (T.value T.c_hash_join_rewrites);
  check_int "no second fallback" 1 (T.value T.c_fallbacks_unoptimized)

let suite =
  ( "plan_cache",
    List.concat_map
      (fun (tname, transport) ->
        List.map
          (fun size ->
            Helpers.case
              (Printf.sprintf "warm = cold = interpreter, %s @%d" tname size)
              (warm_matches_cold transport size))
          [ 1; 2; 7; 1024 ])
      [ ("text", Connection.Text); ("xml", Connection.Xml) ]
    @ [ Helpers.case "interpreter keeps no plans" interpreter_has_no_plan_cache;
        Helpers.case "warm run skips the optimizer" warm_skips_optimizer;
        Helpers.case "prepare shares its plan with ad hoc"
          prepare_shares_with_adhoc;
        Helpers.case "revision bump drops plans" revision_bump_drops_plans;
        Helpers.case "governors trip alike cold and warm"
          governors_cold_and_warm;
        Helpers.case "fault on a cached plan falls back" fault_on_cached_plan ] )
