(* The benchmark's four workloads: their catalogs, their statement
   streams and the properties each one is chosen for.

   Every statement stream is a pure function of (workload, seed,
   index), so the same seed replays the same texts, and the warm-up
   stream never overlaps the timed one. *)

module Datagen = Aqua_workload.Datagen
module Scan_cache = Aqua_dsp.Scan_cache

type kind =
  | Adhoc  (** fresh literals per statement: every text is new *)
  | Cycle of string array  (** a fixed list of texts, issued in order *)

(* Why each workload exists is recorded in BENCHMARK.json. *)
type t = {
  name : string;
  sizes : Datagen.sizes;
  connections : int;
  kind_of_seed : int -> kind;
}

(* The driver's translation LRU holds this many entries
   ([Connection.translation_cache_capacity], not exported). *)
let lru_capacity = 128

(* [Scan_cache.create]'s default resident-byte bound. *)
let scan_cache_bound = 8 * 1024 * 1024

let amount rng bound_cents =
  let c = Random.State.int rng bound_cents in
  Printf.sprintf "%d.%02d" (c / 100) (c mod 100)

let date_of_day d =
  (* the same calendar Datagen uses: 360-day years of 30-day months *)
  Printf.sprintf "%04d-%02d-%02d" (2004 + (d / 360)) (1 + (d mod 360 / 30))
    (1 + (d mod 30))

(* Key lookups, key joins and small aggregates over the default-size
   catalog.  Each template carries one literal drawn from a domain of
   10^4..10^5 values next to its key, so texts are practically never
   repeated. *)
let lookup_statement ~seed i =
  let s = Datagen.default_sizes in
  let rng = Random.State.make [| seed; i; 0x100c |] in
  let cust () = 1 + Random.State.int rng s.Datagen.customers in
  let order () = 1001 + Random.State.int rng s.Datagen.orders in
  match i mod 5 with
  | 0 ->
    Printf.sprintf
      "SELECT C.CUSTOMERID, C.CUSTOMERNAME, C.CITY, C.CREDIT FROM CUSTOMERS \
       C WHERE C.CUSTOMERID = %d AND C.CREDIT >= %s"
      (cust ()) (amount rng 100_000)
  | 1 ->
    let d = Random.State.int rng 640 in
    Printf.sprintf
      "SELECT O.ORDERID, O.ORDERDATE, O.STATUS, O.PRIORITY FROM ORDERS O \
       WHERE O.CUSTOMERID = %d AND O.ORDERDATE BETWEEN DATE '%s' AND DATE \
       '%s'"
      (cust ()) (date_of_day d)
      (date_of_day (d + 1 + Random.State.int rng 59))
  | 2 ->
    Printf.sprintf
      "SELECT O.ORDERID, O.ORDERDATE, L.PRODUCT, L.QTY, L.PRICE FROM ORDERS \
       O JOIN ORDERLINES L ON O.ORDERID = L.ORDERID WHERE O.ORDERID = %d AND \
       L.PRICE >= %s"
      (order ()) (amount rng 10_000)
  | 3 ->
    Printf.sprintf
      "SELECT COUNT(*) N, SUM(P.PAYMENT) TOTAL, MAX(P.PAYMENT) TOP FROM \
       PAYMENTS P WHERE P.CUSTID = %d AND P.PAYMENT >= %s"
      (cust ()) (amount rng 500_000)
  | _ ->
    Printf.sprintf
      "SELECT C.CUSTOMERNAME, COUNT(*) N, SUM(L.QTY) Q FROM CUSTOMERS C JOIN \
       ORDERS O ON C.CUSTOMERID = O.CUSTOMERID JOIN ORDERLINES L ON \
       O.ORDERID = L.ORDERID WHERE C.CUSTOMERID = %d AND L.PRICE >= %s GROUP \
       BY C.CUSTOMERNAME"
      (cust ()) (amount rng 10_000)

(* The fixed bindings [lookup_repeat] cycles: the same templates, drawn
   from their own stream so they never coincide with ad-hoc texts. *)
let repeat_texts = 64

let repeat_statements ~seed =
  Array.init repeat_texts (fun i -> lookup_statement ~seed:(seed + 7919) i)

(* Reporting statements over a catalog whose materialized scans exceed
   the scan cache's bound.  Cycles hold an odd number of statements:
   the median of whole cycles then falls inside one statement's
   latencies, not in the gap between two.  The outer join and the IN-subquery read a
   bounded derived table: over the whole catalog each takes seconds
   and alone would set the workload's pace. *)
let rollup_statements =
  [| "SELECT C.CITY, COUNT(*) N, SUM(O.PRIORITY) P FROM CUSTOMERS C JOIN \
      ORDERS O ON C.CUSTOMERID = O.CUSTOMERID GROUP BY C.CITY ORDER BY C.CITY";
     "SELECT L.PRODUCT, COUNT(*) N, SUM(L.QTY) Q, AVG(L.PRICE) AP FROM \
      ORDERLINES L GROUP BY L.PRODUCT HAVING COUNT(*) > 10 ORDER BY L.PRODUCT";
     "SELECT O.STATUS, COUNT(*) N, MIN(O.ORDERDATE) FIRSTDATE, \
      MAX(O.ORDERDATE) LASTDATE FROM ORDERS O GROUP BY O.STATUS ORDER BY \
      O.STATUS";
     "SELECT C.TIER, COUNT(*) N, SUM(P.PAYMENT) T FROM CUSTOMERS C JOIN \
      PAYMENTS P ON C.CUSTOMERID = P.CUSTID GROUP BY C.TIER HAVING \
      SUM(P.PAYMENT) > 1000 ORDER BY C.TIER";
     "SELECT O.STATUS, SUM(L.QTY) Q, MAX(L.PRICE) MP FROM ORDERS O JOIN \
      ORDERLINES L ON O.ORDERID = L.ORDERID GROUP BY O.STATUS ORDER BY \
      O.STATUS";
     "SELECT C.CITY, COUNT(P.PAYMENTID) N, SUM(P.PAYMENT) T FROM (SELECT * \
      FROM CUSTOMERS WHERE CUSTOMERID <= 20) C LEFT OUTER JOIN PAYMENTS P ON \
      C.CUSTOMERID = P.CUSTID GROUP BY C.CITY ORDER BY C.CITY";
     "SELECT C.CITY, COUNT(*) N FROM (SELECT * FROM CUSTOMERS WHERE \
      CUSTOMERID <= 20) C WHERE C.CUSTOMERID IN (SELECT O.CUSTOMERID FROM \
      ORDERS O WHERE O.PRIORITY = 4) GROUP BY C.CITY ORDER BY C.CITY" |]

(* Detail listings returning thousands of rows from a catalog that
   fits the scan cache: the section-4 result path dominates. *)
let export_statements =
  [| "SELECT O.ORDERID, O.CUSTOMERID, O.ORDERDATE, O.STATUS, L.LINEID, \
      L.PRODUCT, L.QTY, L.PRICE FROM ORDERS O JOIN ORDERLINES L ON O.ORDERID \
      = L.ORDERID";
     "SELECT * FROM ORDERLINES WHERE QTY >= 5";
     "SELECT C.CUSTOMERID, C.CUSTOMERNAME, C.CITY, C.CREDIT, O.ORDERID, \
      O.ORDERDATE, O.STATUS FROM CUSTOMERS C JOIN ORDERS O ON C.CUSTOMERID = \
      O.CUSTOMERID";
     "SELECT * FROM PAYMENTS WHERE PAYDATE IS NOT NULL ORDER BY PAYMENTID";
     "SELECT C.CUSTOMERID, C.CUSTOMERNAME, P.PAYMENTID, P.PAYMENT, P.PAYDATE \
      FROM CUSTOMERS C JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID" |]

let all =
  [ { name = "lookup_adhoc";
      sizes = Datagen.default_sizes;
      connections = 2;
      kind_of_seed = (fun _ -> Adhoc) };
    { name = "lookup_repeat";
      sizes = Datagen.default_sizes;
      connections = 2;
      kind_of_seed = (fun seed -> Cycle (repeat_statements ~seed)) };
    { name = "rollup";
      sizes =
        { Datagen.customers = 1200; orders = 7500; lines_per_order = 3;
          payments = 7500 };
      connections = 1;
      kind_of_seed = (fun _ -> Cycle rollup_statements) };
    { name = "export";
      sizes =
        { Datagen.customers = 300; orders = 2000; lines_per_order = 3;
          payments = 2000 };
      connections = 1;
      kind_of_seed = (fun _ -> Cycle export_statements) } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Warm-up statements come from an index range the timed stream never
   reaches. *)
let warmup_base = 1 lsl 40

(* The timed stream: statement [i] of the workload for [seed]. *)
let statement w ~seed =
  match w.kind_of_seed seed with
  | Adhoc -> lookup_statement ~seed
  | Cycle texts -> fun i -> texts.(i mod Array.length texts)

(* Statements each connection issues per pass over a cycle; a timed
   window ends on a pass boundary, so every text weighs the same. *)
let pass w ~seed =
  match w.kind_of_seed seed with
  | Adhoc -> 1
  | Cycle texts -> max 1 (Array.length texts / w.connections)

(* What one warm-up pass issues: every distinct text of a cycle, or a
   batch of ad-hoc texts outside the timed stream. *)
let warmup w ~seed =
  match w.kind_of_seed seed with
  | Adhoc -> List.init 64 (fun i -> lookup_statement ~seed (warmup_base + i))
  | Cycle texts -> Array.to_list texts

(* The resident bytes the scan cache would need to hold every table of
   the workload's catalog at once, by its own structural estimate. *)
let working_set_bytes w ~seed =
  let app = Aqua_dsp.Artifact.application "WorkingSet" in
  let cache = Scan_cache.create ~max_bytes:max_int ~max_entries:max_int app in
  List.iter
    (fun table ->
      Scan_cache.store cache
        table.Aqua_relational.Table.name
        (List.map Aqua_xml.Item.node (Aqua_relational.Table.to_flat_xml table)))
    (Datagen.tables ~seed w.sizes);
  (Scan_cache.stats cache).Scan_cache.bytes

(* ---- properties a run reports ------------------------------------ *)

(* Hit ratio of the driver's translation LRU over a text sequence,
   after the warm-up texts. *)
let lru_model ~warm texts =
  let lru = Aqua_driver.Connection.Lru.create ~enabled:true lru_capacity in
  let touch sql =
    match Aqua_driver.Connection.Lru.find lru sql with
    | Some () -> true
    | None ->
      Aqua_driver.Connection.Lru.add lru sql ();
      false
  in
  List.iter (fun s -> ignore (touch s)) warm;
  let hits = List.length (List.filter touch texts) in
  if texts = [] then 0. else Float.of_int hits /. Float.of_int (List.length texts)

let distinct_share texts =
  let tbl = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace tbl s ()) texts;
  if texts = [] then 0.
  else Float.of_int (Hashtbl.length tbl) /. Float.of_int (List.length texts)

(* The statement (or, ad hoc, the template) with the largest share of
   the time spent, from (label, ms) samples. *)
let top_share samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (label, ms) ->
      Hashtbl.replace tbl label
        (ms +. Option.value ~default:0. (Hashtbl.find_opt tbl label)))
    samples;
  let total = Hashtbl.fold (fun _ v a -> a +. v) tbl 0. in
  Hashtbl.fold
    (fun label v (best, bl) -> if v > best then (v, label) else (best, bl))
    tbl (0., "")
  |> fun (v, label) -> ((if total > 0. then v /. total else 0.), label)
