(* The benchmark: PostgreSQL-wire traffic from closed-loop clients
   against [Aqua_net.Netserver], every reply checked against the
   direct SQL engine.

     main.exe --workload NAME|all --seed N --seconds S --trace 0|1
     main.exe props --seed N --seed2 M

   --trace 0 measures end to end: the server runs in a child process
   (this executable, [serve] mode) and the generator's connections run
   one domain each in this process.  --trace 1 replays the workload
   through the wire server composed in [Trace] and prints the
   per-layer ledger.  The last line of output is one JSON object. *)

open Perfbench
module Client = Aqua_net.Client
module Netserver = Aqua_net.Netserver
module Connection = Aqua_driver.Connection
module Scan_cache = Aqua_dsp.Scan_cache
module Datagen = Aqua_workload.Datagen
module T = Aqua_core.Telemetry
module Domains = Aqua_multicore.Mcore.Domains

(* Set-ups per run: the timed window runs on the last one's server,
   and [setup_s] is the median of them all. *)
let setups = 5

(* The timed window is cut into slices, and the replies a slice kept
   are checked before the next one starts.  On [lookup_adhoc], where
   that check takes five times the window, the timed statements then
   span the whole run instead of its first sixth. *)
let slices = 10

(* Before the window opens, the timed server answers the warm-up
   statements for this share of [--seconds], untimed: its major heap
   grows to its steady size (on [rollup], from about 60 to 250 MiB)
   and its scan cache settles, so the window measures neither. *)
let settle_share = 0.3
let mib = 1024. *. 1024.

let say fmt = Printf.printf (fmt ^^ "\n%!")

let median = Ledger.median

let json_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
          (if Float.is_finite value then value else 0.)
          unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* ---- workload properties ------------------------------------------ *)

let label_of (w : Workload.t) ~seed =
  match w.Workload.kind_of_seed seed with
  | Workload.Adhoc -> fun i -> Printf.sprintf "template %d" (i mod 5)
  | Workload.Cycle texts ->
    fun i ->
      let k = i mod Array.length texts in
      let sql = texts.(k) in
      Printf.sprintf "#%d %s" k
        (if String.length sql <= 60 then sql else String.sub sql 0 57 ^ "...")

let print_props ~seed ~distinct ~lru ~working_set ~rows ~bytes ~top
    ?scan () =
  say "  properties (seed %d):" seed;
  say "    distinct-text share        %.4f" distinct;
  say "    driver.lru_hit_ratio       %.4f (the driver's %d-entry LRU over the issued texts)"
    lru Workload.lru_capacity;
  say "    scan working set           %.2f MiB against the %.0f MiB bound (%s)"
    (Float.of_int working_set /. mib)
    (Float.of_int Workload.scan_cache_bound /. mib)
    (if working_set > Workload.scan_cache_bound then "exceeds" else "fits");
  (match scan with
  | Some (s : Scan_cache.stats) ->
    say "    scan cache resident        %.2f MiB, %d entries, %d evictions"
      (Float.of_int s.Scan_cache.bytes /. mib) s.entries s.evictions
  | None -> ());
  say "    rows per reply             %.1f" rows;
  say "    bytes per reply            %.0f" bytes;
  let share, label = top in
  say "    largest statement share    %.3f of the cycle time (%s)" share label

(* ---- end to end ---------------------------------------------------- *)

let print_failures check =
  match Check.report check with
  | [] -> say "  oracle: every reply matched the SQL engine"
  | bad ->
    say "  oracle: %d statement(s) failed" (List.length bad);
    List.iter (fun (sql, n, reason) -> say "    FAILED x%d: %s\n      %s" n sql reason) bad

let teardown child clients =
  Array.iter Client.close clients;
  Drive.stop child

(* Data generation, import, server start, connections and one warm-up
   pass: one set-up, timed. *)
let set_up (w : Workload.t) ~seed =
  let t0 = Ledger.now () in
  let child =
    Drive.spawn ~args:[ "--workload"; w.Workload.name; "--seed"; string_of_int seed ]
  in
  let clients = ref [||] in
  match
    clients :=
      Array.init w.connections (fun _ -> Drive.connect ~port:child.Drive.port);
    List.map
      (fun sql -> (sql, Drive.client_query !clients.(0) sql))
      (Workload.warmup w ~seed)
  with
  | warm -> (Ledger.seconds_since t0, child, !clients, warm)
  | exception e ->
    teardown child !clients;
    raise e

let e2e (w : Workload.t) ~seed ~seconds =
  let check = Check.create (Datagen.application ~seed w.sizes) in
  let sql_of = Workload.statement w ~seed in
  let set_up_checked () =
    let setup_s, child, clients, warm = set_up w ~seed in
    List.iter (fun (sql, r) -> Check.verify check sql r) warm;
    (setup_s, child, clients, List.length warm)
  in
  let spare =
    List.init (setups - 1) (fun _ ->
        let setup_s, child, clients, warm = set_up_checked () in
        teardown child clients;
        (setup_s, warm))
  in
  let setup_s, child, clients, warm = set_up_checked () in
  let queries = Array.map Drive.client_query clients in
  let settled, slices, (m1 : Drive.mark), evictions =
    Fun.protect ~finally:(fun () -> teardown child clients) @@ fun () ->
    let texts = Array.of_list (Workload.warmup w ~seed) in
    let warm_of i = texts.(i mod Array.length texts) in
    let settled =
      Drive.run_loops ~offset:0 ~seconds:(seconds *. settle_share)
        ~pass:(max 1 (Array.length texts / w.connections))
        ~queries ~sql_of:warm_of ~judge:(Check.judge check ~sql_of:warm_of)
    in
    Check.settle check ~sql_of:warm_of settled;
    let first = Drive.mark child in
    let slice k =
      let m0 = Drive.mark child in
      let c0 = Drive.cpu_self () in
      let loops =
        Drive.run_loops ~offset:(k lsl 30)
          ~seconds:(seconds /. Float.of_int slices)
          ~pass:(Workload.pass w ~seed)
          ~queries ~sql_of ~judge:(Check.judge check ~sql_of)
      in
      let c1 = Drive.cpu_self () in
      let m1 = Drive.mark child in
      Check.settle check ~sql_of loops;
      ( loops,
        List.fold_left
          (fun a l -> List.fold_left max a (Drive.Vec.to_list l.Drive.finished))
          1e-9 loops,
        c1 -. c0 +. (m1.Drive.cpu_s -. m0.Drive.cpu_s) )
    in
    let done_ = List.init slices slice in
    let last = Drive.mark child in
    ( List.fold_left (fun a l -> a + l.Drive.latency_ms.Drive.Vec.n) 0 settled,
      done_,
      last,
      last.Drive.scan.Scan_cache.evictions - first.Drive.scan.Scan_cache.evictions )
  in
  let loops = List.concat_map (fun (l, _, _) -> l) slices in
  let elapsed = List.fold_left (fun a (_, e, _) -> a +. e) 0. slices in
  let times = setup_s :: List.map fst spare in
  let lat = List.concat_map (fun l -> Drive.Vec.to_list l.Drive.latency_ms) loops in
  let completed = List.length lat in
  (* the warm-up passes' replies are checked too, so they count *)
  let attempted =
    completed + warm + settled + List.fold_left (fun a (_, n) -> a + n) 0 spare
  in
  let failed = List.length check.Check.failures in
  let per_stmt x = Float.of_int x /. Float.of_int (max 1 completed) in
  (* Throughput and CPU per statement are medians over the slices: a
     burst of host load that slows one slice moves them less than it
     moves whole-window totals. *)
  let per_slice =
    List.map
      (fun (l, e, c) ->
        let n = List.fold_left (fun a l -> a + l.Drive.latency_ms.Drive.Vec.n) 0 l in
        (n, Float.of_int n /. e, c *. 1e3 /. Float.of_int (max 1 n)))
      slices
  in
  let qps = median (List.map (fun (_, q, _) -> q) per_slice) in
  let p50 = median lat and p90 = Ledger.quantile 0.9 lat in
  let cpu_ms = median (List.map (fun (_, _, c) -> c) per_slice) in
  let heap_mb = Float.of_int (m1.Drive.heap_words * (Sys.word_size / 8)) /. mib in
  let setup_s = median times in
  let stamp =
    Stamp.make ~seed ~config:(Serve.config ~pool:w.connections)
      ~connections:w.connections ~server:"child process"
  in
  say "== %s: %d connection(s), closed loop, %.1f s, %d statements (after %d untimed)"
    w.name w.connections elapsed completed settled;
  say "  stamp %s" (Stamp.to_json stamp);
  (match Stamp.concurrency stamp with
  | Ok () -> say "  qps                %12.2f 1/s" qps
  | Error reason -> say "  qps                %s (%.2f 1/s)" reason qps);
  say "  p50_ms             %12.4f ms" p50;
  say "  p90_ms             %12.4f ms  (%d samples beyond it)" p90
    (List.length (List.filter (fun x -> x > p90) lat));
  say "  cpu_ms_per_stmt    %12.4f ms  (server child + generator)" cpu_ms;
  say "  per slice (statements, 1/s, cpu ms/stmt): %s"
    (String.concat " "
       (List.map (fun (n, q, c) -> Printf.sprintf "%d,%.1f,%.3f" n q c) per_slice));
  say "  failed_ratio       %12.6f     (%d of %d)"
    (Float.of_int failed /. Float.of_int attempted) failed attempted;
  say "  heap_peak_mb       %12.3f MiB (server child)" heap_mb;
  say "  setup_s            %12.4f s   (median of %d: %s)" setup_s setups
    (String.concat ", " (List.map (Printf.sprintf "%.3f") times));
  print_failures check;
  let texts =
    List.concat_map (fun l -> List.rev_map sql_of l.Drive.indexes) loops
  in
  let label = label_of w ~seed in
  let samples =
    List.concat_map
      (fun l ->
        List.combine (List.rev l.Drive.indexes) (Drive.Vec.to_list l.Drive.latency_ms))
      loops
    |> List.map (fun (i, ms) -> (label i, ms))
  in
  let rows = List.fold_left (fun a l -> a + l.Drive.rows) 0 loops in
  let bytes = List.fold_left (fun a l -> a + l.Drive.bytes) 0 loops in
  print_props ~seed ~distinct:(Workload.distinct_share texts)
    ~lru:(Workload.lru_model ~warm:(Workload.warmup w ~seed) texts)
    ~working_set:(Workload.working_set_bytes w ~seed)
    ~rows:(per_stmt rows) ~bytes:(per_stmt bytes)
    ~top:(Workload.top_share samples)
    ~scan:{ m1.Drive.scan with Scan_cache.evictions } ();
  json_result ~correct:(failed = 0) ~attempted ~failed
    [ ("qps", qps, "1/s");
      ("p50_ms", p50, "ms");
      ("p90_ms", p90, "ms");
      ("cpu_ms_per_stmt", cpu_ms, "ms");
      ("heap_peak_mb", heap_mb, "MiB");
      ("setup_s", setup_s, "s") ]

(* ---- traced ------------------------------------------------------- *)

(* Program counters around a traced leg. *)
type snap = { counts : int list; scan : Scan_cache.stats; waits : int }

let snapshot conn pool =
  { counts = List.map (fun (_, c) -> T.value c) Trace.counters;
    scan = Scan_cache.stats (Connection.scan_cache conn);
    waits = (Aqua_driver.Session_pool.stats pool).Aqua_driver.Session_pool.waits }

(* Counter movement summed over the traced legs. *)
let moved pairs =
  let sum f = List.fold_left (fun a (s0, s1) -> a + f s1 - f s0) 0 pairs in
  ( List.mapi (fun i _ -> sum (fun s -> List.nth s.counts i)) Trace.counters,
    sum (fun s -> s.scan.Scan_cache.hits),
    sum (fun s -> s.scan.Scan_cache.misses),
    sum (fun s -> s.scan.Scan_cache.evictions),
    sum (fun s -> s.waits) )

(* The composed server of [Trace] on a loopback port, one domain per
   connection, for the duration of [f clients]. *)
let with_composed_server p recs f =
  let n = Array.length recs in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener n;
  let port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let clients, servers =
    Fun.protect ~finally:(fun () -> Unix.close listener) @@ fun () ->
    List.split
      (List.init n (fun c ->
           let client = Trace.client_connect ~port ~conn_id:c ~nconn:n in
           let fd, _ = Unix.accept listener in
           ( client,
             Domains.spawn (fun () -> Trace.serve p recs.(c) ~conn:c ~nconn:n fd) )))
  in
  let clients = Array.of_list clients in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Trace.client_close clients;
      List.iter Domains.join servers)
    (fun () ->
      Array.iter Trace.client_start clients;
      f clients)

(* Every span of the traced run, one line each, under
   perfbench/spans/ in the directory the benchmark runs from. *)
let write_spans ~name ~seed ~is_timed spans =
  let dir = Filename.concat "perfbench" "spans" in
  match Unix.mkdir dir 0o755 with
  | exception Unix.Unix_error (e, _, _) when e <> Unix.EEXIST ->
    Printf.eprintf "perfbench: spans not written: %s\n" (Unix.error_message e)
  | exception Unix.Unix_error _ | () ->
    let path = Filename.concat dir (Printf.sprintf "%s-%d.tsv" name seed) in
    Out_channel.with_open_text path (fun oc ->
        output_string oc "stmt\ttimed\tid\tparent\tname\tstart_ns\tend_ns\n";
        List.iter
          (fun (s : Ledger.span) ->
            Printf.fprintf oc "%d\t%b\t%d\t%d\t%s\t%Ld\t%Ld\n" s.Ledger.stmt
              (is_timed s.stmt) s.id s.parent s.name s.t0 s.t1)
          spans)

(* Legs per side.  The untraced shipping server and the traced
   composed one share the catalog and the scan cache and take turns,
   so neither gets the warmer heap. *)
let rounds = 2

let traced (w : Workload.t) ~seed ~seconds =
  let app = Datagen.application ~seed w.Workload.sizes in
  let conn = Connection.connect app in
  let check = Check.create app in
  let n = w.connections in
  let sql_of = Workload.statement w ~seed in
  let leg = seconds /. Float.of_int (2 * rounds) in
  let warm query =
    List.iter (fun sql -> Check.verify check sql (query sql)) (Workload.warmup w ~seed)
  in
  let loops ~offset queries =
    Drive.run_loops ~offset ~seconds:leg ~pass:(Workload.pass w ~seed) ~queries ~sql_of
      ~judge:(Check.judge check ~sql_of)
  in
  let srv = Netserver.start ~config:(Serve.config ~pool:n) conn in
  Fun.protect ~finally:(fun () -> Netserver.drain srv) @@ fun () ->
  let shipping = Array.init n (fun _ -> Drive.connect ~port:(Netserver.port srv)) in
  Fun.protect ~finally:(fun () -> Array.iter Client.close shipping) @@ fun () ->
  let p = Trace.pipeline conn ~sessions:n in
  let server_recs = Array.init n (fun _ -> Trace.recorder ()) in
  let reference, traced_loops, client_recs, pairs =
    with_composed_server p server_recs @@ fun clients ->
    warm (Drive.client_query shipping.(0));
    warm (Trace.query clients.(0));
    Array.iter (fun c -> c.Trace.timed <- true) clients;
    let rec go r reference traced_loops pairs =
      if r = rounds then (reference, traced_loops, pairs)
      else begin
        let a = loops ~offset:((2 * r) lsl 30) (Array.map Drive.client_query shipping) in
        let s0 = snapshot conn p.Trace.pool in
        T.set_enabled true;
        let b =
          Fun.protect ~finally:(fun () -> T.set_enabled false) (fun () ->
              loops ~offset:(((2 * r) + 1) lsl 30) (Array.map Trace.query clients))
        in
        let s1 = snapshot conn p.Trace.pool in
        go (r + 1) (a @ reference) (b @ traced_loops) ((s0, s1) :: pairs)
      end
    in
    let reference, traced_loops, pairs = go 0 [] [] [] in
    (reference, traced_loops, Array.to_list (Array.map (fun c -> c.Trace.rec_) clients), pairs)
  in
  Check.settle check ~sql_of (reference @ traced_loops);
  let reference =
    List.concat_map (fun l -> Drive.Vec.to_list l.Drive.latency_ms) reference
  in
  let counts, scan_hits, scan_misses, evictions, waits = moved pairs in
  let recs = client_recs @ Array.to_list server_recs in
  let spans = List.concat_map (fun r -> r.Trace.spans) recs in
  let timed = Hashtbl.create 4096 in
  List.iter
    (fun r ->
      List.iter (fun (stmt, _, t) -> if t then Hashtbl.replace timed stmt ()) r.Trace.replies)
    client_recs;
  let is_timed s = Hashtbl.mem timed s in
  let ledger = Ledger.build ~order:Trace.layers (List.filter (fun s -> is_timed s.Ledger.stmt) spans) in
  let warm_ledger =
    Ledger.build ~order:Trace.layers
      (List.filter (fun s -> not (is_timed s.Ledger.stmt)) spans)
  in
  write_spans ~name:w.name ~seed ~is_timed spans;
  let stmts = Float.of_int (max 1 ledger.Ledger.statements) in
  let facts =
    List.concat_map (fun r -> r.Trace.facts) (Array.to_list server_recs)
    |> List.filter (fun (s, _) -> is_timed s)
    |> List.map snd
  in
  let count f = Float.of_int (List.length (List.filter f facts)) in
  let per_stmt_median f = median (List.map (fun x -> Float.of_int (f x)) facts) in
  let alloc_kw layers_ =
    let tbl = Hashtbl.create 4096 in
    List.iter
      (fun r ->
        List.iter
          (fun (stmt, layer, words) ->
            if is_timed stmt && List.mem layer layers_ then
              Hashtbl.replace tbl stmt
                (words +. Option.value ~default:0. (Hashtbl.find_opt tbl stmt)))
          r.Trace.alloc)
      (Array.to_list server_recs);
    median (Hashtbl.fold (fun _ v acc -> (v /. 1e3) :: acc) tbl [])
  in
  let layer_us layer =
    match Ledger.find ledger layer with
    | Some r when r.Ledger.ran > 0 -> r.Ledger.median_us
    | _ -> (
      match Ledger.find warm_ledger layer with
      | Some r -> r.Ledger.median_us
      | None -> 0.)
  in
  let scan_lookups = scan_hits + scan_misses in
  let reply_bytes =
    List.concat_map (fun r -> r.Trace.replies) client_recs
    |> List.filter_map (fun (_, b, t) -> if t then Some (Float.of_int b) else None)
  in
  let p50_ref = median reference in
  let roundtrip = ledger.Ledger.roundtrip_median_us in
  let unattributed = Option.fold ~none:0. ~some:(fun r -> r.Ledger.median_us) (Ledger.find ledger Ledger.unattributed) in
  let metrics =
    List.map (fun l -> (l ^ "_us", layer_us l, "us")) Trace.layers
    @ [ ("net.roundtrip_us", roundtrip, "us");
        ("unattributed_us", unattributed, "us");
        ("driver.lru_hit_ratio", count (fun f -> f.Trace.lru_hit) /. stmts, "ratio");
        ( "dsp.scan_cache_hit_ratio",
          (if scan_lookups = 0 then 0.
           else Float.of_int scan_hits /. Float.of_int scan_lookups),
          "ratio" );
        ( "dsp.scan_cache_evictions",
          Float.of_int evictions /. stmts,
          "count/stmt" );
        ("dsp.rows_out", per_stmt_median (fun f -> f.Trace.rows_out), "rows");
        ("dsp.text_bytes", per_stmt_median (fun f -> f.Trace.text_bytes), "bytes");
        ("net.reply_bytes", median reply_bytes, "bytes") ]
    @ List.map2
        (fun (name, _) c -> (name, Float.of_int c /. stmts, "count/stmt"))
        Trace.counters counts
    @ [ ("net.pool_waits", Float.of_int waits, "count");
        ("xqeval.interpret_fallbacks", count (fun f -> f.Trace.fallback), "count") ]
    @ List.map (fun (name, ls) -> (name, alloc_kw ls, "kw")) Trace.alloc_groups
  in
  let stamp =
    Stamp.make ~seed ~config:(Serve.config ~pool:w.connections)
      ~connections:w.connections ~server:"in process (traced)"
  in
  say "== %s traced: %d statements in the traced window, %d connection(s)" w.name
    ledger.Ledger.statements w.connections;
  say "  stamp %s" (Stamp.to_json stamp);
  say "  %-24s %8s %12s %12s" "layer (self time)" "ran" "median_us" "mean_us";
  List.iter
    (fun (r : Ledger.row) ->
      say "  %-24s %8d %12.2f %12.2f" r.Ledger.layer r.ran r.median_us r.mean_us)
    ledger.Ledger.rows;
  let sum = List.fold_left (fun a r -> a +. r.Ledger.mean_us) 0. ledger.Ledger.rows in
  say "  %-24s %8s %12.2f %12.2f  (rows sum to %.2f)" Ledger.roundtrip "" roundtrip
    ledger.Ledger.roundtrip_mean_us sum;
  say "  tracing overhead: traced round trip median %.1f us against the untraced \
       wire p50 %.1f us (%+.1f%%)"
    roundtrip (p50_ref *. 1e3)
    (if p50_ref > 0. then ((roundtrip /. (p50_ref *. 1e3)) -. 1.) *. 100. else 0.);
  List.iter
    (fun (name, v, unit) ->
      if not (String.ends_with ~suffix:"_us" name) then say "  %-28s %14.4f %s" name v unit)
    metrics;
  print_failures check;
  let failed = List.length check.Check.failures in
  json_result ~correct:(failed = 0)
    ~attempted:
      (List.length reference + ledger.Ledger.statements
      + (2 * List.length (Workload.warmup w ~seed)))
    ~failed metrics

(* ---- properties for two seeds -------------------------------------- *)

(* A workload's character without a server: texts, LRU, working set,
   and reply sizes and statement shares from an in-process replay. *)
let props (w : Workload.t) ~seed =
  let n = match w.Workload.kind_of_seed seed with Workload.Adhoc -> 20_000 | Cycle t -> 20 * Array.length t in
  let sql_of = Workload.statement w ~seed in
  let texts = List.init n sql_of in
  let conn = Connection.connect (Datagen.application ~seed w.sizes) in
  let warm = Workload.warmup w ~seed in
  List.iter (fun sql -> ignore (Connection.execute_query conn sql)) warm;
  let sample = List.init (min n 200) Fun.id in
  let label = label_of w ~seed in
  let runs =
    List.map
      (fun i ->
        let t0 = Ledger.now () in
        let rs = Connection.execute_query conn (sql_of i) in
        let ms = Int64.to_float (Int64.sub (Ledger.now ()) t0) /. 1e6 in
        let rs = Aqua_driver.Result_set.to_rowset rs in
        let rows =
          List.map
            (fun r ->
              Array.to_list
                (Array.map
                   (function
                     | Aqua_relational.Value.Null -> None
                     | v -> Some (Aqua_relational.Value.to_string v))
                   r))
            rs.Aqua_relational.Rowset.rows
        in
        let reply =
          { Oracle.columns = List.map (fun c -> c.Aqua_relational.Schema.name) rs.schema; rows }
        in
        ((label i, ms), List.length rows, Oracle.wire_bytes reply))
      sample
  in
  let k = Float.of_int (List.length runs) in
  say "== %s" w.name;
  print_props ~seed ~distinct:(Workload.distinct_share texts) ~lru:(Workload.lru_model ~warm texts)
    ~working_set:(Workload.working_set_bytes w ~seed)
    ~rows:(Float.of_int (List.fold_left (fun a (_, r, _) -> a + r) 0 runs) /. k)
    ~bytes:(Float.of_int (List.fold_left (fun a (_, _, b) -> a + b) 0 runs) /. k)
    ~top:(Workload.top_share (List.map (fun (s, _, _) -> s) runs))
    ()

(* ---- command line -------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME|all --seed N --seconds S --trace 0|1\n\
    \       main.exe props [--seed N] [--seed2 M]\n\
    \       main.exe serve --workload NAME --seed N";
  exit 2

let rec options acc = function
  | [] -> acc
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
    options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | _ -> usage ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, args =
    match args with
    | ("serve" | "props") as m :: rest -> (m, rest)
    | rest -> ("run", rest)
  in
  let opts = options [] args in
  let get k = List.assoc_opt k opts in
  let int k default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let workloads () =
    match get "workload" with
    | Some "all" -> Workload.all
    | Some name -> (
      match Workload.find name with Some w -> [ w ] | None -> usage ())
    | None -> usage ()
  in
  match mode with
  | "serve" -> (
    match workloads () with [ w ] -> Serve.run w ~seed:(int "seed" 1) | _ -> usage ())
  | "props" ->
    List.iter
      (fun seed -> List.iter (fun w -> props w ~seed) Workload.all)
      [ int "seed" 1; int "seed2" 2 ]
  | _ ->
    let seed = int "seed" 1 and seconds = Float.of_int (int "seconds" 10) in
    let trace = int "trace" 0 <> 0 in
    List.iter
      (fun w ->
        print_endline
          (if trace then traced w ~seed ~seconds else e2e w ~seed ~seconds))
      (workloads ())
