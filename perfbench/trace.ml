(* The traced run: a wire server composed in this file from the public
   function of each layer, in the order the shipping server calls
   them, with a span around every call.

   Per statement the server side records its session bookkeeping,
   both fingerprints, LRU lookup, parse and translate (on a miss), the
   section-4 wrap, optimize, compile, execute, driver decode, the
   statement record and DataRow encode; the client side records the
   round trip and its decode of the reply bytes.  Spans go to
   per-domain recorders and are read once the run has ended. *)

module T = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore
module Wire = Aqua_net.Wire
module Stat_tables = Aqua_net.Stat_tables
module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Session_pool = Aqua_driver.Session_pool
module Sql_error = Aqua_driver.Sql_error
module Budget = Aqua_resilience.Budget
module Breaker = Aqua_resilience.Breaker
module Failpoint = Aqua_resilience.Failpoint
module Fingerprint = Aqua_obs.Fingerprint
module Histogram = Aqua_obs.Histogram
module Stats = Aqua_obs.Stats
module Recorder = Aqua_obs.Recorder
module Translator = Aqua_translator.Translator
module Server = Aqua_dsp.Server
module Artifact = Aqua_dsp.Artifact
module Compile = Aqua_xqeval.Compile
module Optimize = Aqua_xqeval.Optimize
module Eval = Aqua_xqeval.Eval
module Item = Aqua_xml.Item
module X = Aqua_xquery.Ast

(* Ledger rows, in pipeline order.  [obs.fingerprint] runs twice per
   statement, as in the shipping server: once for the active-session
   table and once for the statement record. *)
let layers =
  [ "net.session"; "obs.fingerprint"; "driver.lru"; "sql.parse";
    "translator.translate"; "translator.wrap"; "xqeval.optimize";
    "dsp.prepare"; "dsp.execute"; "driver.decode"; "obs.record";
    "net.encode"; "net.client_decode" ]

(* Allocation groups: metric name and the layers it sums. *)
let alloc_groups =
  [ ("translator.alloc_kw", [ "sql.parse"; "translator.translate"; "translator.wrap" ]);
    ("dsp.prepare_alloc_kw", [ "xqeval.optimize"; "dsp.prepare" ]);
    ("dsp.execute_alloc_kw", [ "dsp.execute" ]);
    ("driver.decode_alloc_kw", [ "driver.decode" ]);
    ("net.encode_alloc_kw", [ "net.encode" ]) ]

(* Program counters read around the traced legs: metric name and
   counter.  A columnar batch bumps [c_batch_rows] as well as
   [c_col_rows], so [c_batch_rows] alone counts both layouts once. *)
let counters =
  [ ("xqeval.hash_join_probes", T.c_hash_join_probes);
    ("xqeval.kernel_updates", T.c_col_kernel_updates);
    ("xqeval.batch_rows", T.c_batch_rows) ]

(* What the server learned about one statement. *)
type fact = {
  lru_hit : bool;
  fallback : bool;
  rows_out : int;
  text_bytes : int;
}

type recorder = {
  mutable spans : Ledger.span list;
  mutable alloc : (int * string * float) list;  (** stmt, layer, words *)
  mutable facts : (int * fact) list;
  mutable replies : (int * int * bool) list;
      (** stmt, reply bytes, inside the timed window *)
  hist : Histogram.t;  (** the session's latency histogram *)
}

let recorder () =
  { spans = []; alloc = []; facts = []; replies = []; hist = Histogram.create () }

let span_ids = Atomic.make (1 lsl 50)
let next_id () = Atomic.fetch_and_add span_ids 1

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Time [f] as span [id] of statement [stmt], a child of [parent]
   (by default the statement's round trip). *)
let span r ~stmt ?(parent = stmt) ?(id = next_id ()) name f =
  let a0 = alloc_words () in
  let t0 = Ledger.now () in
  let finish () =
    let t1 = Ledger.now () in
    let a1 = alloc_words () in
    r.spans <- { Ledger.id; parent; stmt; name; t0; t1 } :: r.spans;
    r.alloc <- (stmt, name, a1 -. a0) :: r.alloc
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* ---- the composed server ----------------------------------------- *)

type pipeline = {
  conn : Connection.t;
  lru : Translator.t Connection.Lru.t;  (** the driver's LRU, its size *)
  pool : Session_pool.t;
  columnar : bool;
  rev_lock : Mcore.Mutex.t;  (** the driver's revision check *)
  active_lock : Mcore.Mutex.t;
  active : (int, string * string * int64 * string) Hashtbl.t;
      (** the server's in-flight table *)
  in_flight : int Atomic.t;
  trace_seq : int Atomic.t;
}

let pipeline conn ~sessions =
  { conn;
    lru = Connection.Lru.create ~enabled:true Workload.lru_capacity;
    pool = Session_pool.create ~capacity:sessions conn;
    columnar = Aqua_xqeval.Batch.columnar ();
    rev_lock = Mcore.Mutex.create ();
    active_lock = Mcore.Mutex.create ();
    active = Hashtbl.create 16;
    in_flight = Atomic.make 0;
    trace_seq = Atomic.make 0 }

(* The function resolver [Server] builds from a query's schema imports,
   rebuilt from public calls: prefix -> namespace -> data service. *)
let resolver p (imports : X.schema_import list) name =
  let app = Connection.application p.conn in
  match String.index_opt name ':' with
  | None -> None
  | Some i -> (
    let prefix = String.sub name 0 i in
    let fn = String.sub name (i + 1) (String.length name - i - 1) in
    match List.find_opt (fun (im : X.schema_import) -> im.X.prefix = prefix) imports with
    | None -> None
    | Some im -> (
      match Artifact.find_service_by_namespace app im.X.namespace with
      | None -> None
      | Some ds ->
        Some
          (Server.call_function (Connection.server p.conn)
             ~path:ds.Artifact.ds_path ~name:ds.Artifact.ds_name ~fn)))

(* [Server.execute_to_text]'s concatenation of the wrapper's strings. *)
let to_text seq =
  let buf = Buffer.create 1024 in
  List.iter
    (function
      | Item.Atomic a -> Buffer.add_string buf (Aqua_xml.Atomic.to_lexical a)
      | Item.Node _ -> failwith "text transport expected a string result")
    seq;
  Buffer.contents buf

let encode buf rs =
  let ncols = Result_set.column_count rs in
  Wire.row_description buf (Result_set.columns rs);
  let count = ref 0 in
  while Result_set.next rs do
    incr count;
    Wire.data_row buf (Array.init ncols (fun i -> Result_set.get_value rs (i + 1)))
  done;
  Wire.command_complete buf (Printf.sprintf "SELECT %d" !count);
  Wire.ready_for_query buf

(* The driver's [Connection.execute_query] under a pool session: the
   session's budget, the revision check, the LRU, translation on a
   miss, execution and decode, and the statement record. *)
let execute p r ~stmt ~session sql limits =
  let span name f = span r ~stmt ~parent:session name f in
  let observing = Stats.enabled () || Recorder.enabled () in
  let digest, shape =
    if observing then span "obs.fingerprint" (fun () -> Fingerprint.fingerprint sql)
    else ("", "")
  in
  let start = T.now_ns () in
  let rs, fact =
    Sql_error.wrap @@ fun () ->
    Budget.with_budget limits @@ fun () ->
    let found =
      span "driver.lru" (fun () ->
          Mcore.Mutex.protect p.rev_lock (fun () ->
              ignore (Artifact.revision (Connection.application p.conn)));
          Failpoint.hit "driver.translate";
          Connection.Lru.find p.lru sql)
    in
    let tr, lru_hit =
      match found with
      | Some tr ->
        T.incr T.c_cache_hits;
        (tr, true)
      | None ->
        T.incr T.c_cache_misses;
        let ast = span "sql.parse" (fun () -> Aqua_sql.Parser.parse sql) in
        let tr =
          span "translator.translate" (fun () ->
              Translator.translate_statement (Connection.translator_env p.conn) ast)
        in
        Connection.Lru.add p.lru sql tr;
        (tr, false)
    in
    let wrapped = span "translator.wrap" (fun () -> Translator.for_text_transport tr) in
    let optimized =
      span "xqeval.optimize" (fun () ->
          fst
            (Optimize.query ~share_scans:true ~vectorize:true ~columnar:p.columnar
               wrapped))
    in
    let resolve = resolver p wrapped.X.prolog.X.imports in
    let text, fallback =
      match
        span "dsp.prepare" (fun () ->
            Compile.compile ~optimize:false ~scan_cache:true ~vectorize:true
              ~columnar:p.columnar ~resolve optimized)
      with
      | compiled ->
        (span "dsp.execute" (fun () -> to_text (Compile.run compiled)), false)
      | exception Compile.Compile_error _ ->
        (* the interpreter [Eval.eval] falls back to *)
        ( span "dsp.execute" (fun () ->
              to_text
                (Eval.eval_query ~vectorize:false (Eval.context ~resolve ()) wrapped)),
          true )
    in
    let rs =
      span "driver.decode" (fun () ->
          Result_set.of_encoded_text tr.Translator.columns text)
    in
    ( rs,
      { lru_hit; fallback; rows_out = Result_set.row_count rs;
        text_bytes = String.length text } )
  in
  if observing then
    span "obs.record" (fun () ->
        let dur = Int64.sub (T.now_ns ()) start in
        Stats.observe ~digest ~shape ~rows:fact.rows_out ~cache_hit:fact.lru_hit
          ~total_ns:dur ();
        Recorder.record ~fingerprint:digest ~shape ~start_ns:start ~dur_ns:dur
          ~rows:fact.rows_out ~cache_hit:fact.lru_hit ~plan:"optimized" Recorder.Done);
  (rs, fact)

(* One statement as [Netserver] serves it: admission checks, a trace
   context, the in-flight table, a pool session around the driver,
   the latency histogram and the DataRow encode.  The bookkeeping is
   the self time of [net.session]; every layer is a span inside it. *)
let answer p r ~stmt sql buf =
  let session = next_id () in
  span r ~stmt ~id:session "net.session" @@ fun () ->
  let span name f = span r ~stmt ~parent:session name f in
  Failpoint.hit "net.session";
  if String.trim sql = "" || Stat_tables.recognize sql <> None then
    failwith "traced server: not a workload statement";
  if List.exists Breaker.rejecting (Server.breakers (Connection.server p.conn)) then
    failwith "traced server: backend circuit open";
  Atomic.incr p.in_flight;
  Fun.protect ~finally:(fun () -> Atomic.decr p.in_flight) @@ fun () ->
  let trace_id =
    Printf.sprintf "%016x" (Hashtbl.hash (Atomic.fetch_and_add p.trace_seq 1))
  in
  T.with_trace ~id:trace_id ~sampled:false @@ fun () ->
  let digest, shape = span "obs.fingerprint" (fun () -> Fingerprint.fingerprint sql) in
  let t0 = T.now_ns () in
  Mcore.Mutex.protect p.active_lock (fun () ->
      Hashtbl.replace p.active stmt (digest, shape, t0, trace_id));
  Fun.protect
    ~finally:(fun () ->
      Mcore.Mutex.protect p.active_lock (fun () -> Hashtbl.remove p.active stmt))
  @@ fun () ->
  T.with_span "net.query" @@ fun () ->
  let rs, fact =
    Session_pool.with_session ~wait_ms:1_000 p.pool @@ fun s ->
    execute p r ~stmt ~session sql (Session_pool.session_limits s)
  in
  Histogram.record r.hist (Int64.sub (T.now_ns ()) t0);
  r.facts <- (stmt, fact) :: r.facts;
  span "net.encode" (fun () -> encode buf rs)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* One wire session, statement ids [k * nconn + conn] in arrival
   order — the client numbers its statements the same way. *)
let serve p r ~conn ~nconn fd =
  let reader = Wire.Reader.of_fd fd in
  let buf = Buffer.create 4096 in
  (match Wire.Reader.read_startup reader with
  | Ok (Wire.Startup _) -> ()
  | _ -> failwith "traced server: bad startup");
  Wire.authentication_ok buf;
  Wire.ready_for_query buf;
  write_all fd (Buffer.contents buf);
  let rec loop k =
    match Wire.Reader.read_message reader with
    | Ok (Wire.Query sql) ->
      Buffer.clear buf;
      let stmt = (k * nconn) + conn in
      (try answer p r ~stmt sql buf
       with e ->
         Buffer.clear buf;
         Wire.error_response buf ~sqlstate:"XX000" (Printexc.to_string e);
         Wire.ready_for_query buf);
      write_all fd (Buffer.contents buf);
      loop (k + 1)
    | Ok Wire.Terminate | Error _ -> ()
    | Ok _ -> loop k
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> loop 0)

(* ---- the traced client ------------------------------------------- *)

type client = {
  fd : Unix.file_descr;
  conn_id : int;
  nconn : int;
  rec_ : recorder;
  chunk : Bytes.t;
  mutable k : int;
  mutable timed : bool;
}

(* Read whole backend frames until ReadyForQuery; the raw bytes. *)
let read_reply c =
  let out = Buffer.create 4096 in
  let rec parse pos =
    let have = Buffer.length out - pos in
    if have < 5 then `More pos
    else
      let byte i = Char.code (Buffer.nth out (pos + i)) in
      let len = (byte 1 lsl 24) lor (byte 2 lsl 16) lor (byte 3 lsl 8) lor byte 4 in
      let next = pos + 1 + len in
      if Buffer.length out < next then `More pos
      else if Buffer.nth out pos = 'Z' then `Done
      else parse next
  in
  let rec fill pos =
    match parse pos with
    | `Done -> Buffer.contents out
    | `More pos ->
      let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
      if n = 0 then failwith "traced client: server closed";
      Buffer.add_subbytes out c.chunk 0 n;
      fill pos
  in
  fill 0

let decode raw =
  let rd = Wire.Reader.of_string raw in
  let rec go cols rows err =
    match Wire.read_backend rd with
    | Ok (Wire.B_row_description cs) -> go cs rows err
    | Ok (Wire.B_data_row vs) -> go cols (vs :: rows) err
    | Ok (Wire.B_error _ as e) ->
      go cols rows
        (Some
           ( Option.value ~default:"" (Wire.error_field e 'C'),
             Option.value ~default:"" (Wire.error_field e 'M') ))
    | Ok (Wire.B_ready _) -> (
      match err with
      | Some e -> Error e
      | None -> Ok { Oracle.columns = cols; rows = List.rev rows })
    | Ok _ -> go cols rows err
    | Error e -> Error ("08P01", Wire.error_to_string e)
  in
  go [] [] None

let send c build =
  let buf = Buffer.create 256 in
  build buf;
  write_all c.fd (Buffer.contents buf)

let client_connect ~port ~conn_id ~nconn =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; conn_id; nconn; rec_ = recorder (); chunk = Bytes.create 65536;
    k = 0; timed = false }

let client_start c =
  send c (fun b -> Wire.startup_message b [ ("user", "perfbench") ]);
  ignore (read_reply c)

let query c sql =
  let stmt = (c.k * c.nconn) + c.conn_id in
  c.k <- c.k + 1;
  let t0 = Ledger.now () in
  send c (fun b -> Wire.query_message b sql);
  let raw = read_reply c in
  let reply = span c.rec_ ~stmt "net.client_decode" (fun () -> decode raw) in
  let t1 = Ledger.now () in
  c.rec_.spans <-
    { Ledger.id = stmt; parent = -1; stmt; name = Ledger.roundtrip; t0; t1 }
    :: c.rec_.spans;
  c.rec_.replies <- (stmt, String.length raw, c.timed) :: c.rec_.replies;
  reply

let client_close c =
  (try send c Wire.terminate_message with Unix.Unix_error _ -> ());
  Unix.close c.fd
