(* The server child process: the workload's catalog behind
   [Aqua_net.Netserver], answering control commands on stdin.

   "mark" replies with the process's CPU seconds, peak major heap and
   scan-cache figures; "quit" (or end of input) drains the server and
   exits. *)

module Netserver = Aqua_net.Netserver
module Connection = Aqua_driver.Connection
module Scan_cache = Aqua_dsp.Scan_cache

let config ~pool =
  { Netserver.default_config with
    Netserver.port = 0;
    pool_size = pool;
    workers = pool;
    io_timeout_ms = 60_000 }

let mark_line conn =
  let cpu = Drive.cpu_self () in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let s = Scan_cache.stats (Connection.scan_cache conn) in
  Printf.sprintf "mark %.6f %d %d %d %d %d %d %d" cpu heap s.Scan_cache.hits
    s.misses s.evictions s.invalidations s.entries s.bytes

let run (w : Workload.t) ~seed =
  let app = Aqua_workload.Datagen.application ~seed w.Workload.sizes in
  let conn = Connection.connect app in
  let srv = Netserver.start ~config:(config ~pool:w.connections) conn in
  Printf.printf "ready %d\n%!" (Netserver.port srv);
  let rec loop () =
    match input_line stdin with
    | "mark" ->
      print_endline (mark_line conn);
      flush stdout;
      loop ()
    | _ | (exception End_of_file) -> ()
  in
  loop ();
  Netserver.drain srv;
  print_endline "bye";
  flush stdout
