(* What every result is stamped with, so a figure is never read
   without the hardware and configuration it came from. *)

module Mcore = Aqua_multicore.Mcore

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (String.trim (In_channel.input_all ic)))

(* The commit of the checkout the benchmark runs in, read from [.git]
   without running git; "unknown" outside a git checkout. *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    let np = String.length prefix in
    if String.length head > np && String.sub head 0 np = prefix then
      let r = String.sub head np (String.length head - np) in
      match read_file (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ c; name ] when name = r -> Some c
                 | _ -> None)
          |> Option.value ~default:"unknown")
    else head

type t = {
  nproc : int;
  ocaml : string;
  multicore : bool;
  seed : int;
  commit : string;
  pool : int;
  workers : int;
  connections : int;
  server : string;  (** where the server runs relative to the generator *)
}

let make ~seed ~(config : Aqua_net.Netserver.config) ~connections ~server =
  { nproc = Mcore.num_cores ();
    ocaml = Sys.ocaml_version;
    multicore = Mcore.multicore;
    seed;
    commit = git_commit ();
    pool = config.Aqua_net.Netserver.pool_size;
    workers = config.workers;
    connections;
    server }

(* Throughput over several connections is a multi-domain figure: it
   only means something when each connection can have a core. *)
let concurrency t =
  if t.connections <= t.nproc then Ok ()
  else
    Error
      (Printf.sprintf "not_measured: %d connections on %d cores"
         t.connections t.nproc)

let to_json t =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": %S, \"multicore\": %b, \"seed\": %d, \
     \"commit\": %S, \"pool\": %d, \"workers\": %d, \"connections\": %d, \
     \"server\": %S, \"concurrency\": %S}"
    t.nproc t.ocaml t.multicore t.seed t.commit t.pool t.workers
    t.connections t.server
    (match concurrency t with Ok () -> "measured" | Error e -> e)
