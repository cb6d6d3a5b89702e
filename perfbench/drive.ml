(* The load generator's side: closed-loop connections and the server
   child process they talk to. *)

module Client = Aqua_net.Client
module Domains = Aqua_multicore.Mcore.Domains

(* A growable float vector, one per connection: no sharing between
   domains while the loop runs. *)
module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_list v = Array.to_list (Array.sub v.a 0 v.n)
end

type failure = { sql : string; reason : string }

(* What one connection saw during the timed window. *)
type loop = {
  latency_ms : Vec.t;
  finished : Vec.t;  (** completion time, s since the window opened *)
  indexes : int list;  (** statement indexes, most recent first *)
  failures : failure list;
  kept : (int * Oracle.reply) list;  (** replies left for a later check *)
  rows : int;
  bytes : int;
}

(* Run one connection's closed loop until [deadline], and on to the
   next multiple of [pass] statements: issue statement [index k] for
   k = 0, 1, ..., each only after the previous reply.
   [judge] checks a reply on the spot ([`Ok] / [`Bad reason]) or
   keeps it for a later check ([`Keep]). *)
let closed_loop ~t0 ~deadline ~pass ~index ~sql_of ~query ~judge =
  let latency_ms = Vec.create () and finished = Vec.create () in
  let rec go k indexes failures kept rows bytes =
    if k mod pass = 0 && Int64.compare (Ledger.now ()) deadline >= 0 then
      { latency_ms; finished; indexes; failures; kept; rows; bytes }
    else begin
      let i = index k in
      let sql = sql_of i in
      let s = Ledger.now () in
      let r = query sql in
      let e = Ledger.now () in
      Vec.push latency_ms (Int64.to_float (Int64.sub e s) /. 1e6);
      Vec.push finished (Int64.to_float (Int64.sub e t0) /. 1e9);
      match r with
      | Error (state, msg) ->
        go (k + 1) (i :: indexes)
          ({ sql; reason = state ^ " " ^ msg } :: failures)
          kept rows bytes
      | Ok (reply : Oracle.reply) ->
        let rows = rows + List.length reply.rows in
        let bytes = bytes + Oracle.wire_bytes reply in
        (match judge i reply with
        | `Ok -> go (k + 1) (i :: indexes) failures kept rows bytes
        | `Bad reason ->
          go (k + 1) (i :: indexes) ({ sql; reason } :: failures)
            kept rows bytes
        | `Keep -> go (k + 1) (i :: indexes) failures ((i, reply) :: kept) rows bytes)
    end
  in
  go 0 [] [] [] 0 0

(* Run [n] closed loops side by side, one domain each; connection c
   issues statements offset + c, offset + c + n, ... *)
let run_loops ~offset ~seconds ~pass ~queries ~sql_of ~judge =
  let n = Array.length queries in
  let t0 = Ledger.now () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let one c () =
    closed_loop ~t0 ~deadline ~pass
      ~index:(fun k -> offset + c + (k * n))
      ~sql_of ~query:queries.(c) ~judge
  in
  Domains.parallel (List.init n one)
  |> List.map (function Ok l -> l | Error e -> raise e)

let of_client_reply (r : Client.reply) =
  { Oracle.columns = r.Client.columns; rows = r.Client.rows }

let client_query client sql =
  Result.map of_client_reply (Client.query client sql)

let connect ~port =
  match Client.connect ~timeout_ms:60_000 ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error (state, msg) -> failwith ("connect: " ^ state ^ " " ^ msg)

(* ---- the server child process ------------------------------------ *)

type child = {
  pid : int;
  commands : out_channel;
  answers : in_channel;
  port : int;
}

(* Start [exe serve ...] and wait until it listens. *)
let spawn ~args =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "serve" :: args))
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let commands = Unix.out_channel_of_descr in_w in
  let answers = Unix.in_channel_of_descr out_r in
  match String.split_on_char ' ' (input_line answers) with
  | [ "ready"; p ] -> { pid; commands; answers; port = int_of_string p }
  | _ -> failwith "server child did not report a port"

type mark = {
  cpu_s : float;
  heap_words : int;  (** peak major heap *)
  scan : Aqua_dsp.Scan_cache.stats;
}

let ask child cmd =
  output_string child.commands (cmd ^ "\n");
  flush child.commands;
  input_line child.answers

let parse_mark line =
  match String.split_on_char ' ' line with
  | [ "mark"; cpu; heap; h; m; ev; inv; en; b ] ->
    { cpu_s = float_of_string cpu;
      heap_words = int_of_string heap;
      scan =
        { Aqua_dsp.Scan_cache.hits = int_of_string h;
          misses = int_of_string m;
          evictions = int_of_string ev;
          invalidations = int_of_string inv;
          entries = int_of_string en;
          bytes = int_of_string b } }
  | _ -> failwith ("bad mark from server child: " ^ line)

let mark child = parse_mark (ask child "mark")

(* Ask the child to drain and exit, and reap it. *)
let stop child =
  (try ignore (ask child "quit") with End_of_file | Sys_error _ -> ());
  close_out_noerr child.commands;
  close_in_noerr child.answers;
  ignore (Unix.waitpid [] child.pid)

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
