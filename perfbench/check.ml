(* The oracle verdict of one run: every distinct text checked in full
   before timing, every timed reply checked by digest (or in full
   afterwards, for texts first seen in the timed window). *)

type t = {
  app : Aqua_dsp.Artifact.application;
  env : Aqua_sqlengine.Engine.env;
  expected : (string, bool * Digest.t option) Hashtbl.t;
      (** per text: ORDER BY present, digest of its checked reply
          ([None] when that reply failed the check) *)
  mutable failures : Drive.failure list;
}

let create app =
  { app;
    env = Aqua_sqlengine.Engine.env_of_application app;
    expected = Hashtbl.create 256;
    failures = [] }

let fail t failure = t.failures <- failure :: t.failures

(* Full check of one reply; a passing reply's digest becomes the
   reference for later replies to the same text. *)
let full t sql result =
  let ordered = Oracle.ordered sql in
  let verdict =
    match result with
    | Error (state, msg) -> Error (state ^ " " ^ msg)
    | Ok reply -> (
      match Oracle.check t.env sql reply with
      | Ok () -> Ok (Oracle.digest ~ordered reply.Oracle.rows)
      | Error reason -> Error reason)
  in
  match verdict with
  | Ok d -> Hashtbl.replace t.expected sql (ordered, Some d)
  | Error reason ->
    Hashtbl.replace t.expected sql (ordered, None);
    fail t { Drive.sql; reason }

(* A reply to a text checked before, against that check's digest;
   [`Keep] for a text not checked yet.  Read-only on the table, so
   the loops' domains can share it. *)
let against_digest t sql (reply : Oracle.reply) =
  match Hashtbl.find_opt t.expected sql with
  | None -> `Keep
  | Some (_, None) -> `Bad "statement failed its oracle check"
  | Some (ordered, Some d) ->
    if Digest.equal d (Oracle.digest ~ordered reply.Oracle.rows) then `Ok
    else `Bad "reply differs from the checked reply"

let judge t ~sql_of index reply = against_digest t (sql_of index) reply

(* A warm-up reply: by digest when its text was checked before, in
   full otherwise. *)
let verify t sql result =
  match result with
  | Error _ -> full t sql result
  | Ok reply -> (
    match against_digest t sql reply with
    | `Ok -> ()
    | `Bad reason -> fail t { Drive.sql; reason }
    | `Keep -> full t sql result)

(* Check what the loops kept, and collect every failure they saw.
   Kept replies are checked on one domain per core, each with an
   engine of its own over the same (read-only) catalog. *)
let settle t ~sql_of (loops : Drive.loop list) =
  let domains = Aqua_multicore.Mcore.num_cores () in
  List.iter (fun (l : Drive.loop) -> List.iter (fail t) l.Drive.failures) loops;
  let kept = Array.of_list (List.concat_map (fun l -> l.Drive.kept) loops) in
  let part d () =
    let env = Aqua_sqlengine.Engine.env_of_application t.app in
    let bad = ref [] in
    Array.iteri
      (fun k (index, reply) ->
        if k mod domains = d then
          let sql = sql_of index in
          match Oracle.check env sql reply with
          | Ok () -> ()
          | Error reason -> bad := { Drive.sql; reason } :: !bad)
      kept;
    !bad
  in
  Aqua_multicore.Mcore.Domains.parallel (List.init domains part)
  |> List.iter (function
       | Ok bad -> List.iter (fail t) bad
       | Error e -> raise e)

let report t =
  let by_sql = Hashtbl.create 16 in
  List.iter
    (fun (f : Drive.failure) ->
      let n, reason =
        Option.value ~default:(0, f.Drive.reason)
          (Hashtbl.find_opt by_sql f.Drive.sql)
      in
      Hashtbl.replace by_sql f.Drive.sql (n + 1, reason))
    t.failures;
  Hashtbl.fold (fun sql (n, reason) acc -> (sql, n, reason) :: acc) by_sql []
  |> List.sort compare
