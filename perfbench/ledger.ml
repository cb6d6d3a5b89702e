(* Spans and the per-layer ledger built from them.

   A span is one timed call into a layer: its name, start and end (ns
   on one monotonic clock), its parent span and the statement it
   served.  A span's self time is its duration minus the part of that
   interval its children cover.  The root of each statement is its
   round trip; the root's own self time is the time no layer claims,
   reported as [unattributed]. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a statement's round trip *)
  stmt : int;
  name : string;
  t0 : int64;
  t1 : int64;
}

let roundtrip = "net.roundtrip"
let unattributed = "unattributed"

let duration s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Length of the union of [lo, hi) intervals, each clipped to [a, b). *)
let covered ~a ~b intervals =
  let clipped =
    List.filter_map
      (fun (lo, hi) ->
        let lo = max a lo and hi = min b hi in
        if Int64.compare hi lo > 0 then Some (lo, hi) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
        match cur with
        | None -> (total, Some (lo, hi))
        | Some (clo, chi) ->
          if Int64.compare lo chi <= 0 then (total, Some (clo, max chi hi))
          else (Int64.add total (Int64.sub chi clo), Some (lo, hi)))
      (0L, None) clipped
  in
  match last with
  | None -> total
  | Some (lo, hi) -> Int64.add total (Int64.sub hi lo)

(* Self time (ns) of every span of one statement, by layer name; the
   round trip's self time is listed under [unattributed].  Layers that
   ran more than once in the statement are summed. *)
let self_times spans =
  let children id =
    List.filter_map
      (fun s -> if s.parent = id then Some (s.t0, s.t1) else None)
      spans
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Int64.to_float
          (Int64.sub (Int64.sub s.t1 s.t0) (covered ~a:s.t0 ~b:s.t1 (children s.id)))
      in
      let name = if s.name = roundtrip then unattributed else s.name in
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name (prev +. self))
    spans;
  tbl

(* Spans grouped by statement, keeping only statements that have a
   round trip. *)
let by_statement spans =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.stmt
        (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.stmt)))
    spans;
  Hashtbl.fold
    (fun stmt ss acc ->
      match List.find_opt (fun s -> s.name = roundtrip) ss with
      | Some rt -> (stmt, rt, ss) :: acc
      | None -> acc)
    tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quantile q = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (Float.of_int n *. q)))

type row = {
  layer : string;
  ran : int;  (** statements on which the layer ran *)
  mean_us : float;  (** self time per statement, 0 where it did not run *)
  median_us : float;  (** median self time over the statements it ran on *)
}

type t = {
  statements : int;
  rows : row list;  (** layers in [order], then [unattributed] *)
  roundtrip_mean_us : float;
  roundtrip_median_us : float;
}

(* The ledger over every statement with a round trip.  Per statement,
   the self times of all spans add up to the round trip exactly, so
   the [mean_us] column does too. *)
let build ~order spans =
  let stmts = by_statement spans in
  let n = List.length stmts in
  let selfs = List.map (fun (_, _, ss) -> self_times ss) stmts in
  let names =
    let extra =
      List.concat_map
        (fun tbl -> Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
        selfs
      |> List.sort_uniq compare
      |> List.filter (fun k -> not (List.mem k order) && k <> unattributed)
    in
    order @ extra @ [ unattributed ]
  in
  let row layer =
    let vals = List.filter_map (fun tbl -> Hashtbl.find_opt tbl layer) selfs in
    let us = List.map (fun v -> v /. 1e3) vals in
    { layer;
      ran = List.length vals;
      mean_us = (if n = 0 then 0. else List.fold_left ( +. ) 0. us /. Float.of_int n);
      median_us = median us }
  in
  let rts = List.map (fun (_, rt, _) -> duration rt /. 1e3) stmts in
  { statements = n;
    rows = List.map row names;
    roundtrip_mean_us =
      (if n = 0 then 0. else List.fold_left ( +. ) 0. rts /. Float.of_int n);
    roundtrip_median_us = median rts }

let find t layer = List.find_opt (fun r -> r.layer = layer) t.rows

let now () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9
