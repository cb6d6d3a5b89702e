(* Aggregation kernels: the one definition of the XQuery aggregates.

   Each kernel folds one aggregate incrementally, one grouped tuple's
   column slice at a time.  The columnar GROUP BY path updates a state
   per (group, aggregate) instead of materializing the partition, and
   functions.ml's one-shot fn:count / fn:sum / fn:avg / fn:min /
   fn:max are a single [fold] over their argument — so both engines
   share the numeric promotion (integer-preserving sum), fold order and
   dynamic errors.  A cast error discovered mid-stream is recorded and
   re-raised at [finish], so the first error in fold order wins however
   the input is sliced.

   [K_sum_null] is the translated-SQL shape
   [if (fn:empty(c)) then () else fn:sum(c)] fused into one kernel:
   SQL's SUM over an empty set is NULL, not 0. *)

module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item

type kind =
  | K_count
  | K_sum
  | K_sum_null
  | K_avg
  | K_min
  | K_max
  | K_empty
  | K_exists

let name = function
  | K_count -> "count"
  | K_sum -> "sum"
  | K_sum_null -> "sum?"
  | K_avg -> "avg"
  | K_min -> "min"
  | K_max -> "max"
  | K_empty -> "empty"
  | K_exists -> "exists"

type state = {
  kind : kind;
  mutable items : int;  (** items seen (fn:count / fn:empty granularity) *)
  mutable atoms : int;  (** atoms seen after atomization (sum/avg) *)
  mutable all_int : bool;
  mutable int_sum : int;
  mutable dbl_sum : float;
  mutable best : Atomic.t option;  (** running extremum (min/max) *)
  mutable error : exn option;
      (** first deferred dynamic error, re-raised at [finish] iff the
          one-shot fold would have reached it *)
}

let create kind =
  {
    kind;
    items = 0;
    atoms = 0;
    all_int = true;
    int_sum = 0;
    dbl_sum = 0.0;
    best = None;
    error = None;
  }

(* The numeric promotion of fn:sum/fn:avg: numerics cast to double,
   untyped values parsed, anything else a dynamic error attributed to
   [name]. *)
let numeric_of_atomic name a =
  match a with
  | Atomic.Integer _ | Atomic.Decimal _ | Atomic.Double _ -> Atomic.cast_double a
  | Atomic.Untyped s -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None -> Error.fail "%s: cannot treat %S as a number" name s)
  | _ -> Error.fail "%s: %s is not numeric" name (Atomic.type_name a)

(* F&O: untypedAtomic values are cast to xs:double in fn:min/fn:max. *)
let untype = function
  | Atomic.Untyped s -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> Atomic.Double f
    | None -> Atomic.String s)
  | a -> a

let numeric_update fname st a =
  st.atoms <- st.atoms + 1;
  (match a with Atomic.Integer i -> st.int_sum <- st.int_sum + i
  | _ -> st.all_int <- false);
  match numeric_of_atomic fname a with
  | f -> st.dbl_sum <- st.dbl_sum +. f
  | exception e -> if st.error = None then st.error <- Some e

let update st (seq : Item.sequence) =
  match st.kind with
  | K_count | K_empty | K_exists ->
    st.items <- st.items + List.length seq
  | K_sum | K_sum_null ->
    st.items <- st.items + List.length seq;
    List.iter (numeric_update "fn:sum" st) (Item.atomize seq)
  | K_avg -> List.iter (numeric_update "fn:avg" st) (Item.atomize seq)
  | K_min | K_max ->
    if st.error = None then
      let keep =
        match st.kind with K_min -> fun c -> c < 0 | _ -> fun c -> c > 0
      in
      List.iter
        (fun a ->
          if st.error = None then
            let a = untype a in
            match st.best with
            | None -> st.best <- Some a
            | Some best -> (
              match Atomic.compare_values a best with
              | c -> if keep c then st.best <- Some a
              | exception e -> st.error <- Some e))
        (Item.atomize seq)

let finish_sum st =
  if st.atoms = 0 then Item.of_int 0
  else if st.all_int then [ Item.atomic (Atomic.Integer st.int_sum) ]
  else
    match st.error with
    | Some e -> raise e
    | None -> [ Item.atomic (Atomic.Double st.dbl_sum) ]

let finish st : Item.sequence =
  match st.kind with
  | K_count -> Item.of_int st.items
  | K_empty -> Item.of_bool (st.items = 0)
  | K_exists -> Item.of_bool (st.items > 0)
  | K_sum -> finish_sum st
  | K_sum_null -> if st.items = 0 then [] else finish_sum st
  | K_avg ->
    if st.atoms = 0 then []
    else (
      match st.error with
      | Some e -> raise e
      | None -> Item.of_double (st.dbl_sum /. float_of_int st.atoms))
  | K_min | K_max -> (
    match st.error with
    | Some e -> raise e
    | None -> (
      match st.best with None -> [] | Some a -> [ Item.atomic a ]))

let fold kind seq =
  let st = create kind in
  update st seq;
  finish st
