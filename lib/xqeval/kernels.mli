(** Aggregation kernels: the one definition of the XQuery aggregates.

    A kernel folds one aggregate incrementally over a grouped column,
    one tuple's slice at a time; the columnar GROUP BY path keeps one
    state per (group, aggregate), and the one-shot {!Functions}
    aggregates are a single {!fold}.  Slicing never changes the result:
    dynamic errors are deferred and re-raised at {!finish} iff the
    one-shot fold over the concatenated input would have reached
    them. *)

type kind =
  | K_count  (** [fn:count] — counts items, no atomization *)
  | K_sum  (** [fn:sum] — empty input yields [0] *)
  | K_sum_null
      (** the translated-SQL shape
          [if (fn:empty(c)) then () else fn:sum(c)]: SUM over an empty
          set is NULL *)
  | K_avg  (** [fn:avg] — empty input yields the empty sequence *)
  | K_min  (** [fn:min] *)
  | K_max  (** [fn:max] *)
  | K_empty  (** [fn:empty] *)
  | K_exists  (** [fn:exists] *)

val name : kind -> string
(** Short label for plans and [analyze] output. *)

type state
(** Per-group accumulator. *)

val create : kind -> state

val update : state -> Aqua_xml.Item.sequence -> unit
(** Fold one tuple's column slice into the accumulator. *)

val finish : state -> Aqua_xml.Item.sequence
(** The aggregate's result; re-raises any deferred dynamic error. *)

val fold : kind -> Aqua_xml.Item.sequence -> Aqua_xml.Item.sequence
(** [finish] of a fresh state updated once with the whole input: the
    one-shot aggregate ([fn:sum] etc.). *)

val numeric_of_atomic : string -> Aqua_xml.Atomic.t -> float
(** The numeric promotion used by [fn:sum]/[fn:avg]: numerics cast to
    double, untyped values parsed, anything else raises
    {!Error.Dynamic_error} attributed to [name]. *)
