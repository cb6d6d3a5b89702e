(** The built-in XQuery function library: the [fn:] functions and
    [fn-bea:] extensions the translator emits, plus the [xs:] type
    constructor functions used for casts. *)

type impl = Aqua_xml.Item.sequence list -> Aqua_xml.Item.sequence

val lookup : string -> impl option
(** Look up a built-in by its qualified name, e.g. ["fn:string-join"].
    The implementation raises {!Error.Dynamic_error} on arity or type
    mismatches. *)

val names : unit -> string list
(** All registered built-in names (for diagnostics and docs). *)

val like_match : ?escape:char -> pattern:string -> string -> bool
(** SQL LIKE semantics ([%], [_], optional escape character); the
    engine behind [fn-bea:like], shared with the baseline SQL engine.
    @raise Error.Dynamic_error on a malformed pattern. *)

