(** The XQuery evaluator.

    Implements the dynamic semantics of the fragment emitted by the
    translator: FLWOR tuple streams (with the BEA group-by extension),
    path navigation with positional and boolean predicates, element
    construction with sequence-content normalization, general and
    value comparisons, quantifiers, and the function library of
    {!Functions} extended with caller-supplied external functions
    (the data-service functions of the platform). *)

type external_fn = Aqua_xml.Item.sequence list -> Aqua_xml.Item.sequence

type context
(** Dynamic evaluation context: variable bindings plus the resolver
    for non-built-in function names. *)

val context :
  ?resolve:(string -> external_fn option) -> unit -> context
(** A fresh context. [resolve] is consulted for any function name not
    found in the built-in library (e.g. ["ns0:CUSTOMERS"]). *)

val bind : context -> string -> Aqua_xml.Item.sequence -> context
(** Binds a variable (name without the ['$']). *)

val eval :
  ?optimize:bool ->
  ?scan_cache:bool ->
  ?vectorize:bool ->
  context ->
  Aqua_xquery.Ast.expr ->
  Aqua_xml.Item.sequence
(** Evaluates an expression.  With [optimize] (the default) the
    {!Optimize} pass runs first, enabling predicate pushdown, hash
    equi-joins and the streaming clause pipeline; [~optimize:false]
    keeps the naive nested-loop semantics as a differential-testing
    oracle.  [scan_cache] (default [true]) additionally enables the
    optimizer's scan-sharing hoist, which materializes repeated
    data-service calls once per plan; [~scan_cache:false] keeps every
    call in place (the no-materialization oracle).

    [vectorize] (default [true]) executes the optimized plan through
    the compiled engine ({!Compile}: columnar {!Batch.size}-row
    batches); [~vectorize:false] keeps this module's tree-walking
    interpreter, the oracle the compiled engine is differentially
    tested against.  An expression the compiler rejects is answered by
    the interpreter instead, and each such fallback increments the
    [xqeval.interpret_fallbacks] telemetry counter.

    Either way a [where] clause referencing a variable bound only by a
    later clause of the same FLWOR raises a clear error naming the
    variable.
    @raise Error.Dynamic_error on dynamic errors (unknown variable or
    function, type mismatches, cast failures). *)

val eval_query :
  ?optimize:bool ->
  ?scan_cache:bool ->
  ?vectorize:bool ->
  context ->
  Aqua_xquery.Ast.query ->
  Aqua_xml.Item.sequence
(** Evaluates a full query; the prolog's schema imports carry no
    dynamic semantics in this engine (function resolution is by
    prefixed name). *)
