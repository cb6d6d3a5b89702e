(** A compiling evaluator: lowers an XQuery AST once into OCaml
    closures over slot-based environments, so repeated executions skip
    AST dispatch and name lookups — the counterpart of the DSP
    server's query compilation step.  This is the one production
    engine; the interpreter {!Eval} ([~vectorize:false]) is the
    reference semantics it is differentially tested against.

    FLWOR pipelines are lowered to a push-based columnar batch engine:
    clauses exchange fixed-capacity batches ({!Batch.size} rows) in a
    struct-of-arrays layout — one value vector per bound variable plus
    a selection vector ({!Batch.columns}) — with required-column
    pruning (expanders and barriers copy only the columns the rest of
    the pipeline reads) and vectorized aggregation kernels (group-by
    clauses whose post-group reads are all translator aggregate shapes
    never materialize the partition; see {!Optimize.group_kernels} and
    {!Kernels}).

    Variable scoping is resolved at compile time; referencing an
    undefined variable (including bindings dropped by the group-by
    clause) is a {!Compile_error}. *)

type compiled
(** A compiled query, executable any number of times. *)

exception Compile_error of string

type resolver = string -> (Aqua_xml.Item.sequence list -> Aqua_xml.Item.sequence) option
(** External function resolver — structurally identical to
    {!Eval.external_fn} based resolvers (the DSP server passes the
    same closure to both engines). *)

val compile :
  ?optimize:bool ->
  ?scan_cache:bool ->
  ?vectorize:bool ->
  ?columnar:bool ->
  ?resolve:resolver ->
  ?vars:string list ->
  Aqua_xquery.Ast.query ->
  compiled
(** Resolves function names (built-ins first, then [resolve]) and
    variable slots now; dynamic errors remain dynamic.  [vars] names
    external bindings (e.g. prepared-statement parameters) supplied at
    run time.  With [optimize] (the default) the {!Optimize} pass runs
    before lowering, enabling predicate pushdown and hash equi-joins;
    [scan_cache] (default [true]) additionally enables the optimizer's
    scan-sharing hoist for repeated data-service calls.  [vectorize]
    and [columnar] are accepted and ignored; they are kept only for
    the benchmark's trace pipeline, which still passes them.
    @raise Compile_error on unknown functions or variables, and on a
    [where] clause referencing a variable bound only by a later clause
    of the same FLWOR. *)

val compile_expr :
  ?optimize:bool ->
  ?scan_cache:bool ->
  ?resolve:resolver ->
  ?vars:string list ->
  Aqua_xquery.Ast.expr ->
  compiled
(** Compiles a bare expression; [vars] names external bindings that
    must be supplied at run time (in the same order). *)

val run :
  ?bindings:(string * Aqua_xml.Item.sequence) list ->
  compiled ->
  Aqua_xml.Item.sequence
(** Executes. [bindings] supply the external variables declared via
    [vars] (prepared-statement parameters).
    @raise Error.Dynamic_error on dynamic errors (casts, arity,
    unbound externals). *)
