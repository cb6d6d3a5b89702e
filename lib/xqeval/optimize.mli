(** Logical optimizer over the XQuery AST.

    Runs before evaluation ([Eval]) or compilation ([Compile]) and
    rewrites FLWOR blocks: conjunctive [where] clauses are split and
    pushed to the earliest position where their free variables are
    bound, and [for]+[where] equality patterns over independent clause
    variables are fused into the [Ast.Hash_join] physical operator
    (hash table on the build side keyed by [Atomic.hash_key], probed by
    the incoming tuple stream — O(n+m) instead of the O(n*m) nested
    loop).

    A final scan-sharing pass hoists parameterless data-service calls
    that occur more than once in the plan (self-joins, uncorrelated
    subqueries) into a single [let]-bound materialization at the top,
    so the service is invoked once per plan instead of once per
    occurrence.

    A first pattern match at the top of the plan fuses the section-4
    text wrapper into the rows it encodes (see {!text_encoder});
    [xqeval.text_encoder.fused] or [xqeval.text_encoder.general]
    counts each wrapped plan.

    The pass is purely structural and never evaluates expressions. *)

module Vars : Set.S with type elt = string

(** How a text-transport wrapper (paper section 4) encodes its rows. *)
type text_encoder =
  | Fused
      (** every RECORD constructor was replaced by a {!Text_row.row_fn}
          call: no RECORD is built, and the wrapper FLWOR is gone *)
  | General of string
      (** the wrapper runs as written; the reason names the shape the
          fusion does not cover *)

type report = {
  pushed_predicates : int;  (** conjuncts moved earlier in a pipeline *)
  hash_joins : int;         (** [For]+[Where] pairs fused into [Hash_join] *)
  shared_scans : int;       (** repeated scans hoisted into a shared [let] *)
  encode : text_encoder option;
      (** [None] when the plan is not a text-transport wrapper *)
  notes : string list;      (** human-readable one-liners *)
}

val encode_label : text_encoder -> string
(** ["fused"] or ["general (<reason>)"], for analyze output. *)

val empty_report : report

val scan_var : string -> string
(** The hoisted binding name for a shared scan of the named function
    ('#'-prefixed, so it can never collide with parsed identifiers). *)

val expr :
  ?share_scans:bool ->
  Aqua_xquery.Ast.expr ->
  Aqua_xquery.Ast.expr * report
(** Optimize an expression bottom-up.  [share_scans] (default [true])
    controls the scan-sharing hoist.  The report notes also record how
    {!Compile} will run the plan (current {!Batch.size}, per-operator
    column materialization and kernel selection), so EXPLAIN-style
    consumers can describe it. *)

val query :
  ?share_scans:bool ->
  ?vectorize:bool ->
  ?columnar:bool ->
  Aqua_xquery.Ast.query ->
  Aqua_xquery.Ast.query * report
(** Optimize a query body (prolog is untouched).  [vectorize] and
    [columnar] are accepted and ignored; they are kept only for the
    benchmark's trace pipeline, which still passes them. *)

val fused_rows : Aqua_xquery.Ast.expr -> bool
(** Whether an expression is a fused row tree: sequences, conditionals
    and FLWOR returns over {!Text_row.row_fn} calls.  {!Compile} lowers
    [fn:string-join] of such a tree to one text encoder. *)

(** {1 Columnar-engine analyses}

    Used by {!Compile}'s columnar pipeline; exposed here because they
    are purely structural AST analyses. *)

type kernel_spec = {
  k_kind : Kernels.kind;
  k_step : string option;
      (** [None] = the whole partition; [Some name] = the child-step
          column [$partition/name] *)
  k_var : string;  (** the synthetic ['#agg:'] variable bound instead *)
}

val spec_label : kernel_spec -> string
(** e.g. ["count"] or ["sum(PAYMENT)"], for plans and analyze output. *)

val group_kernels :
  partition:string ->
  Aqua_xquery.Ast.clause list ->
  Aqua_xquery.Ast.expr ->
  (kernel_spec list * Aqua_xquery.Ast.clause list * Aqua_xquery.Ast.expr)
  option
(** [group_kernels ~partition rest return] rewrites every use of the
    partition variable in the post-group remainder into a read of a
    synthetic kernel variable, when — and only when — every use is one
    of the translator's aggregate shapes ([fn:count]/[fn:sum]/[fn:avg]/
    [fn:min]/[fn:max]/[fn:empty]/[fn:exists] over the partition or one
    child step of it, including the [if (fn:empty(c)) then () else
    fn:sum(c)] SQL NULL shape).  Returns the kernel inventory plus the
    rewritten remainder, or [None] when any other use (or a rebinding
    of the partition name) forces the materializing path. *)

val columnar_shape : Aqua_xquery.Ast.expr -> string list
(** EXPLAIN-style one-liners describing the columnar pipeline shape:
    columns carried vs pruned per expander/barrier and the kernels
    selected per group clause. *)

val free_vars : Aqua_xquery.Ast.expr -> Vars.t
(** Precise free variables of an expression, with the context item "."
    treated as a variable.  Unlike [Ast.free_vars] this respects
    binding structure (FLWOR clauses, quantifiers, predicates) and the
    BEA group-by scoping rule (pre-group bindings do not survive). *)

val scoping_hazard : bound:Vars.t -> Aqua_xquery.Ast.expr -> string option
(** [scoping_hazard ~bound e] is [Some v] when a [where] clause inside
    [e] references [$v] before the clause of the same FLWOR that binds
    it (the naive clause fold would silently filter every tuple out).
    [bound] seeds the statically-known outer bindings. *)
