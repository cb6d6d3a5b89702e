module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Node = Aqua_xml.Node
module X = Aqua_xquery.Ast
module Telemetry = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore
module Budget = Aqua_resilience.Budget
module Failpoint = Aqua_resilience.Failpoint

exception Compile_error of string

let cfail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt
let dfail = Error.fail

(* Runtime environment: one mutable slot per statically-resolved
   variable.  Sequential evaluation makes slot mutation safe; FLWOR
   pipelines keep their tuples in batch columns and load them into a
   private scratch array per row. *)
type rt = Item.sequence array

type comp = rt -> Item.sequence

(* The structural type of an external function resolver ([Eval]'s
   [external_fn] is an alias of the same type; naming it structurally
   here keeps this module independent of [Eval], which now depends on
   the compiler). *)
type resolver = string -> (Item.sequence list -> Item.sequence) option

(* Compile-time environment: name -> slot. *)
type cenv = {
  slots : (string * int) list;
  next : int ref;
  resolve : resolver;
}

let bind_slot cenv name =
  let slot = !(cenv.next) in
  incr cenv.next;
  ({ cenv with slots = (name, slot) :: cenv.slots }, slot)

let lookup_slot cenv name =
  match List.assoc_opt name cenv.slots with
  | Some slot -> slot
  | None -> cfail "undefined variable $%s" name

(* ------------------------------------------------------------------ *)
(* Shared dynamic helpers (same semantics as Eval)                     *)

let cmp_holds (op : X.cmp) c =
  match op with
  | X.Eq -> c = 0
  | X.Ne -> c <> 0
  | X.Lt -> c < 0
  | X.Le -> c <= 0
  | X.Gt -> c > 0
  | X.Ge -> c >= 0

let general_compare op left right =
  let latoms = Item.atomize left and ratoms = Item.atomize right in
  List.exists
    (fun a ->
      List.exists (fun b -> cmp_holds op (Atomic.compare_values a b)) ratoms)
    latoms

let value_compare op left right =
  match (Item.atomize left, Item.atomize right) with
  | [], _ | _, [] -> []
  | [ a ], [ b ] -> Item.of_bool (cmp_holds op (Atomic.compare_values a b))
  | _ -> dfail "value comparison requires singleton operands"

let arith_atomic (op : X.arith) a b =
  let untype = function
    | Atomic.Untyped s -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> Atomic.Double f
      | None -> dfail "cannot use %S in arithmetic" s)
    | v -> v
  in
  let a = untype a and b = untype b in
  match (a, b, op) with
  | Atomic.Integer x, Atomic.Integer y, X.Add -> Atomic.Integer (x + y)
  | Atomic.Integer x, Atomic.Integer y, X.Sub -> Atomic.Integer (x - y)
  | Atomic.Integer x, Atomic.Integer y, X.Mul -> Atomic.Integer (x * y)
  | Atomic.Integer x, Atomic.Integer y, X.Idiv ->
    if y = 0 then dfail "integer division by zero" else Atomic.Integer (x / y)
  | Atomic.Integer x, Atomic.Integer y, X.Mod ->
    if y = 0 then dfail "modulus by zero" else Atomic.Integer (x mod y)
  | Atomic.Integer x, Atomic.Integer y, X.Div ->
    if y = 0 then dfail "division by zero"
    else Atomic.Decimal (float_of_int x /. float_of_int y)
  | _ ->
    let x = Atomic.cast_double a and y = Atomic.cast_double b in
    let promote v =
      match (a, b) with
      | (Atomic.Double _, _ | _, Atomic.Double _) -> Atomic.Double v
      | _ -> Atomic.Decimal v
    in
    (match op with
    | X.Add -> promote (x +. y)
    | X.Sub -> promote (x -. y)
    | X.Mul -> promote (x *. y)
    | X.Div -> if y = 0.0 then dfail "division by zero" else promote (x /. y)
    | X.Idiv ->
      if y = 0.0 then dfail "integer division by zero"
      else Atomic.Integer (int_of_float (Float.trunc (x /. y)))
    | X.Mod ->
      if y = 0.0 then dfail "modulus by zero" else promote (Float.rem x y))

let normalize_content (seq : Item.sequence) : Node.t list =
  let rec go acc pending = function
    | [] ->
      let acc =
        match pending with
        | [] -> acc
        | parts -> Node.Text (String.concat " " (List.rev parts)) :: acc
      in
      List.rev acc
    | Item.Atomic a :: rest -> go acc (Atomic.to_lexical a :: pending) rest
    | Item.Node n :: rest ->
      let acc =
        match pending with
        | [] -> acc
        | parts -> Node.Text (String.concat " " (List.rev parts)) :: acc
      in
      go (n :: acc) [] rest
  in
  go [] [] seq

(* Step-name matching is compiled once per path step: the common case
   (unprefixed column access over unprefixed row children) costs one
   string equality per child, and the cross-prefix fallback compares
   local names in place instead of allocating the substrings
   [Node.local_name] would build for every candidate child. *)
let matches_local local el_name =
  let k = String.length local and n = String.length el_name in
  let start =
    match String.index_opt el_name ':' with None -> 0 | Some i -> i + 1
  in
  n - start = k
  &&
  let rec go j =
    j = k
    || String.unsafe_get el_name (start + j) = String.unsafe_get local j
       && go (j + 1)
  in
  go 0

let compile_step_matcher step_name : string -> bool =
  if step_name = "*" then fun _ -> true
  else
    let local = Node.local_name step_name in
    fun el_name -> el_name = step_name || matches_local local el_name

let children_matching matches (item : Item.t) : Item.sequence =
  match item with
  | Item.Atomic _ -> dfail "path step applied to an atomic value"
  | Item.Node (Node.Text _) -> []
  | Item.Node (Node.Element e) ->
    List.filter_map
      (function
        | Node.Element c when matches c.name -> Some (Item.Node (Node.Element c))
        | Node.Element _ | Node.Text _ -> None)
      e.Node.children

(* Lexicographic comparison over pre-atomized order-by keys; [ckeys]
   pairs each key position with its (compiled key, descending, empty)
   spec, of which only the modifiers are read here. *)
let compare_order_keys ckeys ka kb =
  let rec go ks =
    match ks with
    | [] -> 0
    | ((a, b), (_, desc, empty)) :: more ->
      let c =
        match (a, b) with
        | [], [] -> 0
        | [], _ -> (
          match empty with X.Empty_least -> -1 | X.Empty_greatest -> 1)
        | _, [] -> (
          match empty with X.Empty_least -> 1 | X.Empty_greatest -> -1)
        | x :: _, y :: _ -> Atomic.compare_values x y
      in
      let c = if desc then -c else c in
      if c <> 0 then c else go more
  in
  go (List.combine (List.combine ka kb) ckeys)

(* The first [n] elements of [l]. *)
let take n l = List.filteri (fun i _ -> i < n) l

(* Cross-invocation reuse of hash-join build tables.

   [Server.execute] recompiles its plan on every call, so a memo inside
   the compiled closure would never survive long enough to hit.  When
   the build side is a closed expression (no free variables) and the
   build key reads nothing but the join variable, the finished table is
   a pure function of the source *sequence* and the key expression —
   and the dsp scan cache hands back the physically same sequence until
   the underlying data's revision bumps.  Keying on physical identity
   of the source therefore gets revision tracking for free: a fresh
   materialization is a fresh list, which simply misses.

   The cache is a short move-to-front list; workloads hash-join against
   a handful of hot scans and the [==] probe costs nothing.  Stale
   entries age out by eviction. *)
type jt_entry = {
  je_src : Item.sequence;
  je_key : X.expr;  (* build-key AST, compared structurally *)
  je_cmp : bool;  (* value_cmp flag — changes probe/poison semantics *)
  je_table : Join_table.t;
}

(* Domain-local, like the batch pools below: the cache is a
   mutable MRU list probed on every hash-join build, and sharding it
   per domain keeps the probe lock-free.  The build tables themselves
   are immutable once built, and the scan cache already shares the
   expensive part (the materialized source) across domains. *)
let jt_cache : jt_entry list ref Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> ref [])

let jt_cache_cap = 8

let jt_find src key value_cmp =
  let jt_cache = Mcore.Dls.get jt_cache in
  let rec go acc = function
    | [] -> None
    | e :: rest ->
      if e.je_src == src && e.je_cmp = value_cmp && e.je_key = key then begin
        jt_cache := e :: List.rev_append acc rest;
        Some e.je_table
      end
      else go (e :: acc) rest
  in
  go [] !jt_cache

let jt_store src key value_cmp table =
  let jt_cache = Mcore.Dls.get jt_cache in
  let e =
    { je_src = src; je_key = key; je_cmp = value_cmp; je_table = table }
  in
  jt_cache := e :: take (jt_cache_cap - 1) !jt_cache

(* ------------------------------------------------------------------ *)
(* Columnar (struct-of-arrays) pipeline plumbing

   FLWOR pipelines run over batches with one value vector per bound
   variable ([Batch.columns]): operators read and write whole columns
   under a selection vector, and expanders and barriers copy only the
   columns the remainder of the pipeline can still read
   (required-column pruning, computed from [Optimize.free_vars] at
   compile time).  Per-row expression evaluation reuses the scalar
   closures: each operator gathers just its own free-variable columns
   into a per-invocation scratch slot array and runs the ordinary
   [comp] on it. *)

(* Push-based operator chain: one [csink] per clause, pushing into the
   next.  [cflush] drains barrier state (sort/group buffers, partial
   output batches) at end of stream. *)
type csink = {
  cpush : Batch.columns -> unit;
  cflush : unit -> unit;
}

(* Per-invocation context: capacity, pooled allocator, telemetry flag,
   total slot count and the shared scratch row.  The scratch is safe to
   share across the chain because every operator (re)gathers its
   columns per selected row before evaluating, and nothing reads it
   across a downstream emission. *)
type cctx = {
  ccap : int;
  calloc : unit -> Batch.columns;
  cinstr : bool;
  cnslots : int;
  cscratch : rt;
}

(* Batch emission bookkeeping: a failpoint site per batch boundary plus
   the xqeval.batch.* and xqeval.columnar.* traffic counters, bumped
   only where a batch is created (the initial feed and expander/barrier
   emissions), so the interpreter produces zero batch traffic. *)
let note_batch n =
  Failpoint.hit "xqeval.batch";
  Telemetry.incr Telemetry.c_batch_batches;
  Telemetry.add Telemetry.c_batch_rows n;
  Telemetry.incr Telemetry.c_col_batches;
  Telemetry.add Telemetry.c_col_rows n

(* Batch buffers are pooled at module level: an ad-hoc [Server.execute]
   compiles a fresh plan per call, so a per-closure pool would never see
   a second invocation, and a cached plan may run on several domains at
   once; at large batch sizes the O(capacity) buffer allocation per call
   would dominate.  Acquire removes a buffer from
   the pool (re-entrant pipelines therefore just take distinct
   buffers); a normal completion returns them, a failed invocation
   drops them to the GC.  A pooled buffer is re-shaped to the current
   plan's slot count and capacity by [Batch.ensure_columns] on acquire.
   The pools are bounded: pooled buffers retain the last invocation's
   cells until overwritten, so the bound also caps that residue.

   Domain-local: pooled buffers are written in place by whichever
   pipeline holds them, so two domains must never draw from one pool.
   Per-domain pools need no locking and no cross-core cache traffic;
   the cost is one pool's worth of buffers per serving domain. *)
let cbatch_pools : (int * Batch.columns list ref) list ref Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> ref [])

let cbatch_pool_caps = 8  (* distinct batch capacities kept alive *)
let cbatch_pool_cap = 16  (* buffers kept per capacity *)

let cbatch_pool_for cap =
  let cbatch_pools = Mcore.Dls.get cbatch_pools in
  match List.assoc_opt cap !cbatch_pools with
  | Some p -> p
  | None ->
    let p = ref [] in
    cbatch_pools := (cap, p) :: take (cbatch_pool_caps - 1) !cbatch_pools;
    p

let cbatch_release (pool : Batch.columns list ref) acquired =
  pool := take cbatch_pool_cap (List.rev_append acquired !pool)

let ccounter cctx label =
  if not cctx.cinstr then fun _ -> ()
  else begin
    let c = Telemetry.clause_counter label in
    fun n ->
      if n > 0 then begin
        Telemetry.add c n;
        Telemetry.add Telemetry.c_rows_emitted n
      end
  end

(* Columnar clause plan: plain clauses, plus group-by clauses whose
   post-group aggregate reads were fused into vectorized kernels (the
   partition is then never materialized). *)
type cclause =
  | C_plain of X.clause
  | C_kernel of {
      ck_grouped : string;
      ck_partition : string;
      ck_keys : (X.expr * string) list;
      ck_specs : Optimize.kernel_spec list;
      ck_orig : X.clause;  (* the original [Group], for liveness views *)
    }

let cclause_view = function C_plain c -> c | C_kernel k -> k.ck_orig

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)

(* the context-item pseudo-variable used by predicates *)
let dot = "."

let rec compile_expr_c (cenv : cenv) (e : X.expr) : comp =
  match e with
  | X.Literal a ->
    let item = [ Item.Atomic a ] in
    fun _ -> item
  | X.Var v ->
    let slot = lookup_slot cenv v in
    fun rt -> rt.(slot)
  | X.Context_item ->
    let slot = lookup_slot cenv dot in
    fun rt -> rt.(slot)
  | X.Seq es ->
    let parts = List.map (compile_expr_c cenv) es in
    fun rt -> List.concat_map (fun c -> c rt) parts
  | X.Flwor f -> compile_flwor cenv f
  | X.Path (base, steps) -> (
    let cbase = compile_expr_c cenv base in
    let csteps =
      List.map
        (fun (s : X.step) ->
          ( compile_step_matcher s.X.name,
            List.map (compile_predicate cenv) s.X.predicates ))
        steps
    in
    match csteps with
    | [ (m, []) ] ->
      (* single unpredicated child step — the shape of every translated
         column access, worth keeping free of fold/closure overhead *)
      fun rt -> (
        match cbase rt with
        | [ item ] -> children_matching m item
        | seq -> List.concat_map (children_matching m) seq)
    | _ ->
      fun rt ->
        List.fold_left
          (fun seq (m, preds) ->
            let widened = List.concat_map (children_matching m) seq in
            List.fold_left (fun items p -> p rt items) widened preds)
          (cbase rt) csteps)
  | X.Call ("fn:string-join", [ rows; X.Literal (Atomic.String "") ])
    when Optimize.fused_rows rows ->
    let encode = compile_text_rows cenv rows in
    fun rt ->
      (* small enough for the minor heap: key lookups return a row or
         two, and a large result grows the buffer by doubling anyway *)
      let buf = Buffer.create 256 in
      encode rt buf;
      Item.of_string (Buffer.contents buf)
  | X.Call (name, args) -> (
    let cargs = List.map (compile_expr_c cenv) args in
    (* arity-specialized application: no per-call List.map closure for
       the ubiquitous nullary scans and unary fn:data wrappers *)
    let apply impl =
      match cargs with
      | [] -> fun _ -> impl []
      | [ c ] -> fun rt -> impl [ c rt ]
      | [ c1; c2 ] -> fun rt -> impl [ c1 rt; c2 rt ]
      | _ -> fun rt -> impl (List.map (fun c -> c rt) cargs)
    in
    match Functions.lookup name with
    | Some impl -> apply impl
    | None -> (
      match cenv.resolve name with
      | Some impl -> apply impl
      | None -> cfail "unknown function %s" name))
  | X.Elem { name; content } ->
    let parts =
      List.map
        (fun part ->
          match part with
          | X.Text s ->
            let nodes = if s = "" then [] else [ Item.Node (Node.Text s) ] in
            fun _ -> nodes
          | _ -> compile_expr_c cenv part)
        content
    in
    fun rt ->
      let body =
        match parts with
        | [ p ] -> p rt
        | _ -> List.concat_map (fun c -> c rt) parts
      in
      (* fast paths for the dominant constructed shapes (a single
         atomized column value or a single node) — same results as
         [normalize_content], without its accumulator passes *)
      let children =
        match body with
        | [] -> []
        | [ Item.Atomic a ] -> [ Node.Text (Atomic.to_lexical a) ]
        | [ Item.Node n ] -> [ n ]
        | body -> normalize_content body
      in
      [ Item.Node (Node.Element { Node.name; attrs = []; children }) ]
  | X.Text s ->
    let v = Item.of_string s in
    fun _ -> v
  | X.If (c, t, e) ->
    let cc = compile_expr_c cenv c in
    let ct = compile_expr_c cenv t in
    let ce = compile_expr_c cenv e in
    fun rt ->
      if Item.effective_boolean_value (cc rt) then ct rt else ce rt
  | X.Binop (op, a, b) -> (
    let ca = compile_expr_c cenv a and cb = compile_expr_c cenv b in
    match op with
    | X.B_and ->
      fun rt ->
        Item.of_bool
          (Item.effective_boolean_value (ca rt)
          && Item.effective_boolean_value (cb rt))
    | X.B_or ->
      fun rt ->
        Item.of_bool
          (Item.effective_boolean_value (ca rt)
          || Item.effective_boolean_value (cb rt))
    | X.B_general cmp ->
      fun rt -> Item.of_bool (general_compare cmp (ca rt) (cb rt))
    | X.B_value cmp -> fun rt -> value_compare cmp (ca rt) (cb rt)
    | X.B_arith op -> (
      fun rt ->
        match (Item.atomize (ca rt), Item.atomize (cb rt)) with
        | [], _ | _, [] -> []
        | [ x ], [ y ] -> [ Item.Atomic (arith_atomic op x y) ]
        | _ -> dfail "arithmetic requires singleton operands"))
  | X.Neg a -> (
    let ca = compile_expr_c cenv a in
    fun rt ->
      match Item.atomize (ca rt) with
      | [] -> []
      | [ Atomic.Integer i ] -> Item.of_int (-i)
      | [ v ] -> [ Item.Atomic (Atomic.Double (-.Atomic.cast_double v)) ]
      | _ -> dfail "unary minus requires a singleton operand")
  | X.Quantified { every; bindings; satisfies } ->
    let rec build cenv = function
      | [] ->
        let cs = compile_expr_c cenv satisfies in
        fun rt -> Item.effective_boolean_value (cs rt)
      | (var, src) :: rest ->
        let csrc = compile_expr_c cenv src in
        let cenv', slot = bind_slot cenv var in
        let inner = build cenv' rest in
        fun rt ->
          let items = csrc rt in
          let test item =
            rt.(slot) <- [ item ];
            inner rt
          in
          if every then List.for_all test items else List.exists test items
    in
    let body = build cenv bindings in
    fun rt -> Item.of_bool (body rt)
  | X.Filter (base, pred) ->
    let cbase = compile_expr_c cenv base in
    let cpred = compile_predicate cenv pred in
    fun rt -> cpred rt (cbase rt)

(* Predicates rebind the context item per candidate and handle the
   positional case. *)
(* Boolean-context compilation: a condition consumed only for its
   effective boolean value skips the intermediate boolean item, and a
   general comparison against a literal hoists the constant atom out of
   the per-row path — the shape of every translated residual filter. *)
and compile_cond cenv (e : X.expr) : rt -> bool =
  match e with
  | X.Binop (X.B_and, a, b) ->
    let ca = compile_cond cenv a and cb = compile_cond cenv b in
    fun rt -> ca rt && cb rt
  | X.Binop (X.B_or, a, b) ->
    let ca = compile_cond cenv a and cb = compile_cond cenv b in
    fun rt -> ca rt || cb rt
  | X.Binop (X.B_general cmp, a, X.Literal atom) ->
    let ca = compile_expr_c cenv a in
    fun rt ->
      List.exists
        (fun l -> cmp_holds cmp (Atomic.compare_values l atom))
        (Item.atomize (ca rt))
  | X.Binop (X.B_general cmp, X.Literal atom, b) ->
    let cb = compile_expr_c cenv b in
    fun rt ->
      List.exists
        (fun r -> cmp_holds cmp (Atomic.compare_values atom r))
        (Item.atomize (cb rt))
  | X.Binop (X.B_general cmp, a, b) ->
    let ca = compile_expr_c cenv a and cb = compile_expr_c cenv b in
    fun rt -> general_compare cmp (ca rt) (cb rt)
  | _ ->
    let c = compile_expr_c cenv e in
    fun rt -> Item.effective_boolean_value (c rt)

and compile_predicate cenv (pred : X.expr) : rt -> Item.sequence -> Item.sequence =
  let cenv', slot = bind_slot cenv dot in
  let cpred = compile_expr_c cenv' pred in
  fun rt items ->
    List.filteri
      (fun i item ->
        rt.(slot) <- [ item ];
        match cpred rt with
        | [ Item.Atomic a ] when Atomic.is_numeric a ->
          Atomic.cast_double a = float_of_int (i + 1)
        | result -> Item.effective_boolean_value result)
      items

(* FLWOR compilation: the one lowering of a FLWOR.  Each clause becomes
   a push-based operator over [Batch.columns] (one value vector per
   bound slot plus a selection vector); per-clause setup (slot
   resolution, key compilation, group-key buffers, clause counters) is
   hoisted out of the inner loop, filters compact the selection vector
   in place, and expanders (for, hash-join) append into a pooled output
   batch flushed downstream at capacity.  Order-by and group-by are
   barriers that see the whole tuple stream before emitting.  Two
   further things keep the batches small and the loops tight:

   - Required-column pruning.  Each expander/barrier computes at
     compile time which slots the *remainder* of the pipeline (later
     clauses plus the return) can still read — [Optimize.free_vars] of
     that remainder intersected with the slots bound so far — and
     copies only those columns into its output.  A batch arriving at an
     operator therefore has valid data exactly in the columns live at
     that point; everything else is stale storage no reader touches.

   - Kernel-fused aggregation.  When every post-group read of the
     partition variable is one of the translator's aggregate shapes,
     [Optimize.group_kernels] rewrites them into reads of synthetic
     kernel variables and the group operator keeps one [Kernels.state]
     per (group, kernel) instead of materializing the partition: a
     tight per-tuple update loop during cpush, finished into output
     columns at flush.

   Per-row expression evaluation reuses the scalar [comp] closures:
   each operator gathers its own free-variable columns into the shared
   per-invocation scratch row before evaluating.  The scratch is
   private to the invocation (never the caller's [rt]), so outer slots
   are never clobbered, and nested FLWORs / quantifiers write their own
   fresh slots before reading them.

   Resilience: [Budget.steps] is charged per batch receipt at every
   operator plus per produced row at expanders, so deadlines cancel
   between batches; "xqeval.batch" (via [note_batch]) fires at every
   batch creation, and "xqeval.clause"/"xqeval.hashjoin" once per
   clause per invocation, matching the interpreter's eager pipeline
   construction. *)
and compile_flwor cenv (f : X.flwor) : comp =
  let run =
    col_pipeline cenv f (fun cenv_ret treturn ->
        let cret = compile_expr_c cenv_ret treturn in
        fun scratch results -> results := cret scratch :: !results)
  in
  fun rt ->
    let results = ref [] in
    run rt results;
    List.concat (List.rev !results)

(* The pipeline of [f], parameterized by its return: [ret]
   compiles the return expression against the pipeline's final
   environment into a per-row consumer, which every selected row of the
   final batch feeds with the scratch row and the invocation's
   accumulator. *)
and col_pipeline :
      'a. cenv -> X.flwor -> (cenv -> X.expr -> rt -> 'a -> unit) ->
      rt -> 'a -> unit =
 fun cenv f ret ->
  (* Fuse kernelizable group clauses with their post-group aggregate
     reads before compiling.  The rewrite happens here — in the
     lowering, not the optimizer — so the interpreter oracle keeps
     evaluating the original AST. *)
  let rec transform clauses return_ =
    match clauses with
    | [] -> ([], return_)
    | (X.Group { grouped; partition; keys } as orig) :: rest -> (
      match Optimize.group_kernels ~partition rest return_ with
      | Some (specs, rest', return') ->
        let rest'', return'' = transform rest' return' in
        ( C_kernel
            { ck_grouped = grouped; ck_partition = partition;
              ck_keys = keys; ck_specs = specs; ck_orig = orig }
          :: rest'',
          return'' )
      | None ->
        let rest', return' = transform rest return_ in
        (C_plain orig :: rest', return'))
    | c :: rest ->
      let rest', return' = transform rest return_ in
      (C_plain c :: rest', return')
  in
  let tclauses, treturn = transform f.X.clauses f.X.return in
  (* Liveness: the variables the rest of the pipeline can still read.
     A fused group is viewed as its original [Group] clause — its
     synthetic kernel variables read nothing upstream, and the slot-set
     intersection drops them from any copy set computed before the
     group binds them. *)
  let live_after rest =
    Optimize.free_vars
      (X.Flwor { clauses = List.map cclause_view rest; return = treturn })
  in
  (* Slots of [vars] bound in [cenv] (innermost binding per name),
     deduplicated ascending. *)
  let bound_slots cenv vars =
    let slots =
      Optimize.Vars.fold
        (fun v acc ->
          match List.assoc_opt v cenv.slots with
          | Some s -> s :: acc
          | None -> acc)
        vars []
    in
    Array.of_list (List.sort_uniq compare slots)
  in
  let gather_of_vars cenv fv = bound_slots cenv fv in
  let gather_slots cenv exprs =
    gather_of_vars cenv
      (List.fold_left
         (fun s e -> Optimize.Vars.union s (Optimize.free_vars e))
         Optimize.Vars.empty exprs)
  in
  (* Load one selected row's gathered columns into the scratch row. *)
  let gather gslots (scratch : rt) (b : Batch.columns) idx =
    for t = 0 to Array.length gslots - 1 do
      let s = Array.unsafe_get gslots t in
      scratch.(s) <- b.Batch.cols.(s).(idx)
    done
  in
  let rec build cenv stage_base i clauses :
      (string * (cctx -> csink -> csink)) list * cenv =
    match clauses with
    | [] -> ([], cenv)
    | clause :: rest ->
      let live = live_after rest in
      let labeled_mk, cenv', base' =
        match clause with
        | C_plain (X.For { var; source }) ->
          let gslots = gather_slots cenv [ source ] in
          let csrc = compile_expr_c cenv source in
          let copy = bound_slots cenv live in
          let copy_n = Array.length copy in
          let cenv', slot = bind_slot cenv var in
          let label = "for $" ^ var in
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - copy_n) in
            let scratch = cctx.cscratch in
            let out = cctx.calloc () in
            let out_cols = Array.map (Batch.column out) copy in
            let var_col = Batch.column out slot in
            let emit () =
              if out.Batch.n > 0 then begin
                note_batch out.Batch.n;
                Telemetry.add Telemetry.c_col_pruned_columns
                  (pruned * out.Batch.n);
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  let in_cols =
                    Array.map (fun s -> b.Batch.cols.(s)) copy
                  in
                  for k = 0 to b.Batch.n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    match csrc scratch with
                    | [] -> ()
                    | items ->
                      let nitems = List.length items in
                      Budget.steps nitems;
                      count nitems;
                      List.iter
                        (fun item ->
                          let j = out.Batch.n in
                          for t = 0 to copy_n - 1 do
                            out_cols.(t).(j) <- in_cols.(t).(idx)
                          done;
                          var_col.(j) <- [ item ];
                          out.Batch.sel.(j) <- j;
                          out.Batch.n <- j + 1;
                          if out.Batch.n = cctx.ccap then emit ())
                        items
                  done);
              cflush = (fun () -> emit (); down.cflush ());
            }
          in
          ((label, mk), cenv', stage_base)
        | C_plain (X.Let { var; value }) ->
          let gslots = gather_slots cenv [ value ] in
          let cval = compile_expr_c cenv value in
          let cenv', slot = bind_slot cenv var in
          let label = "let $" ^ var in
          let mk cctx down =
            let count = ccounter cctx label in
            let scratch = cctx.cscratch in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  (* in place: write the new column into the incoming
                     batch at the selected indices *)
                  let col = Batch.column b slot in
                  for k = 0 to b.Batch.n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    col.(idx) <- cval scratch
                  done;
                  count b.Batch.n;
                  if b.Batch.n > 0 then down.cpush b);
              cflush = (fun () -> down.cflush ());
            }
          in
          ((label, mk), cenv', stage_base)
        | C_plain (X.Where cond) ->
          let gslots = gather_slots cenv [ cond ] in
          let ccond = compile_cond cenv cond in
          let label = Printf.sprintf "where@%d" i in
          let mk cctx down =
            let count = ccounter cctx label in
            let scratch = cctx.cscratch in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  let n = b.Batch.n in
                  let j = ref 0 in
                  for k = 0 to n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    if ccond scratch then begin
                      b.Batch.sel.(!j) <- idx;
                      incr j
                    end
                  done;
                  b.Batch.n <- !j;
                  Telemetry.add Telemetry.c_batch_filtered (n - !j);
                  count !j;
                  if b.Batch.n > 0 then down.cpush b);
              cflush = (fun () -> down.cflush ());
            }
          in
          ((label, mk), cenv, stage_base)
        | C_plain (X.Order_by specs) ->
          let gslots =
            gather_slots cenv (List.map (fun (s : X.order_spec) -> s.X.key) specs)
          in
          let ckeys =
            List.map
              (fun (s : X.order_spec) ->
                (compile_expr_c cenv s.X.key, s.X.descending, s.X.empty))
              specs
          in
          let retain = bound_slots cenv live in
          let retain_n = Array.length retain in
          let label = Printf.sprintf "order-by@%d" i in
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - retain_n) in
            let scratch = cctx.cscratch in
            let acc = ref [] in
            let out = cctx.calloc () in
            let out_cols = Array.map (Batch.column out) retain in
            let emit () =
              if out.Batch.n > 0 then begin
                note_batch out.Batch.n;
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  Telemetry.add Telemetry.c_col_pruned_columns
                    (pruned * b.Batch.n);
                  let in_cols =
                    Array.map (fun s -> b.Batch.cols.(s)) retain
                  in
                  for k = 0 to b.Batch.n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    let keys =
                      List.map
                        (fun (ck, _, _) -> Item.atomize (ck scratch))
                        ckeys
                    in
                    (* retained past this cpush: copy the live column
                       cells out of the batch *)
                    let saved = Array.map (fun c -> c.(idx)) in_cols in
                    acc := (keys, saved) :: !acc
                  done);
              cflush =
                (fun () ->
                  let keyed = List.rev !acc in
                  acc := [];
                  let sorted =
                    List.stable_sort
                      (fun (ka, _) (kb, _) -> compare_order_keys ckeys ka kb)
                      keyed
                  in
                  count (List.length sorted);
                  List.iter
                    (fun (_, saved) ->
                      let j = out.Batch.n in
                      for t = 0 to retain_n - 1 do
                        out_cols.(t).(j) <- saved.(t)
                      done;
                      out.Batch.sel.(j) <- j;
                      out.Batch.n <- j + 1;
                      if out.Batch.n = cctx.ccap then emit ())
                    sorted;
                  emit ();
                  down.cflush ());
            }
          in
          ((label, mk), cenv, cenv)
        | C_plain (X.Group { grouped; partition; keys }) ->
          (* materializing group: the partition column is built as the
             concatenation of each group's grouped cells *)
          let grouped_slot = lookup_slot cenv grouped in
          let gslots = gather_slots cenv (List.map fst keys) in
          let ckeys = List.map (fun (k, _) -> compile_expr_c cenv k) keys in
          (* BEA scoping: only the stage-base (pre-segment) bindings
             survive the group *)
          let entry_env = { cenv with slots = stage_base.slots } in
          let entry_copy = bound_slots entry_env live in
          let entry_n = Array.length entry_copy in
          let cenv_post, key_slots =
            List.fold_left
              (fun (ce, acc) (_, var) ->
                let ce', slot = bind_slot ce var in
                (ce', slot :: acc))
              (entry_env, []) keys
          in
          let key_slots = List.rev key_slots in
          let cenv_post, partition_slot = bind_slot cenv_post partition in
          let label = "group by -> $" ^ partition in
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - entry_n) in
            let scratch = cctx.cscratch in
            let table = Hashtbl.create 16 in
            let order = ref [] in
            let keybuf = Buffer.create 64 in
            let out = cctx.calloc () in
            let out_entry = Array.map (Batch.column out) entry_copy in
            let out_keys = List.map (Batch.column out) key_slots in
            let part_col = Batch.column out partition_slot in
            let emit () =
              if out.Batch.n > 0 then begin
                note_batch out.Batch.n;
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  let grouped_col = b.Batch.cols.(grouped_slot) in
                  let in_entry =
                    Array.map (fun s -> b.Batch.cols.(s)) entry_copy
                  in
                  for k = 0 to b.Batch.n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    let key_values = List.map (fun ck -> ck scratch) ckeys in
                    let key_string =
                      Group_key.composite_into keybuf key_values
                    in
                    match Hashtbl.find_opt table key_string with
                    | Some (acc, _, _) -> acc := grouped_col.(idx) :: !acc
                    | None ->
                      let saved = Array.map (fun c -> c.(idx)) in_entry in
                      Hashtbl.add table key_string
                        (ref [ grouped_col.(idx) ], key_values, saved);
                      order := key_string :: !order
                  done);
              cflush =
                (fun () ->
                  let groups = List.rev !order in
                  count (List.length groups);
                  Telemetry.add Telemetry.c_col_pruned_columns
                    (pruned * List.length groups);
                  List.iter
                    (fun key_string ->
                      let acc, key_values, saved =
                        Hashtbl.find table key_string
                      in
                      let j = out.Batch.n in
                      for t = 0 to entry_n - 1 do
                        out_entry.(t).(j) <- saved.(t)
                      done;
                      List.iter2 (fun c v -> c.(j) <- v) out_keys key_values;
                      part_col.(j) <- List.concat (List.rev !acc);
                      out.Batch.sel.(j) <- j;
                      out.Batch.n <- j + 1;
                      if out.Batch.n = cctx.ccap then emit ())
                    groups;
                  emit ();
                  down.cflush ());
            }
          in
          ((label, mk), cenv_post, cenv_post)
        | C_kernel { ck_grouped; ck_partition; ck_keys; ck_specs; ck_orig = _ }
          ->
          (* kernel group: the partition is never materialized — one
             aggregation-kernel state per (group, spec), updated in a
             tight loop per batch, finished into output columns at
             flush *)
          let grouped_slot = lookup_slot cenv ck_grouped in
          let gslots = gather_slots cenv (List.map fst ck_keys) in
          let ckeys =
            List.map (fun (k, _) -> compile_expr_c cenv k) ck_keys
          in
          let entry_env = { cenv with slots = stage_base.slots } in
          let entry_copy = bound_slots entry_env live in
          let entry_n = Array.length entry_copy in
          let cenv_post, key_slots =
            List.fold_left
              (fun (ce, acc) (_, var) ->
                let ce', slot = bind_slot ce var in
                (ce', slot :: acc))
              (entry_env, []) ck_keys
          in
          let key_slots = List.rev key_slots in
          let cenv_post, spec_slots =
            List.fold_left
              (fun (ce, acc) (s : Optimize.kernel_spec) ->
                let ce', slot = bind_slot ce s.Optimize.k_var in
                (ce', slot :: acc))
              (cenv_post, []) ck_specs
          in
          let spec_slots = Array.of_list (List.rev spec_slots) in
          let spec_info =
            Array.of_list
              (List.map
                 (fun (s : Optimize.kernel_spec) ->
                   ( s.Optimize.k_kind,
                     Option.map compile_step_matcher s.Optimize.k_step ))
                 ck_specs)
          in
          let nspecs = Array.length spec_info in
          let label = "group by -> $" ^ ck_partition in
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - entry_n) in
            let scratch = cctx.cscratch in
            let table = Hashtbl.create 16 in
            let order = ref [] in
            let keybuf = Buffer.create 64 in
            let out = cctx.calloc () in
            let out_entry = Array.map (Batch.column out) entry_copy in
            let out_keys = List.map (Batch.column out) key_slots in
            let out_specs = Array.map (Batch.column out) spec_slots in
            let emit () =
              if out.Batch.n > 0 then begin
                note_batch out.Batch.n;
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  Telemetry.with_span "xqeval.columnar.kernel" @@ fun () ->
                  Telemetry.add Telemetry.c_col_kernel_updates
                    (nspecs * b.Batch.n);
                  let grouped_col = b.Batch.cols.(grouped_slot) in
                  let in_entry =
                    Array.map (fun s -> b.Batch.cols.(s)) entry_copy
                  in
                  for k = 0 to b.Batch.n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    let key_values = List.map (fun ck -> ck scratch) ckeys in
                    let key_string =
                      Group_key.composite_into keybuf key_values
                    in
                    let states =
                      match Hashtbl.find_opt table key_string with
                      | Some (states, _, _) -> states
                      | None ->
                        let states =
                          Array.map
                            (fun (kind, _) -> Kernels.create kind)
                            spec_info
                        in
                        let saved =
                          Array.map (fun c -> c.(idx)) in_entry
                        in
                        Hashtbl.add table key_string
                          (states, key_values, saved);
                        order := key_string :: !order;
                        states
                    in
                    let slice = grouped_col.(idx) in
                    for t = 0 to nspecs - 1 do
                      let input =
                        match snd spec_info.(t) with
                        | None -> slice
                        | Some matches ->
                          List.concat_map (children_matching matches) slice
                      in
                      Kernels.update states.(t) input
                    done
                  done);
              cflush =
                (fun () ->
                  Telemetry.with_span "xqeval.columnar.kernel" @@ fun () ->
                  let groups = List.rev !order in
                  count (List.length groups);
                  Telemetry.add Telemetry.c_col_pruned_columns
                    (pruned * List.length groups);
                  List.iter
                    (fun key_string ->
                      let states, key_values, saved =
                        Hashtbl.find table key_string
                      in
                      let j = out.Batch.n in
                      for t = 0 to entry_n - 1 do
                        out_entry.(t).(j) <- saved.(t)
                      done;
                      List.iter2 (fun c v -> c.(j) <- v) out_keys key_values;
                      for t = 0 to nspecs - 1 do
                        out_specs.(t).(j) <- Kernels.finish states.(t)
                      done;
                      out.Batch.sel.(j) <- j;
                      out.Batch.n <- j + 1;
                      if out.Batch.n = cctx.ccap then emit ())
                    groups;
                  emit ();
                  down.cflush ());
            }
          in
          ((label, mk), cenv_post, cenv_post)
        | C_plain (X.Hash_join { var; source; build_key; probe_key; value_cmp })
          ->
          (* gather set: [build_key]'s free vars minus the join
             variable — the variable resolves to the fresh slot (bound
             below), never to a same-named outer column, which may be
             pruned at this point *)
          let gslots =
            gather_of_vars cenv
              (Optimize.Vars.union
                 (Optimize.free_vars source)
                 (Optimize.Vars.union
                    (Optimize.free_vars probe_key)
                    (Optimize.Vars.remove var (Optimize.free_vars build_key))))
          in
          let csrc = compile_expr_c cenv source in
          let cprobe = compile_expr_c cenv probe_key in
          let copy = bound_slots cenv live in
          let copy_n = Array.length copy in
          let cenv2, var_slot = bind_slot cenv var in
          let cbuild = compile_expr_c cenv2 build_key in
          let cacheable =
            Optimize.Vars.is_empty (Optimize.free_vars source)
            && Optimize.Vars.subset
                 (Optimize.free_vars build_key)
                 (Optimize.Vars.singleton var)
          in
          let label = "hash-join $" ^ var in
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - copy_n) in
            let scratch = cctx.cscratch in
            let table = ref None in
            let out = cctx.calloc () in
            let out_cols = Array.map (Batch.column out) copy in
            let var_col = Batch.column out var_slot in
            let emit () =
              if out.Batch.n > 0 then begin
                note_batch out.Batch.n;
                Telemetry.add Telemetry.c_col_pruned_columns
                  (pruned * out.Batch.n);
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  if b.Batch.n > 0 then begin
                    let in_cols =
                      Array.map (fun s -> b.Batch.cols.(s)) copy
                    in
                    let t =
                      match !table with
                      | Some t -> t
                      | None ->
                        (* [source]/[build_key] only read outer slots,
                           identical in every row: load from the first
                           selected row *)
                        gather gslots scratch b b.Batch.sel.(0);
                        let src = csrc scratch in
                        let build () =
                          Join_table.build src
                            ~key_of:(fun item ->
                              scratch.(var_slot) <- [ item ];
                              cbuild scratch)
                            ~value_cmp
                        in
                        let t =
                          if not cacheable then build ()
                          else
                            match jt_find src build_key value_cmp with
                            | Some t ->
                              Budget.tick_items
                                (Array.length t.Join_table.items);
                              Telemetry.incr Telemetry.c_hash_join_reused;
                              t
                            | None ->
                              let t = build () in
                              jt_store src build_key value_cmp t;
                              t
                        in
                        table := Some t;
                        t
                    in
                    Join_table.probe_batch t ~value_cmp ~rows:b.Batch.n
                      ~atoms_of:(fun k ->
                        let idx = b.Batch.sel.(k) in
                        gather gslots scratch b idx;
                        Item.atomize (cprobe scratch))
                      ~emit:(fun k m ->
                        Budget.step ();
                        count 1;
                        let idx = b.Batch.sel.(k) in
                        let j = out.Batch.n in
                        for c = 0 to copy_n - 1 do
                          out_cols.(c).(j) <- in_cols.(c).(idx)
                        done;
                        var_col.(j) <- [ t.Join_table.items.(m) ];
                        out.Batch.sel.(j) <- j;
                        out.Batch.n <- j + 1;
                        if out.Batch.n = cctx.ccap then emit ())
                  end);
              cflush = (fun () -> emit (); down.cflush ());
            }
          in
          ((label, mk), cenv2, cenv2)
      in
      let mks, cenv_out = build cenv' base' (i + 1) rest in
      (labeled_mk :: mks, cenv_out)
  in
  let mks, cenv_ret = build cenv cenv 0 tclauses in
  let ret_gslots = gather_slots cenv_ret [ treturn ] in
  let cret = ret cenv_ret treturn in
  let entry_copy = bound_slots cenv (live_after tclauses) in
  let xclauses = List.map cclause_view tclauses in
  let next_ref = cenv.next in
  fun rt acc ->
    (* clause failpoints fire once per clause per invocation, like the
       interpreter's eager pipeline fold *)
    List.iter
      (fun clause ->
        Failpoint.hit "xqeval.clause";
        match clause with
        | X.Hash_join _ -> Failpoint.hit "xqeval.hashjoin"
        | _ -> ())
      xclauses;
    let cap = Batch.size () in
    let nslots = max 1 !next_ref in
    let pool = cbatch_pool_for cap in
    let acquired = ref [] in
    let calloc () =
      let b =
        match !pool with
        | b :: rest ->
          pool := rest;
          Batch.ensure_columns b ~slots:nslots ~cap;
          b
        | [] -> Batch.make_columns ~slots:nslots ~cap
      in
      acquired := b :: !acquired;
      b
    in
    let scratch = Array.make nslots [] in
    let cctx =
      { ccap = cap; calloc; cinstr = Telemetry.enabled ();
        cnslots = nslots; cscratch = scratch }
    in
    (* counters register in pipeline order (the chain below is built
       downstream-first) *)
    if cctx.cinstr then
      List.iter
        (fun (label, _) -> ignore (Telemetry.clause_counter label))
        mks;
    let sink =
      { cpush =
          (fun b ->
            Budget.steps b.Batch.n;
            for k = 0 to b.Batch.n - 1 do
              let idx = b.Batch.sel.(k) in
              gather ret_gslots scratch b idx;
              cret scratch acc
            done);
        cflush = (fun () -> ());
      }
    in
    let chain =
      List.fold_left (fun down (_, mk) -> mk cctx down) sink (List.rev mks)
    in
    let feed = calloc () in
    Array.iter
      (fun s -> (Batch.column feed s).(0) <- rt.(s))
      entry_copy;
    feed.Batch.sel.(0) <- 0;
    feed.Batch.n <- 1;
    note_batch 1;
    chain.cpush feed;
    chain.cflush ();
    cbatch_release pool !acquired

(* The fused section-4 encoder (see [Optimize.fuse_text]): a row tree
   of sequences, conditionals and FLWORs over [Text_row.row_fn] calls,
   lowered to appends into one buffer.  Cells are escaped straight
   from the column values, so no RECORD, cell string or atomized list
   is built per row. *)
and compile_text_rows cenv (e : X.expr) : rt -> Buffer.t -> unit =
  match e with
  | X.Call (f, cells) when f = Text_row.row_fn ->
    let cells =
      Array.of_list
        (List.mapi
           (fun i c -> (Text_row.separator i, compile_text_cell cenv c))
           cells)
    in
    fun rt buf ->
      Array.iter
        (fun (sep, cell) ->
          Buffer.add_string buf sep;
          cell rt buf)
        cells
  | X.Seq es ->
    let parts = List.map (compile_text_rows cenv) es in
    fun rt buf -> List.iter (fun p -> p rt buf) parts
  | X.If (c, t, e) ->
    let cc = compile_cond cenv c in
    let ct = compile_text_rows cenv t and ce = compile_text_rows cenv e in
    fun rt buf -> if cc rt then ct rt buf else ce rt buf
  | X.Flwor f -> col_pipeline cenv f compile_text_rows
  | _ -> cfail "not a fused text row tree"

and compile_text_cell cenv (cell : X.expr) : rt -> Buffer.t -> unit =
  let content parts =
    match List.map (compile_expr_c cenv) parts with
    | [ p ] -> fun rt buf -> Text_row.add_escaped_content buf (p rt)
    | ps ->
      fun rt buf ->
        Text_row.add_escaped_content buf (List.concat_map (fun p -> p rt) ps)
  in
  (* [fn:data($v/C)], the translator's column read: the matching
     children's string values, escaped and space-joined straight into
     the buffer; whether any matched.  A NULL guard over the same read
     thus walks the row once. *)
  let column_read base name =
    let cbase = compile_expr_c cenv base in
    let matches = compile_step_matcher name in
    fun rt buf ->
      let found = ref false in
      List.iter
        (function
          | Item.Atomic _ -> dfail "path step applied to an atomic value"
          | Item.Node (Node.Text _) -> ()
          | Item.Node (Node.Element e) ->
            List.iter
              (function
                | Node.Element c when matches c.Node.name ->
                  if !found then Buffer.add_char buf ' ';
                  found := true;
                  Text_row.escape_into buf (Node.string_value (Node.Element c))
                | Node.Element _ | Node.Text _ -> ())
              e.Node.children)
        (cbase rt);
      !found
  in
  match cell with
  | X.Call (f, [ X.Call ("fn:data", [ X.Path (base, [ { X.name; predicates = [] } ]) ]) ])
    when f = Text_row.cell_fn ->
    let read = column_read base name in
    fun rt buf -> ignore (read rt buf)
  | X.If
      ( X.Call ("fn:empty", [ (X.Path (base, [ { X.name; predicates = [] } ]) as p) ]),
        X.Seq [],
        X.Call (f, [ X.Call ("fn:data", [ p' ]) ]) )
    when f = Text_row.cell_fn && p = p' ->
    let read = column_read base name in
    fun rt buf ->
      if not (read rt buf) then Buffer.add_string buf Text_row.null_marker
  | X.Call (f, parts) when f = Text_row.cell_fn -> content parts
  | X.If (g, X.Seq [], X.Call (f, parts)) when f = Text_row.cell_fn ->
    let cg = compile_cond cenv g and cc = content parts in
    fun rt buf ->
      if cg rt then Buffer.add_string buf Text_row.null_marker else cc rt buf
  | _ ->
    let c = compile_expr_c cenv cell in
    fun rt buf -> Text_row.add_cell buf (c rt)

(* ------------------------------------------------------------------ *)

type compiled = {
  code : comp;
  size : int;
  externals : (string * int) list;  (* runtime bindings -> slots *)
}

let no_resolve _ = None

let compile_expr ?(optimize = true) ?(scan_cache = true) ?(resolve = no_resolve)
    ?(vars = []) (e : X.expr) =
  (* scoping is checked on the un-optimized AST: pushdown deliberately
     leaves hazardous predicates in place, and the error should point
     at what the caller wrote *)
  (let bound =
     List.fold_left
       (fun s v -> Optimize.Vars.add v s)
       Optimize.Vars.empty vars
   in
   match Optimize.scoping_hazard ~bound e with
   | Some v -> cfail "where clause references $%s before it is bound" v
   | None -> ());
  let e =
    if optimize then
      fst (Optimize.expr ~share_scans:scan_cache e)
    else e
  in
  let cenv = { slots = []; next = ref 0; resolve } in
  let cenv, externals =
    List.fold_left
      (fun (ce, acc) v ->
        let ce', slot = bind_slot ce v in
        (ce', (v, slot) :: acc))
      (cenv, []) vars
  in
  let code = compile_expr_c cenv e in
  { code; size = !(cenv.next); externals = List.rev externals }

(* [vectorize] and [columnar] are accepted and ignored (see compile.mli). *)
let compile ?optimize ?scan_cache ?vectorize:_ ?columnar:_ ?resolve ?vars
    (q : X.query) =
  compile_expr ?optimize ?scan_cache ?resolve ?vars q.X.body

let run ?(bindings = []) t =
  let rt = Array.make (max t.size 1) [] in
  List.iter
    (fun (name, slot) ->
      match List.assoc_opt name bindings with
      | Some seq -> rt.(slot) <- seq
      | None -> dfail "external variable $%s is not bound" name)
    t.externals;
  t.code rt
