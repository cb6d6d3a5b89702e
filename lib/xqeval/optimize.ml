(* Logical optimizer over the XQuery AST, run before evaluation or
   compilation.  Three rewrites, all scoped to FLWOR blocks:

   1. Predicate pushdown: conjunctive [where] clauses are split into
      their conjuncts and each conjunct is hoisted to the earliest
      clause position at which all of its free variables are bound.
      [group] clauses are barriers (filtering before grouping changes
      the groups); [order by] is not (filtering commutes with a stable
      sort).

   2. Hash equi-join recognition: a [for $b in SRC] whose source does
      not depend on earlier same-FLWOR bindings, followed by a
      [where P eq/= B] where one side depends exactly on [$b] and the
      other only on earlier bindings, becomes a [Hash_join] physical
      operator.  The build side hashes SRC once by [Atomic.hash_key];
      each incoming tuple probes instead of rescanning, turning the
      O(n*m) nested loop into O(n+m).

   3. A scoping check ([scoping_hazard]) used by both evaluators to
      reject [where] clauses that reference a variable bound only by a
      later clause of the same FLWOR — the naive clause fold would
      otherwise silently filter everything out.

   The pass is purely structural: it never evaluates expressions, so it
   is safe to run on queries with unresolved external functions. *)

module X = Aqua_xquery.Ast
module Atomic = Aqua_xml.Atomic
module Node = Aqua_xml.Node
module Vars = Set.Make (String)

type text_encoder = Fused | General of string

type report = {
  pushed_predicates : int;  (** conjuncts moved earlier in a pipeline *)
  hash_joins : int;         (** [For]+[Where] pairs fused into [Hash_join] *)
  shared_scans : int;       (** repeated scans hoisted into a shared [let] *)
  encode : text_encoder option;  (** [None]: not a text-transport wrapper *)
  notes : string list;      (** human-readable one-liners, newest first *)
}

let empty_report =
  { pushed_predicates = 0; hash_joins = 0; shared_scans = 0; encode = None;
    notes = [] }

let encode_label = function
  | Fused -> "fused"
  | General why -> Printf.sprintf "general (%s)" why

type acc = {
  mutable pushed : int;
  mutable joins : int;
  mutable shared : int;
  mutable notes : string list;
}

(* ------------------------------------------------------------------ *)
(* Precise free variables                                             *)

(* [ast.ml]'s [free_vars] is deliberately conservative (it includes
   bound variables); the optimizer needs the real thing, including the
   context item "." treated as a variable and the scoping quirk of the
   BEA group clause (pre-group bindings do not survive grouping). *)

let rec fv bound acc (e : X.expr) : Vars.t =
  match e with
  | X.Literal _ | X.Text _ -> acc
  | X.Var v -> if Vars.mem v bound then acc else Vars.add v acc
  | X.Context_item -> if Vars.mem "." bound then acc else Vars.add "." acc
  | X.Seq es -> List.fold_left (fv bound) acc es
  | X.Flwor f -> fv_flwor bound acc f
  | X.Path (base, steps) ->
    let acc = fv bound acc base in
    let bound_dot = Vars.add "." bound in
    List.fold_left
      (fun acc (s : X.step) -> List.fold_left (fv bound_dot) acc s.predicates)
      acc steps
  | X.Call (_, args) -> List.fold_left (fv bound) acc args
  | X.Elem { content; _ } -> List.fold_left (fv bound) acc content
  | X.If (c, t, e) -> fv bound (fv bound (fv bound acc c) t) e
  | X.Binop (_, a, b) -> fv bound (fv bound acc a) b
  | X.Neg e -> fv bound acc e
  | X.Quantified { bindings; satisfies; _ } ->
    let bound, acc =
      List.fold_left
        (fun (bound, acc) (v, src) -> (Vars.add v bound, fv bound acc src))
        (bound, acc) bindings
    in
    fv bound acc satisfies
  | X.Filter (base, pred) ->
    fv (Vars.add "." bound) (fv bound acc base) pred

and fv_flwor bound acc (f : X.flwor) : Vars.t =
  let entry_bound = bound in
  let bound, acc =
    List.fold_left
      (fun (bound, acc) clause ->
        match clause with
        | X.For { var; source } -> (Vars.add var bound, fv bound acc source)
        | X.Let { var; value } -> (Vars.add var bound, fv bound acc value)
        | X.Where cond -> (bound, fv bound acc cond)
        | X.Group { grouped; partition; keys } ->
          (* the clause *reads* the grouped variable (its values feed
             the partition) — counting that use is what lets the
             required-columns analysis keep the grouped column alive
             up to the barrier *)
          let acc =
            if Vars.mem grouped bound then acc else Vars.add grouped acc
          in
          let acc =
            List.fold_left (fun acc (k, _) -> fv bound acc k) acc keys
          in
          (* after grouping only the FLWOR's entry environment plus the
             key variables and the partition remain bound *)
          let bound' =
            List.fold_left
              (fun b (_, kv) -> Vars.add kv b)
              (Vars.add partition entry_bound)
              keys
          in
          (bound', acc)
        | X.Order_by specs ->
          (bound, List.fold_left (fun acc s -> fv bound acc s.X.key) acc specs)
        | X.Hash_join { var; source; build_key; probe_key; _ } ->
          let acc = fv bound acc source in
          let acc = fv bound acc probe_key in
          let acc = fv (Vars.add var bound) acc build_key in
          (Vars.add var bound, acc))
      (bound, acc) f.clauses
  in
  fv bound acc f.return

let free_vars e = fv Vars.empty Vars.empty e

(* ------------------------------------------------------------------ *)
(* Aggregation-kernel recognition (columnar GROUP BY)                 *)

(* The columnar engine can fold the translator's aggregate shapes
   incrementally per grouped tuple (see Kernels) instead of
   materializing the whole partition sequence per group.  A partition
   use is kernelizable when it is exactly one of the shapes the
   generator emits:

     fn:count($p)            fn:count($p/COL)
     fn:sum($p/COL)          if (fn:empty($p/COL)) then () else fn:sum($p/COL)
     fn:avg / fn:min / fn:max ($p/COL)
     fn:empty($p) / fn:exists($p)   (and the /COL variants)

   [group_kernels] rewrites every such use in the post-group remainder
   into a read of a synthetic '#agg:' variable and returns the kernel
   inventory; any other use of the partition (or a rebinding of its
   name) bails the whole group back to the materializing path, so the
   rewrite is all-or-nothing and the oracle semantics are preserved
   exactly. *)

type kernel_spec = {
  k_kind : Kernels.kind;
  k_step : string option;
      (** [None] = the whole partition; [Some name] = the child-step
          column [$p/name] *)
  k_var : string;  (** the synthetic variable the rewrite binds *)
}

let spec_label s =
  match s.k_step with
  | None -> Kernels.name s.k_kind
  | Some col -> Printf.sprintf "%s(%s)" (Kernels.name s.k_kind) col

exception Not_kernelizable

let group_kernels ~partition (clauses : X.clause list) (return_ : X.expr) :
    (kernel_spec list * X.clause list * X.expr) option =
  let specs = ref [] in
  let nspecs = ref 0 in
  let spec kind step =
    match
      List.find_opt (fun s -> s.k_kind = kind && s.k_step = step) !specs
    with
    | Some s -> s.k_var
    | None ->
      let v = Printf.sprintf "#agg:%s:%d" partition !nspecs in
      incr nspecs;
      specs := { k_kind = kind; k_step = step; k_var = v } :: !specs;
      v
  in
  let kind_of = function
    | "fn:count" -> Some Kernels.K_count
    | "fn:sum" -> Some Kernels.K_sum
    | "fn:avg" -> Some Kernels.K_avg
    | "fn:min" -> Some Kernels.K_min
    | "fn:max" -> Some Kernels.K_max
    | "fn:empty" -> Some Kernels.K_empty
    | "fn:exists" -> Some Kernels.K_exists
    | _ -> None
  in
  (* a kernelizable column read: the partition itself or one
     unpredicated child step over it *)
  let column = function
    | X.Var v when v = partition -> Some None
    | X.Path (X.Var v, [ { X.name; predicates = [] } ]) when v = partition ->
      Some (Some name)
    | _ -> None
  in
  let rebind v = if v = partition then raise Not_kernelizable in
  let rec rw (e : X.expr) : X.expr =
    match e with
    (* the translator's SQL NULL shape for SUM, fused into one kernel:
       SUM over the empty set is NULL, not 0 *)
    | X.If (X.Call ("fn:empty", [ g ]), X.Seq [], X.Call ("fn:sum", [ s ]))
      when g = s && column g <> None ->
      X.Var (spec Kernels.K_sum_null (Option.get (column g)))
    | X.Call (name, [ arg ]) when kind_of name <> None && column arg <> None ->
      X.Var (spec (Option.get (kind_of name)) (Option.get (column arg)))
    | X.Var v when v = partition -> raise Not_kernelizable
    | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> e
    | X.Seq es -> X.Seq (List.map rw es)
    | X.Flwor f ->
      X.Flwor { clauses = List.map rw_clause f.clauses; return = rw f.return }
    | X.Path (base, steps) ->
      X.Path
        ( rw base,
          List.map
            (fun (s : X.step) ->
              { s with X.predicates = List.map rw s.predicates })
            steps )
    | X.Call (name, args) -> X.Call (name, List.map rw args)
    | X.Elem { name; content } -> X.Elem { name; content = List.map rw content }
    | X.If (c, t, e) -> X.If (rw c, rw t, rw e)
    | X.Binop (op, a, b) -> X.Binop (op, rw a, rw b)
    | X.Neg e -> X.Neg (rw e)
    | X.Quantified { every; bindings; satisfies } ->
      List.iter (fun (v, _) -> rebind v) bindings;
      X.Quantified
        {
          every;
          bindings = List.map (fun (v, e) -> (v, rw e)) bindings;
          satisfies = rw satisfies;
        }
    | X.Filter (base, pred) -> X.Filter (rw base, rw pred)
  and rw_clause = function
    | X.For { var; source } ->
      rebind var;
      X.For { var; source = rw source }
    | X.Let { var; value } ->
      rebind var;
      X.Let { var; value = rw value }
    | X.Where cond -> X.Where (rw cond)
    | X.Group { grouped; partition = p2; keys } ->
      (* a nested group collecting or rebinding our partition is a
         non-kernel use *)
      rebind grouped;
      rebind p2;
      List.iter (fun (_, kv) -> rebind kv) keys;
      X.Group { grouped; partition = p2; keys = List.map (fun (k, v) -> (rw k, v)) keys }
    | X.Order_by specs ->
      X.Order_by
        (List.map (fun (s : X.order_spec) -> { s with X.key = rw s.X.key }) specs)
    | X.Hash_join { var; source; build_key; probe_key; value_cmp } ->
      rebind var;
      X.Hash_join
        {
          var;
          source = rw source;
          build_key = rw build_key;
          probe_key = rw probe_key;
          value_cmp;
        }
  in
  match (List.map rw_clause clauses, rw return_) with
  | clauses', return' -> Some (List.rev !specs, clauses', return')
  | exception Not_kernelizable -> None

(* ------------------------------------------------------------------ *)
(* Per-clause binding bookkeeping                                     *)

(* Variables a clause binds for the clauses after it. *)
let clause_binds = function
  | X.For { var; _ } | X.Let { var; _ } | X.Hash_join { var; _ } -> [ var ]
  | X.Where _ | X.Order_by _ -> []
  | X.Group { partition; keys; _ } ->
    partition :: List.map snd keys

let is_barrier = function X.Group _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Predicate pushdown                                                 *)

let rec split_conjuncts e =
  match e with
  | X.Binop (X.B_and, a, b) -> split_conjuncts a @ split_conjuncts b
  | _ -> [ e ]

(* Rebuild a clause list with every [where] conjunct placed directly
   after the latest of: the last clause (at or before its original
   position) binding one of its free variables, and the last barrier
   before its original position.  Conjuncts that reference a variable
   bound only *later* in the same FLWOR stay put — the scoping check
   turns those into a clear error at evaluation time. *)
let push_predicates acc clauses =
  let arr = Array.of_list clauses in
  let n = Array.length arr in
  (* buckets.(j) = wheres to emit right after clause j-1 (j=0: first) *)
  let buckets = Array.make (n + 1) [] in
  Array.iteri
    (fun i clause ->
      match clause with
      | X.Where cond ->
        List.iter
          (fun conjunct ->
            let fvs = fv Vars.empty Vars.empty conjunct in
            let later =
              (* vars first bound after position i *)
              let rec collect j s =
                if j >= n then s
                else
                  collect (j + 1)
                    (List.fold_left
                       (fun s v -> Vars.add v s)
                       s
                       (clause_binds arr.(j)))
              in
              collect (i + 1) Vars.empty
            in
            let target = ref 0 in
            let hazard = ref false in
            for j = 0 to i - 1 do
              if is_barrier arr.(j) then target := max !target (j + 1);
              List.iter
                (fun v -> if Vars.mem v fvs then target := max !target (j + 1))
                (clause_binds arr.(j))
            done;
            (* a free var not bound by any clause up to i but bound by a
               later clause: leave the conjunct in place *)
            Vars.iter
              (fun v ->
                let bound_before =
                  let rec any j =
                    j < i
                    && (List.mem v (clause_binds arr.(j)) || any (j + 1))
                  in
                  any 0
                in
                if (not bound_before) && Vars.mem v later then hazard := true)
              fvs;
            let place = if !hazard then i else !target in
            if place < i then acc.pushed <- acc.pushed + 1;
            buckets.(place) <- X.Where conjunct :: buckets.(place))
          (split_conjuncts cond)
      | _ -> ())
    arr;
  let out = ref [] in
  for j = n downto 0 do
    (* non-where clause at position j (none for j = n) *)
    (match if j < n then Some arr.(j) else None with
    | Some (X.Where _) | None -> ()
    | Some c -> out := c :: !out);
    (* buckets hold wheres in reverse insertion order; rev_append
       restores original relative order *)
    out := List.rev_append buckets.(j) !out
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Hash equi-join recognition                                         *)

(* Pipeline-relative free variables: the subset of [e]'s free vars that
   are bound by this FLWOR's earlier clauses (given in [pipeline]). *)
let pipeline_fv pipeline e = Vars.inter (free_vars e) pipeline

let recognize_joins acc clauses =
  let rec scan bound_before = function
    | [] -> []
    | (X.For { var; source } as forc) :: rest
      when Vars.is_empty (pipeline_fv bound_before source)
           && not (Vars.is_empty bound_before) -> (
      (* look through the run of consecutive wheres following the for *)
      let rec find_eq seen = function
        | X.Where (X.Binop (((X.B_general X.Eq | X.B_value X.Eq) as op), l, r))
          :: tail -> (
          let value_cmp = match op with X.B_value _ -> true | _ -> false in
          let lfv = pipeline_fv (Vars.add var bound_before) l in
          let rfv = pipeline_fv (Vars.add var bound_before) r in
          let solo s = Vars.equal s (Vars.singleton var) in
          let probe_ok s =
            (not (Vars.mem var s)) && not (Vars.is_empty s)
          in
          if solo lfv && probe_ok rfv then
            Some (l, r, value_cmp, List.rev seen, tail)
          else if solo rfv && probe_ok lfv then
            Some (r, l, value_cmp, List.rev seen, tail)
          else
            find_eq
              (X.Where (X.Binop (op, l, r)) :: seen)
              tail)
        | (X.Where _ as w) :: tail -> find_eq (w :: seen) tail
        | _ -> None
      in
      match find_eq [] rest with
      | Some (build_key, probe_key, value_cmp, kept_wheres, tail) ->
        acc.joins <- acc.joins + 1;
        acc.notes <-
          Printf.sprintf "hash equi-join on $%s (%s comparison)" var
            (if value_cmp then "value" else "general")
          :: acc.notes;
        let hj =
          X.Hash_join { var; source; build_key; probe_key; value_cmp }
        in
        hj :: kept_wheres @ scan (Vars.add var bound_before) tail
      | None ->
        forc :: scan (Vars.add var bound_before) rest)
    | clause :: rest ->
      let bound_before =
        match clause with
        | X.Group { partition; keys; _ } ->
          (* pre-group bindings do not survive the group clause *)
          List.fold_left
            (fun b (_, kv) -> Vars.add kv b)
            (Vars.singleton partition)
            keys
        | _ ->
          List.fold_left
            (fun b v -> Vars.add v b)
            bound_before (clause_binds clause)
      in
      clause :: scan bound_before rest
  in
  scan Vars.empty clauses

(* ------------------------------------------------------------------ *)
(* Bottom-up rewrite                                                  *)

let rec rewrite acc (e : X.expr) : X.expr =
  match e with
  | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> e
  | X.Seq es -> X.Seq (List.map (rewrite acc) es)
  | X.Flwor f ->
    let clauses = List.map (rewrite_clause acc) f.clauses in
    let return = rewrite acc f.return in
    let clauses = push_predicates acc clauses in
    let clauses = recognize_joins acc clauses in
    X.Flwor { clauses; return }
  | X.Path (base, steps) ->
    X.Path
      ( rewrite acc base,
        List.map
          (fun (s : X.step) ->
            { s with X.predicates = List.map (rewrite acc) s.predicates })
          steps )
  | X.Call (name, args) -> X.Call (name, List.map (rewrite acc) args)
  | X.Elem { name; content } ->
    X.Elem { name; content = List.map (rewrite acc) content }
  | X.If (c, t, e) -> X.If (rewrite acc c, rewrite acc t, rewrite acc e)
  | X.Binop (op, a, b) -> X.Binop (op, rewrite acc a, rewrite acc b)
  | X.Neg e -> X.Neg (rewrite acc e)
  | X.Quantified { every; bindings; satisfies } ->
    X.Quantified
      {
        every;
        bindings = List.map (fun (v, e) -> (v, rewrite acc e)) bindings;
        satisfies = rewrite acc satisfies;
      }
  | X.Filter (base, pred) -> X.Filter (rewrite acc base, rewrite acc pred)

and rewrite_clause acc = function
  | X.For { var; source } -> X.For { var; source = rewrite acc source }
  | X.Let { var; value } -> X.Let { var; value = rewrite acc value }
  | X.Where cond -> X.Where (rewrite acc cond)
  | X.Group { grouped; partition; keys } ->
    X.Group
      {
        grouped;
        partition;
        keys = List.map (fun (k, v) -> (rewrite acc k, v)) keys;
      }
  | X.Order_by specs ->
    X.Order_by
      (List.map (fun (s : X.order_spec) -> { s with X.key = rewrite acc s.X.key }) specs)
  | X.Hash_join { var; source; build_key; probe_key; value_cmp } ->
    X.Hash_join
      {
        var;
        source = rewrite acc source;
        build_key = rewrite acc build_key;
        probe_key = rewrite acc probe_key;
        value_cmp;
      }

(* ------------------------------------------------------------------ *)
(* Per-plan scan sharing                                               *)

(* A "scan" is a parameterless prefixed call that is not a built-in
   function — i.e. a data-service function invocation that returns the
   same sequence every time within one plan.  When the same scan
   appears more than once (a self-join, an uncorrelated subquery, two
   branches of a union), every invocation re-fetches through the DSP
   server; hoisting them into one [let]-bound materialization at the
   top of the plan fetches once and shares the sequence.

   The hoisted call has no free variables, so lifting it to the top is
   always scope-safe.  Eager hoisting does trade laziness for sharing,
   so a scan is hoisted only when at least one of its occurrences sits
   in an always-evaluated position (an "anchor"): then the unshared
   plan would have invoked the service at least once anyway, and the
   hoist can only ever *reduce* the number of invocations.  A scan
   whose every occurrence is conditional — never-taken [if] branches,
   short-circuited [and]/[or] operands, tuple-driven FLWOR positions,
   lazily-built hash-join sides — stays in place: hoisting it could
   invoke a breaker-open or failpoint-armed service that the plan
   would never have touched. *)

let is_scan_call name args =
  args = [] && String.contains name ':' && Functions.lookup name = None

(* Variable names carry a '#' so they can never collide with anything
   the parser produces (identifiers only). *)
let scan_var name = "#scan:" ^ name

let share_scans_pass acc (e : X.expr) : X.expr =
  let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  (* scans with at least one anchor occurrence (a position evaluated
     whenever the whole plan is) — the precondition for eager hoisting *)
  let anchored : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let first_seen = ref [] in
  let note ~cond name =
    (match Hashtbl.find_opt counts name with
    | Some n -> Hashtbl.replace counts name (n + 1)
    | None ->
      Hashtbl.add counts name 1;
      first_seen := name :: !first_seen);
    if not cond then Hashtbl.replace anchored name ()
  in
  (* [cond] marks positions the evaluators may skip: if-branches, the
     short-circuited right operand of and/or, everything driven by a
     FLWOR's tuple stream (all clauses after the first, the return),
     predicates, non-leading quantifier bindings and satisfies
     clauses, and the lazily-built sides of a hash join. *)
  let rec count cond (e : X.expr) =
    match e with
    | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> ()
    | X.Seq es -> List.iter (count cond) es
    | X.Flwor f ->
      (match f.clauses with
      | first :: rest ->
        count_clause cond first;
        List.iter (count_clause true) rest
      | [] -> ());
      count true f.return
    | X.Path (base, steps) ->
      count cond base;
      List.iter (fun (s : X.step) -> List.iter (count true) s.predicates) steps
    | X.Call (name, args) ->
      if is_scan_call name args then note ~cond name;
      List.iter (count cond) args
    | X.Elem { content; _ } -> List.iter (count cond) content
    | X.If (c, t, e) ->
      count cond c;
      count true t;
      count true e
    | X.Binop ((X.B_and | X.B_or), a, b) ->
      count cond a;
      count true b
    | X.Binop (_, a, b) -> count cond a; count cond b
    | X.Neg e -> count cond e
    | X.Quantified { bindings; satisfies; _ } ->
      (match bindings with
      | (_, src) :: rest ->
        count cond src;
        List.iter (fun (_, src) -> count true src) rest
      | [] -> ());
      count true satisfies
    | X.Filter (base, pred) ->
      count cond base;
      count true pred
  and count_clause cond = function
    (* a leading for/let source (and a leading where, probed by the
       single initial tuple) runs whenever the FLWOR does; grouping and
       ordering keys and hash-join sides are tuple- or demand-driven *)
    | X.For { source = e; _ } | X.Let { value = e; _ } | X.Where e ->
      count cond e
    | X.Group { keys; _ } -> List.iter (fun (k, _) -> count true k) keys
    | X.Order_by specs ->
      List.iter (fun (s : X.order_spec) -> count true s.X.key) specs
    | X.Hash_join { source; build_key; probe_key; _ } ->
      count true source;
      count true build_key;
      count true probe_key
  in
  count false e;
  let shared =
    List.filter
      (fun n -> Hashtbl.find counts n >= 2 && Hashtbl.mem anchored n)
      (List.rev !first_seen)
  in
  if shared = [] then e
  else begin
    let rec sub (e : X.expr) : X.expr =
      match e with
      | X.Call (name, args) when is_scan_call name args && List.mem name shared
        ->
        X.Var (scan_var name)
      | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> e
      | X.Seq es -> X.Seq (List.map sub es)
      | X.Flwor f ->
        X.Flwor
          { clauses = List.map sub_clause f.clauses; return = sub f.return }
      | X.Path (base, steps) ->
        X.Path
          ( sub base,
            List.map
              (fun (s : X.step) ->
                { s with X.predicates = List.map sub s.predicates })
              steps )
      | X.Call (name, args) -> X.Call (name, List.map sub args)
      | X.Elem { name; content } ->
        X.Elem { name; content = List.map sub content }
      | X.If (c, t, e) -> X.If (sub c, sub t, sub e)
      | X.Binop (op, a, b) -> X.Binop (op, sub a, sub b)
      | X.Neg e -> X.Neg (sub e)
      | X.Quantified { every; bindings; satisfies } ->
        X.Quantified
          {
            every;
            bindings = List.map (fun (v, src) -> (v, sub src)) bindings;
            satisfies = sub satisfies;
          }
      | X.Filter (base, pred) -> X.Filter (sub base, sub pred)
    and sub_clause = function
      | X.For { var; source } -> X.For { var; source = sub source }
      | X.Let { var; value } -> X.Let { var; value = sub value }
      | X.Where cond -> X.Where (sub cond)
      | X.Group { grouped; partition; keys } ->
        X.Group
          { grouped; partition; keys = List.map (fun (k, v) -> (sub k, v)) keys }
      | X.Order_by specs ->
        X.Order_by
          (List.map
             (fun (s : X.order_spec) -> { s with X.key = sub s.X.key })
             specs)
      | X.Hash_join { var; source; build_key; probe_key; value_cmp } ->
        X.Hash_join
          {
            var;
            source = sub source;
            build_key = sub build_key;
            probe_key = sub probe_key;
            value_cmp;
          }
    in
    acc.shared <- acc.shared + List.length shared;
    List.iter
      (fun n ->
        acc.notes <-
          Printf.sprintf "shared scan %s (%d occurrences)" n
            (Hashtbl.find counts n)
          :: acc.notes)
      shared;
    X.Flwor
      {
        clauses =
          List.map
            (fun n -> X.Let { var = scan_var n; value = X.Call (n, []) })
            shared;
        return = sub e;
      }
  end

(* ------------------------------------------------------------------ *)
(* Section-4 text encoder fusion                                      *)

(* The text transport wraps a translated query as

     fn:string-join(
       let $a := <RECORDSET>{ ROWS }</RECORDSET>
       for $t in $a/RECORD
       return (">", ENC($t, C1), "<", ENC($t, C2), ...), "")

   with ENC($t, C) = fn-bea:if-empty(fn-bea:xml-escape(
   fn-bea:serialize-atomic(fn:data($t/C))), NUL).  Run as written,
   every row is built as a RECORD element, found again by the child
   step and taken apart cell by cell through four calls.  When ROWS is
   a tree of sequences, conditionals and FLWORs whose leaves are
   RECORD constructors holding exactly the columns, in order, each
   constructor can encode its own row instead: [fuse_text] replaces it
   with a [Text_row.row_fn] call over the cells, and the wrapper FLWOR
   disappears.  A column element [<C>{e}</C>] keeps element content
   semantics through [Text_row.cell_fn] (empty content encodes as "",
   several items join with a space); a NULL-guarded one,
   [if (g) then () else <C>{e}</C>], encodes NULL when [g] holds.  An
   ORDER BY over such rows moves into the FLWOR producing them.  Any
   other shape keeps the wrapper, and the report says why. *)

exception Not_fusable of string

let record_step = { X.name = "RECORD"; predicates = [] }

(* The wrapper's cell encoder over [$token]: the column step it reads. *)
let encoder_column token = function
  | X.Call
      ( "fn-bea:if-empty",
        [ X.Call
            ( "fn-bea:xml-escape",
              [ X.Call
                  ( "fn-bea:serialize-atomic",
                    [ X.Call
                        ( "fn:data",
                          [ X.Path (X.Var t, [ { X.name; predicates = [] } ]) ]
                        ) ] ) ] );
          X.Literal (Atomic.String null) ] )
    when t = token && null = Text_row.null_marker ->
    Some name
  | _ -> None

(* The wrapper's return: separator literals alternating with cell
   encoders; the column steps in order. *)
let rec encoder_columns token i = function
  | [] -> Some []
  | X.Literal (Atomic.String sep) :: enc :: rest when sep = Text_row.separator i
    -> (
    match (encoder_column token enc, encoder_columns token (i + 1) rest) with
    | Some c, Some cs -> Some (c :: cs)
    | _ -> None)
  | _ -> None

let fuse_rows columns rows =
  let field = function
    | X.Elem { name; content } as e -> (name, e, None, content)
    | X.If (g, X.Seq [], X.Elem { name; content }) as e ->
      (name, e, Some g, content)
    | _ -> raise (Not_fusable "RECORD content other than column elements")
  in
  let reads col (name, _, _, _) = Node.step_matches col name in
  let unique col fields =
    match List.filter (reads col) fields with
    | [ f ] -> f
    | [] -> raise (Not_fusable ("missing column element " ^ col))
    | _ -> raise (Not_fusable ("duplicated column element " ^ col))
  in
  let cell col (_, _, guard, content) =
    if
      List.exists
        (function X.Text _ | X.Elem _ | X.Path _ -> true | _ -> false)
        content
    then raise (Not_fusable ("node content in column " ^ col));
    let c = X.Call (Text_row.cell_fn, content) in
    match guard with None -> c | Some g -> X.If (g, X.Seq [], c)
  in
  let record fields =
    List.iter (fun col -> ignore (unique col fields)) columns;
    if
      List.length fields <> List.length columns
      || not (List.for_all2 reads columns fields)
    then raise (Not_fusable "column elements unread or out of order");
    X.Call (Text_row.row_fn, List.map2 cell columns fields)
  in
  (* An ORDER BY over materialized rows,

       let $s := <RECORDSET>{ for .. return <RECORD>F</RECORD> }</RECORDSET>
       for $r in $s/RECORD order by K($r/C) .. return $r,

     sorts the inner FLWOR's tuples by the same keys read from the
     column elements: the ordering moves into that FLWOR, each key
     reading its column element's constructor instead of [$r/C]. *)
  let ordered r specs (inner : X.flwor) =
    let fields =
      match inner.X.return with
      | X.Elem { name = "RECORD"; content } -> List.map field content
      | _ ->
        raise (Not_fusable "ORDER BY over rows other than RECORD constructors")
    in
    let rec key = function
      | X.Path (X.Var v, [ { X.name; predicates = [] } ]) when v = r ->
        let _, elem, _, _ = unique name fields in
        elem
      | X.Call (f, [ a ]) -> X.Call (f, [ key a ])
      | _ -> raise (Not_fusable "ORDER BY key other than a column read")
    in
    let specs =
      List.map (fun (s : X.order_spec) -> { s with X.key = key s.X.key }) specs
    in
    X.Flwor
      { clauses = inner.X.clauses @ [ X.Order_by specs ];
        return = record fields }
  in
  let rec go = function
    | X.Elem { name = "RECORD"; content } -> record (List.map field content)
    | X.Flwor
        { clauses =
            [ X.Let
                { var = s;
                  value =
                    X.Elem { name = "RECORDSET"; content = [ X.Flwor inner ] }
                };
              X.For { var = r; source = X.Path (X.Var s', [ step ]) };
              X.Order_by specs ];
          return = X.Var r' }
      when s = s' && r = r' && step = record_step ->
      ordered r specs inner
    | X.Seq es -> X.Seq (List.map go es)
    | X.If (c, t, e) -> X.If (c, go t, go e)
    | X.Flwor f -> X.Flwor { f with X.return = go f.X.return }
    | _ -> raise (Not_fusable "rows other than RECORD constructors")
  in
  go rows

(* A pattern match at the top of the plan: [None] when [e] is not the
   text-transport wrapper. *)
let fuse_text (e : X.expr) : X.expr * text_encoder option =
  match e with
  | X.Call
      ( "fn:string-join",
        [ X.Flwor
            { clauses =
                [ X.Let { var = actual; value };
                  X.For { var = token; source = X.Path (X.Var a, [ step ]) } ];
              return = X.Seq parts };
          (X.Literal (Atomic.String "") as sep) ] )
    when a = actual && step = record_step -> (
    match encoder_columns token 0 parts with
    | None -> (e, None)
    | Some columns -> (
      match value with
      | X.Elem { name = "RECORDSET"; content = [ rows ] } -> (
        match fuse_rows columns rows with
        | rows -> (X.Call ("fn:string-join", [ rows; sep ]), Some Fused)
        | exception Not_fusable why -> (e, Some (General why)))
      | _ -> (e, Some (General "result other than one RECORDSET constructor"))))
  | _ -> (e, None)

(* A fused row tree: sequences, conditionals and FLWORs over
   [Text_row.row_fn] calls — what [Compile] lowers to one encoder. *)
let rec fused_rows (e : X.expr) =
  match e with
  | X.Call (f, _) -> f = Text_row.row_fn
  | X.Seq es -> List.for_all fused_rows es
  | X.If (_, t, e) -> fused_rows t && fused_rows e
  | X.Flwor f -> fused_rows f.X.return
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Columnar pipeline shape (EXPLAIN-style notes)                      *)

(* Mirrors, in name-set form, the decisions the columnar compiler
   makes: per expander/barrier, how many of the visible columns the
   required-columns analysis actually carries downstream, and for each
   group clause which aggregation kernels were selected.  Purely
   descriptive — the compiler recomputes the same analysis over real
   slots. *)
let columnar_shape (e : X.expr) : string list =
  let out = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let clause_label = function
    | X.For { var; _ } -> Printf.sprintf "for $%s" var
    | X.Let { var; _ } -> Printf.sprintf "let $%s" var
    | X.Where _ -> "where"
    | X.Order_by _ -> "order by"
    | X.Group { partition; _ } -> Printf.sprintf "group by -> $%s" partition
    | X.Hash_join { var; _ } -> Printf.sprintf "hash-join $%s" var
  in
  let rec walk (e : X.expr) =
    match e with
    | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> ()
    | X.Seq es -> List.iter walk es
    | X.Flwor f -> walk_flwor f
    | X.Path (base, steps) ->
      walk base;
      List.iter (fun (s : X.step) -> List.iter walk s.predicates) steps
    | X.Call (_, args) -> List.iter walk args
    | X.Elem { content; _ } -> List.iter walk content
    | X.If (c, t, e) -> walk c; walk t; walk e
    | X.Binop (_, a, b) -> walk a; walk b
    | X.Neg e -> walk e
    | X.Quantified { bindings; satisfies; _ } ->
      List.iter (fun (_, src) -> walk src) bindings;
      walk satisfies
    | X.Filter (base, pred) -> walk base; walk pred
  and walk_flwor (f : X.flwor) =
    let entry_used = fv Vars.empty Vars.empty (X.Flwor f) in
    let arr = Array.of_list f.clauses in
    let n = Array.length arr in
    let remainder i =
      (* live columns after clause i: free vars of the rest of the
         pipeline plus the return *)
      let rest = Array.to_list (Array.sub arr (i + 1) (n - i - 1)) in
      fv Vars.empty Vars.empty (X.Flwor { clauses = rest; return = f.return })
    in
    let visible = ref entry_used in
    Array.iteri
      (fun i clause ->
        (match clause with
        | X.Where _ | X.Let _ -> () (* operate in place: nothing copied *)
        | X.Group { grouped = _; partition; keys } ->
          let post =
            List.fold_left
              (fun s (_, kv) -> Vars.add kv s)
              (Vars.add partition entry_used)
              keys
          in
          let live = Vars.inter (remainder i) post in
          (match
             group_kernels ~partition
               (Array.to_list (Array.sub arr (i + 1) (n - i - 1)))
               f.return
           with
          | Some (specs, _, _) ->
            emit
              "columnar: %s kernels [%s]; partition not materialized, %d \
               live column(s) carried"
              (clause_label clause)
              (if specs = [] then "none"
               else String.concat "; " (List.map spec_label specs))
              (Vars.cardinal (Vars.remove partition live))
          | None ->
            emit
              "columnar: %s materializes the partition (aggregates not \
               kernelizable); %d live column(s) carried"
              (clause_label clause) (Vars.cardinal live));
          visible := post
        | X.For { var; _ } | X.Hash_join { var; _ } ->
          let vis = Vars.add var !visible in
          let live = Vars.inter (remainder i) vis in
          emit "columnar: %s carries %d of %d column(s) (pruned %d)"
            (clause_label clause) (Vars.cardinal live) (Vars.cardinal vis)
            (Vars.cardinal (Vars.diff vis live));
          visible := vis
        | X.Order_by _ ->
          let live = Vars.inter (remainder i) !visible in
          emit "columnar: %s retains %d of %d column(s) (pruned %d)"
            (clause_label clause) (Vars.cardinal live)
            (Vars.cardinal !visible)
            (Vars.cardinal (Vars.diff !visible live)));
        (* recurse into the clause's subexpressions for nested FLWORs *)
        match clause with
        | X.For { source; _ } -> walk source
        | X.Let { value; _ } -> walk value
        | X.Where cond -> walk cond
        | X.Group { keys; _ } -> List.iter (fun (k, _) -> walk k) keys
        | X.Order_by specs ->
          List.iter (fun (s : X.order_spec) -> walk s.X.key) specs
        | X.Hash_join { source; build_key; probe_key; _ } ->
          walk source; walk build_key; walk probe_key)
      arr;
    walk f.return
  in
  walk e;
  List.rev !out

let expr ?(share_scans = true) e =
  let module T = Aqua_core.Telemetry in
  let acc = { pushed = 0; joins = 0; shared = 0; notes = [] } in
  let e, encode = fuse_text e in
  (match encode with
  | Some Fused -> T.incr T.c_text_encoder_fused
  | Some (General _) -> T.incr T.c_text_encoder_general
  | None -> ());
  let e = rewrite acc e in
  let e = if share_scans then share_scans_pass acc e else e in
  acc.notes <-
    Printf.sprintf
      "flwor pipelines execute as %d-row batches (selection-vector \
       filtering)"
      (Batch.size ())
    :: acc.notes;
  acc.notes <-
    "columnar layout: one value vector per bound variable \
     (required-column pruning active)"
    :: acc.notes;
  List.iter (fun n -> acc.notes <- n :: acc.notes) (columnar_shape e);
  T.add T.c_pushdown_rewrites acc.pushed;
  T.add T.c_hash_join_rewrites acc.joins;
  T.add T.c_shared_scan_rewrites acc.shared;
  ( e,
    {
      pushed_predicates = acc.pushed;
      hash_joins = acc.joins;
      shared_scans = acc.shared;
      encode;
      notes = List.rev acc.notes;
    } )

(* [vectorize] and [columnar] are accepted and ignored (see optimize.mli). *)
let query ?share_scans ?vectorize:_ ?columnar:_ (q : X.query) =
  let body, report = expr ?share_scans q.X.body in
  ({ q with X.body }, report)

(* ------------------------------------------------------------------ *)
(* Scoping hazard check                                               *)

(* Returns [Some v] when some [where] clause references [$v] before the
   clause of the same FLWOR that binds it — the naive clause fold would
   silently filter every tuple out (or worse, resolve an outer
   shadowed binding).  [bound] seeds the statically-known outer
   bindings.  Purely syntactic; never evaluates anything. *)
let scoping_hazard ~bound e =
  let hazard = ref None in
  let note v = if !hazard = None then hazard := Some v in
  let rec walk bound (e : X.expr) =
    match e with
    | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> ()
    | X.Seq es -> List.iter (walk bound) es
    | X.Flwor f -> walk_flwor bound f
    | X.Path (base, steps) ->
      walk bound base;
      let bound = Vars.add "." bound in
      List.iter
        (fun (s : X.step) -> List.iter (walk bound) s.X.predicates)
        steps
    | X.Call (_, args) -> List.iter (walk bound) args
    | X.Elem { content; _ } -> List.iter (walk bound) content
    | X.If (c, t, e) ->
      walk bound c;
      walk bound t;
      walk bound e
    | X.Binop (_, a, b) ->
      walk bound a;
      walk bound b
    | X.Neg e -> walk bound e
    | X.Quantified { bindings; satisfies; _ } ->
      let bound =
        List.fold_left
          (fun bound (v, src) ->
            walk bound src;
            Vars.add v bound)
          bound bindings
      in
      walk bound satisfies
    | X.Filter (base, pred) ->
      walk bound base;
      walk (Vars.add "." bound) pred
  and walk_flwor bound (f : X.flwor) =
    let arr = Array.of_list f.X.clauses in
    let n = Array.length arr in
    let binds_at j = clause_binds arr.(j) in
    (* wheres: flag free vars bound only by later clauses *)
    Array.iteri
      (fun i clause ->
        match clause with
        | X.Where cond ->
          let bound_now =
            let rec go j b =
              if j >= i then b
              else
                go (j + 1)
                  (List.fold_left (fun b v -> Vars.add v b) b (binds_at j))
            in
            go 0 bound
          in
          Vars.iter
            (fun v ->
              if not (Vars.mem v bound_now) then
                let rec bound_later j =
                  j < n && (List.mem v (binds_at j) || bound_later (j + 1))
                in
                if bound_later (i + 1) then note v)
            (free_vars cond)
        | _ -> ())
      arr;
    (* recurse into subexpressions with a conservative bound set (every
       variable the FLWOR binds anywhere) — only the where check above
       is position-sensitive *)
    let all_bound =
      Array.fold_left
        (fun b c -> List.fold_left (fun b v -> Vars.add v b) b (clause_binds c))
        bound arr
    in
    Array.iter
      (fun clause ->
        match clause with
        | X.For { source; _ } -> walk all_bound source
        | X.Let { value; _ } -> walk all_bound value
        | X.Where cond -> walk all_bound cond
        | X.Group { keys; _ } -> List.iter (fun (k, _) -> walk all_bound k) keys
        | X.Order_by specs ->
          List.iter (fun (s : X.order_spec) -> walk all_bound s.X.key) specs
        | X.Hash_join { source; build_key; probe_key; _ } ->
          walk all_bound source;
          walk all_bound build_key;
          walk all_bound probe_key)
      arr;
    walk all_bound f.X.return
  in
  walk bound e;
  !hazard
