(* Batch-size configuration for the compiled FLWOR pipeline: the
   number of tuples an operator pushes downstream at a time.  Read from
   the environment at startup (AQUA_BATCH_SIZE) and overridable
   programmatically (the CLI's --batch-size flag and the differential
   tests both go through [set_size]).  The size is read at
   *invocation* time by the compiled pipelines, so changing it affects
   already-compiled plans. *)

let default_size = 1024

let initial =
  match Option.bind (Sys.getenv_opt "AQUA_BATCH_SIZE") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> default_size

let current = ref initial

let size () = !current

let set_size n = current := max 1 n

(* Batches are always columnar; kept for the benchmark's trace pipeline. *)
let columnar () = true

(* ------------------------------------------------------------------ *)
(* Struct-of-arrays batch                                             *)

(* One value vector per bound variable slot plus a selection vector.
   [cols.(slot)] is either the [no_column] sentinel (never written at
   this operator — pruned or not yet bound) or a [cap]-sized vector
   whose cells at the selected row indices hold that variable's value.
   Columns are allocated lazily on first write, so a pipeline that
   prunes a column never pays for it.  Buffers are pooled and reused
   across invocations (see compile.ml), so cells outside the current
   fill are stale garbage by design: readers must go through the
   selection vector. *)

type columns = {
  mutable cols : Aqua_xml.Item.sequence array array; (* [slot] -> [row] *)
  mutable sel : int array; (* selected row indices; length >= cap *)
  mutable n : int; (* live rows: sel.(0 .. n-1) are valid *)
  mutable cap : int; (* row capacity of each allocated column *)
}

let no_column : Aqua_xml.Item.sequence array = [||]

let make_columns ~slots ~cap =
  {
    cols = Array.make (max slots 1) no_column;
    sel = Array.init (max cap 1) (fun i -> i);
    n = 0;
    cap = max cap 1;
  }

(* Re-shape a pooled buffer for a plan with [slots] variable slots and
   [cap]-row batches.  Growing the outer array drops the old columns
   (they carry stale data anyway); growing the capacity drops every
   column so lazy allocation re-sizes them on first write. *)
let ensure_columns b ~slots ~cap =
  let cap = max cap 1 in
  if cap <> b.cap then begin
    b.cap <- cap;
    b.cols <- Array.make (max slots 1) no_column;
    b.sel <- Array.init cap (fun i -> i)
  end
  else if slots > Array.length b.cols then begin
    let grown = Array.make slots no_column in
    Array.blit b.cols 0 grown 0 (Array.length b.cols);
    b.cols <- grown
  end;
  b.n <- 0

(* The column for [slot], allocating it on first write. *)
let column b slot =
  let c = b.cols.(slot) in
  if c != no_column then c
  else begin
    let c = Array.make b.cap [] in
    b.cols.(slot) <- c;
    c
  end
