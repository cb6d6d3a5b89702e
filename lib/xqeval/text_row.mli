(** The text encoding of result rows from paper section 4, shared by
    the wrapper query, its fused encoder and the client decoder.

    A row is [row_prefix] followed by its cells separated by
    [column_separator]; each cell is the lexical value passed through
    [fn-bea:xml-escape], after which it contains neither delimiter.
    SQL NULL is the single byte [null_marker], which escaped data can
    never contain.

    The fused encoder ({!Optimize}, {!Compile}) replaces each
    [<RECORD>] constructor of a wrapped query with a call to the
    synthetic function [row_fn], whose arguments are the cells: each
    a [cell_fn] call over a column element's content, or
    [if (c) then () else cell_fn(...)] for a NULL-guarded column.  The
    names carry a ['#'], so parsed queries can never contain them. *)

val row_prefix : string
val column_separator : string
val null_marker : string

val separator : int -> string
(** The delimiter before cell [i]: [row_prefix] for the first cell,
    [column_separator] after that. *)

val row_fn : string
(** [row_fn(c1, .., cn)]: the encoded row.  An empty cell is NULL;
    any other cell is the escaped lexical form of its single atomic. *)

val cell_fn : string
(** [cell_fn(parts..)]: the string value the element [<E>{parts}</E>]
    would have — one string, [""] for empty content. *)

val escape_into : Buffer.t -> string -> unit
(** Appends [fn-bea:xml-escape] of the string: [&], [<], [>] and C0
    control characters other than tab, newline and carriage return
    become character references.  A string needing none is appended
    as is. *)

val escape : string -> string
(** [escape_into] as a string: the argument itself when it needs no
    reference. *)

val add_escaped_content : Buffer.t -> Aqua_xml.Item.sequence -> unit
(** Appends the escaped string value of [<E>{seq}</E>]: adjacent
    atomics joined by one space, nodes by their string value. *)

val content_string : Aqua_xml.Item.sequence -> string
(** The unescaped string value of [<E>{seq}</E>]. *)

val add_cell : Buffer.t -> Aqua_xml.Item.sequence -> unit
(** Appends one [row_fn] cell: [null_marker] for the empty sequence,
    otherwise the escaped lexical form of its single atomized value.
    @raise Error.Dynamic_error on more than one item. *)
