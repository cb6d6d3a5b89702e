(** XML node trees.

    Element names are kept as plain strings that may carry a namespace
    prefix (e.g. ["ns0:CUSTOMERS"]); the flat results handled by the
    driver never need full namespace resolution beyond prefixes. *)

type t =
  | Element of element
  | Text of string

and element = {
  name : string;
  attrs : (string * string) list;
  children : t list;
}

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

val local_name : string -> string
(** Strips a namespace prefix: [local_name "ns0:CUSTOMERS" = "CUSTOMERS"]. *)

val step_matches : string -> string -> bool
(** [step_matches step name]: whether a child path step [step] selects
    an element named [name] — ["*"], the same name, or the same local
    name. *)

val name_of : t -> string option
(** Element name, [None] for text nodes. *)

val children_elements : t -> element list
(** Child elements of an element node (text nodes skipped); [[]] for text. *)

val string_value : t -> string
(** Concatenation of all descendant text, the XPath string-value. *)

val equal : t -> t -> bool
(** Deep structural equality (attribute order significant). *)

val normalize : t -> t
(** Canonical content form: adjacent text nodes merged, empty text
    nodes dropped (recursively).  Serialization then parsing yields
    the normalized tree. *)

val pp : Format.formatter -> t -> unit
