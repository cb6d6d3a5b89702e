type t =
  | Element of element
  | Text of string

and element = {
  name : string;
  attrs : (string * string) list;
  children : t list;
}

let element ?(attrs = []) name children = Element { name; attrs; children }
let text s = Text s

let local_name name =
  match String.index_opt name ':' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

let step_matches step_name el_name =
  step_name = "*"
  || el_name = step_name
  || local_name el_name = local_name step_name

let name_of = function Element e -> Some e.name | Text _ -> None

let children_elements = function
  | Text _ -> []
  | Element e ->
    List.filter_map
      (function Element c -> Some c | Text _ -> None)
      e.children

let string_value node =
  match node with
  (* flat rows make these three shapes the overwhelming majority;
     none of them needs a buffer *)
  | Text s -> s
  | Element { children = []; _ } -> ""
  | Element { children = [ Text s ]; _ } -> s
  | Element _ ->
    let buf = Buffer.create 32 in
    let rec go = function
      | Text s -> Buffer.add_string buf s
      | Element e -> List.iter go e.children
    in
    go node;
    Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element x, Element y ->
    String.equal x.name y.name
    && List.length x.attrs = List.length y.attrs
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
         x.attrs y.attrs
    && List.length x.children = List.length y.children
    && List.for_all2 equal x.children y.children
  | Element _, Text _ | Text _, Element _ -> false

let rec normalize = function
  | Text s -> Text s
  | Element e ->
    let rec merge = function
      | [] -> []
      | Text "" :: rest -> merge rest
      | Text a :: Text b :: rest -> merge (Text (a ^ b) :: rest)
      | Text a :: rest -> Text a :: merge rest
      | Element c :: rest -> normalize (Element c) :: merge rest
    in
    Element { e with children = merge e.children }

let rec pp fmt = function
  | Text s -> Format.fprintf fmt "%S" s
  | Element e ->
    Format.fprintf fmt "<%s%a>%a</%s>" e.name
      (fun fmt attrs ->
        List.iter (fun (k, v) -> Format.fprintf fmt " %s=%S" k v) attrs)
      e.attrs
      (fun fmt cs -> List.iter (pp fmt) cs)
      e.children e.name
