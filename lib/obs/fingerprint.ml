(* Lexical SQL normalizer + FNV-1a digest.  This deliberately does not
   reuse the SQL parser: fingerprinting must work on statements the
   parser rejects (so errors aggregate by shape), and must not care
   about grammar details.

   One left-to-right pass lexes the text and appends each token, with
   its separator, straight into one buffer.  Literal IN-lists collapse
   in place: the buffer length after [IN(?] is marked, and a closing
   paren that completes [IN ( ? {, ?} )] truncates back to the mark. *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '$'
let is_digit c = c >= '0' && c <= '9'

let is_two_char_op a b =
  match (a, b) with
  | '<', ('=' | '>') | '>', '=' | '!', '=' | '|', '|' -> true
  | _ -> false

(* The output so far: the buffer, whether a token was written, whether
   the last one was [(] or [.], and the progress through an
   [IN ( ? {, ?} )] list: 0 outside, 1 after IN, 2 after IN (, and from
   3 on, 3 + the [, ?] tokens since [IN ( ?] (an odd count expects
   [?], an even one [,] or [)]), with [mark] the length after [IN(?]. *)
type out = {
  buf : Buffer.t;
  mutable started : bool;
  mutable glue : bool;
  mutable in_list : int;
  mutable mark : int;
}

(* Spacing: single separators, but punctuation hugs its operand — no
   space before commas, dots or parens and none after an opening paren
   or dot — so shapes read like [COUNT(STAR)] and [IN(?)]. *)
let sep o ~hugs_left ~glues =
  if o.started && (not hugs_left) && not o.glue then Buffer.add_char o.buf ' ';
  o.started <- true;
  o.glue <- glues

let listing o = o.in_list >= 3 && (o.in_list - 3) land 1 = 0

let word o ~is_in =
  o.in_list <- (if is_in then 1 else 0);
  sep o ~hugs_left:false ~glues:false

let placeholder o =
  sep o ~hugs_left:false ~glues:false;
  Buffer.add_char o.buf '?';
  if o.in_list = 2 then begin
    o.in_list <- 3;
    o.mark <- Buffer.length o.buf
  end
  else if o.in_list >= 3 && not (listing o) then o.in_list <- o.in_list + 1
  else o.in_list <- 0

let punct o c =
  if c = ')' && listing o then Buffer.truncate o.buf o.mark;
  o.in_list <-
    (if c = '(' && o.in_list = 1 then 2
     else if c = ',' && listing o then o.in_list + 1
     else 0);
  sep o
    ~hugs_left:(c = ',' || c = ')' || c = '.' || c = '(')
    ~glues:(c = '(' || c = '.');
  Buffer.add_char o.buf c

let normalize sql =
  let n = String.length sql in
  let o =
    { buf = Buffer.create (n + 8); started = false; glue = false;
      in_list = 0; mark = 0 }
  in
  let i = ref 0 in
  while !i < n do
    let c = sql.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && sql.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && sql.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && sql.[!i + 1] = '*' then begin
      (* block comment (unterminated: swallow the rest) *)
      i := !i + 2;
      let fin = ref false in
      while not !fin && !i < n do
        if sql.[!i] = '*' && !i + 1 < n && sql.[!i + 1] = '/' then begin
          i := !i + 2;
          fin := true
        end
        else incr i
      done
    end
    else if c = '\'' then begin
      (* string literal, '' escapes; unterminated swallows the rest *)
      incr i;
      let fin = ref false in
      while not !fin && !i < n do
        if sql.[!i] = '\'' then
          if !i + 1 < n && sql.[!i + 1] = '\'' then i := !i + 2
          else begin
            incr i;
            fin := true
          end
        else incr i
      done;
      placeholder o
    end
    else if c = '"' then begin
      (* quoted identifier: kept verbatim, case preserved *)
      let start = !i in
      incr i;
      while !i < n && sql.[!i] <> '"' do incr i done;
      if !i < n then incr i;
      word o ~is_in:false;
      Buffer.add_substring o.buf sql start (!i - start)
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit sql.[!i + 1])
    then begin
      (* numeric literal: digits [. digits] [eE [+-] digits] *)
      while !i < n && is_digit sql.[!i] do incr i done;
      if !i < n && sql.[!i] = '.' then begin
        incr i;
        while !i < n && is_digit sql.[!i] do incr i done
      end;
      if !i < n && (sql.[!i] = 'e' || sql.[!i] = 'E') then begin
        let j = !i + 1 in
        let j = if j < n && (sql.[j] = '+' || sql.[j] = '-') then j + 1 else j in
        if j < n && is_digit sql.[j] then begin
          i := j;
          while !i < n && is_digit sql.[!i] do incr i done
        end
      end;
      placeholder o
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char sql.[!i] do incr i done;
      let len = !i - start in
      let is_in =
        len = 2
        && Char.uppercase_ascii sql.[start] = 'I'
        && Char.uppercase_ascii sql.[start + 1] = 'N'
      in
      word o ~is_in;
      for j = start to !i - 1 do
        Buffer.add_char o.buf (Char.uppercase_ascii sql.[j])
      done
    end
    else if !i + 1 < n && is_two_char_op c sql.[!i + 1] then begin
      word o ~is_in:false;
      Buffer.add_char o.buf c;
      Buffer.add_char o.buf sql.[!i + 1];
      i := !i + 2
    end
    else begin
      punct o c;
      incr i
    end
  done;
  Buffer.contents o.buf

(* FNV-1a, 64-bit, over the normalized text; a plain loop keeps the
   accumulator unboxed. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let hex = "0123456789abcdef"

let digest_of_normalized s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  let h = !h in
  String.init 16 (fun k ->
      hex.[Int64.to_int
             (Int64.logand (Int64.shift_right_logical h (60 - (4 * k))) 15L)])

let fingerprint sql =
  let n = normalize sql in
  (digest_of_normalized n, n)

let digest sql = fst (fingerprint sql)
