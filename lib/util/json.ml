type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emitting ---------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* A quoted string literal. Most strings (keys, tags, names) need no
   escaping and go into the buffer as they are. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* The decimal digits of [n], most significant first, with no
   intermediate string. The digits are taken from the non-positive
   value, which also covers [min_int]. *)
let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))
  in
  digits (if n > 0 then -n else n)

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

(* A line break and the indentation of [level], when indenting. *)
let break buf indent level =
  if indent then begin
    Buffer.add_char buf '\n';
    for _ = 1 to level do
      Buffer.add_string buf "  "
    done
  end

let rec emit buf indent level = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> add_int buf n
  | Float f ->
      (* JSON has no infinities or NaN: emit what [of_string] reads back. *)
      Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
  | String s -> add_quoted buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      emit_items buf indent (level + 1) items;
      break buf indent level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      emit_fields buf indent (level + 1) fields;
      break buf indent level;
      Buffer.add_char buf '}'

and emit_items buf indent level = function
  | [] -> ()
  | item :: rest ->
      break buf indent level;
      emit buf indent level item;
      (match rest with
      | [] -> ()
      | _ ->
          Buffer.add_char buf ',';
          emit_items buf indent level rest)

and emit_fields buf indent level = function
  | [] -> ()
  | (k, item) :: rest ->
      break buf indent level;
      add_quoted buf k;
      Buffer.add_string buf (if indent then ": " else ":");
      emit buf indent level item;
      (match rest with
      | [] -> ()
      | _ ->
          Buffer.add_char buf ',';
          emit_fields buf indent level rest)

let render ~indent v =
  let buf = Buffer.create 256 in
  emit buf indent 0 v;
  Buffer.contents buf

let to_string v = render ~indent:false v

let pretty v = render ~indent:true v

(* ---------- reading ---------- *)

exception Parse_error of int * string

(* Longest digit run the fast path reads straight into an int: every
   18-digit decimal is below [max_int] (about 4.6e18), so the
   accumulator cannot overflow. *)
let max_fast_digits = 18

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

module Cursor = struct
  (* [acc] carries the value of the integer the fast path just read, so
     reading or skipping one allocates nothing. *)
  type t = { s : string; mutable pos : int; mutable acc : int }

  let fail c msg = raise (Parse_error (c.pos, msg))

  let advance c = c.pos <- c.pos + 1

  let at c ch = c.pos < String.length c.s && String.unsafe_get c.s c.pos = ch

  let skip_ws c =
    let len = String.length c.s in
    while
      c.pos < len
      && match String.unsafe_get c.s c.pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      advance c
    done

  let expect c ch =
    if at c ch then advance c else fail c (Printf.sprintf "expected %C" ch)

  let literal c word =
    let n = String.length word in
    let rec matches i =
      i >= n || (String.unsafe_get c.s (c.pos + i) = word.[i] && matches (i + 1))
    in
    if c.pos + n <= String.length c.s && matches 0 then c.pos <- c.pos + n
    else fail c ("expected " ^ word)

  (* The general string path: escapes, and every error. [c.pos] is at
     the opening quote. *)
  let string_slow c =
    let s = c.s and len = String.length c.s in
    expect c '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if c.pos >= len then fail c "unterminated string"
      else
        match s.[c.pos] with
        | '"' -> advance c
        | '\\' ->
            advance c;
            (if c.pos >= len then fail c "unterminated escape"
             else
               match s.[c.pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   if c.pos + 4 >= len then fail c "truncated \\u escape";
                   let hex = String.sub s (c.pos + 1) 4 in
                   let code =
                     match int_of_string_opt ("0x" ^ hex) with
                     | Some code -> code
                     | None -> fail c "bad \\u escape"
                   in
                   (* Basic-multilingual-plane code points only; enough to
                      round-trip what the emitter writes. *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else Buffer.add_string buf (Printf.sprintf "\\u%s" hex);
                   c.pos <- c.pos + 4
               | ch -> fail c (Printf.sprintf "bad escape %C" ch));
            advance c;
            loop ()
        | ch ->
            Buffer.add_char buf ch;
            advance c;
            loop ()
    in
    loop ();
    Buffer.contents buf

  (* The end of a string without escapes that starts at [c.pos], or -1. *)
  let plain_end c =
    let s = c.s and len = String.length c.s in
    let rec scan i =
      if i >= len then -1
      else
        match String.unsafe_get s i with
        | '"' -> i
        | '\\' -> -1
        | _ -> scan (i + 1)
    in
    if at c '"' then scan (c.pos + 1) else -1

  let string_at c =
    match plain_end c with
    | -1 -> string_slow c
    | stop ->
        let v = String.sub c.s (c.pos + 1) (stop - c.pos - 1) in
        c.pos <- stop + 1;
        v

  let skip_string c =
    match plain_end c with
    | -1 -> ignore (string_slow c)
    | stop -> c.pos <- stop + 1

  (* Fast path: an optional '-' and 1 to [max_fast_digits] digits, ended
     by end of input or a character that cannot continue a number, are
     accumulated into [c.acc] — no substring, no [int_of_string_opt]. *)
  let fast_int c =
    let s = c.s and len = String.length c.s in
    let neg = at c '-' in
    let first = if neg then c.pos + 1 else c.pos in
    let i = ref first and acc = ref 0 in
    while
      !i < len
      && !i - first < max_fast_digits
      && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false
    do
      acc := (10 * !acc) + (Char.code (String.unsafe_get s !i) - Char.code '0');
      incr i
    done;
    if !i > first && (!i >= len || not (is_num_char (String.unsafe_get s !i)))
    then begin
      c.pos <- !i;
      c.acc <- (if neg then - !acc else !acc);
      true
    end
    else false

  (* Every number that is not a plain integer of at most
     [max_fast_digits] digits, and every malformed one. *)
  let number_text c =
    let start = c.pos in
    while c.pos < String.length c.s && is_num_char c.s.[c.pos] do
      advance c
    done;
    let text = String.sub c.s start (c.pos - start) in
    if String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail c (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some n -> Int n
      | None -> fail c (Printf.sprintf "bad number %S" text)

  let number_start c =
    c.pos < String.length c.s
    && match c.s.[c.pos] with '-' | '0' .. '9' -> true | _ -> false

  let int c =
    skip_ws c;
    if not (number_start c) then fail c "expected an integer"
    else if fast_int c then c.acc
    else
      let start = c.pos in
      match number_text c with
      | Int n -> n
      | _ ->
          c.pos <- start;
          fail c "expected an integer"

  let number c =
    skip_ws c;
    if not (number_start c) then fail c "expected a number"
    else if fast_int c then float_of_int c.acc
    else
      match number_text c with
      | Float f -> f
      | Int n -> float_of_int n
      | _ -> assert false

  let string c =
    skip_ws c;
    if at c '"' then string_at c else fail c "expected a string"

  let bool c =
    skip_ws c;
    if at c 't' then (literal c "true"; true)
    else if at c 'f' then (literal c "false"; false)
    else fail c "expected a boolean"

  let null c =
    skip_ws c;
    at c 'n' && (literal c "null"; true)

  let enter c ch what =
    skip_ws c;
    if at c ch then advance c else fail c ("expected " ^ what)

  (* The elements after the first, up to the closing bracket. *)
  let[@tail_mod_cons] rec rest close read c =
    skip_ws c;
    if at c ',' then begin
      advance c;
      let x = read c in
      x :: rest close read c
    end
    else begin
      expect c close;
      []
    end

  let list read c =
    enter c '[' "an array";
    skip_ws c;
    if at c ']' then begin
      advance c;
      []
    end
    else
      let x = read c in
      x :: rest ']' read c

  let pair read_a read_b c =
    enter c '[' "an array";
    let a = read_a c in
    skip_ws c;
    expect c ',';
    let b = read_b c in
    skip_ws c;
    expect c ']';
    (a, b)

  (* Validates what it passes over; allocates only for a string with
     escapes or a number off the fast path. *)
  let rec skip c =
    skip_ws c;
    if c.pos >= String.length c.s then fail c "unexpected end of input";
    match c.s.[c.pos] with
    | '"' -> skip_string c
    | 't' -> literal c "true"
    | 'f' -> literal c "false"
    | 'n' -> literal c "null"
    | '[' ->
        advance c;
        skip_ws c;
        if at c ']' then advance c
        else begin
          skip c;
          skip_ws c;
          while at c ',' do
            advance c;
            skip c;
            skip_ws c
          done;
          expect c ']'
        end
    | '{' ->
        advance c;
        skip_ws c;
        if at c '}' then advance c
        else begin
          let member () =
            skip_ws c;
            skip_string c;
            skip_ws c;
            expect c ':';
            skip c;
            skip_ws c
          in
          member ();
          while at c ',' do
            advance c;
            member ()
          done;
          expect c '}'
        end
    | '-' | '0' .. '9' -> if not (fast_int c) then ignore (number_text c)
    | ch -> fail c (Printf.sprintf "unexpected %C" ch)

  let with_bytes read c =
    skip_ws c;
    let start = c.pos in
    let v = read c in
    (v, String.sub c.s start (c.pos - start))

  let rec value c =
    skip_ws c;
    if c.pos >= String.length c.s then fail c "unexpected end of input";
    match c.s.[c.pos] with
    | '"' -> String (string_at c)
    | 't' ->
        literal c "true";
        Bool true
    | 'f' ->
        literal c "false";
        Bool false
    | 'n' ->
        literal c "null";
        Null
    | '[' ->
        advance c;
        skip_ws c;
        if at c ']' then begin
          advance c;
          List []
        end
        else
          let x = value c in
          List (x :: rest ']' value c)
    | '{' ->
        advance c;
        skip_ws c;
        if at c '}' then begin
          advance c;
          Obj []
        end
        else
          let kv = member c in
          Obj (kv :: rest '}' member c)
    | '-' | '0' .. '9' -> if fast_int c then Int c.acc else number_text c
    | ch -> fail c (Printf.sprintf "unexpected %C" ch)

  and member c =
    skip_ws c;
    let k = string_at c in
    skip_ws c;
    expect c ':';
    (k, value c)

  (* ---------- objects ---------- *)

  (* An object being read. Its fields are walked in document order, only
     as far as the field asked for; every field walked past is skipped
     and its value's position recorded, so a field asked for later is
     read from there. In the emitter's field order a reader that asks in
     that order passes over each byte once. *)
  type fields = {
    cur : t;
    mutable seen : (string * int) list;  (* first occurrences only *)
    mutable next : int;  (* where the walk resumes *)
    mutable started : bool;
    mutable closed : bool;  (* [next] is past the closing brace *)
  }

  let fields c =
    enter c '{' "an object";
    { cur = c; seen = []; next = c.pos; started = false; closed = false }

  (* Walk to the next field's value and return its key, or [None] at the
     closing brace. *)
  let walk f =
    let c = f.cur in
    c.pos <- f.next;
    skip_ws c;
    let key () =
      f.started <- true;
      let k = string_at c in
      skip_ws c;
      expect c ':';
      Some k
    in
    if f.started && at c ',' then begin
      advance c;
      skip_ws c;
      key ()
    end
    else if at c '}' then begin
      advance c;
      f.closed <- true;
      f.next <- c.pos;
      None
    end
    else if f.started then fail c "expected '}'"
    else key ()

  let record f k p =
    if not (List.mem_assoc k f.seen) then f.seen <- (k, p) :: f.seen

  let field_opt f name read =
    let c = f.cur in
    match List.assoc_opt name f.seen with
    | Some p ->
        c.pos <- p;
        Some (read c)
    | None ->
        let rec find () =
          if f.closed then None
          else
            match walk f with
            | None -> None
            | Some k ->
                let p = c.pos in
                if k = name then begin
                  let v = read c in
                  f.next <- c.pos;
                  record f k p;
                  Some v
                end
                else begin
                  skip c;
                  f.next <- c.pos;
                  record f k p;
                  find ()
                end
        in
        find ()

  let field f name read =
    match field_opt f name read with
    | Some v -> v
    | None -> fail f.cur (Printf.sprintf "missing field %S" name)

  let close f =
    while not f.closed do
      match walk f with
      | None -> ()
      | Some _ ->
          skip f.cur;
          f.next <- f.cur.pos
    done;
    f.cur.pos <- f.next

  let obj read c =
    let f = fields c in
    let v = read f in
    close f;
    v

  let parse read s =
    let c = { s; pos = 0; acc = 0 } in
    match
      let v = read c in
      skip_ws c;
      if c.pos <> String.length s then fail c "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error (at, msg) ->
        Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)
end

let of_string s = Cursor.parse Cursor.value s

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let of_ints a = List (Array.to_list (Array.map (fun i -> Int i) a))

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (pretty v);
      output_char oc '\n')

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string (String.trim contents)
  | exception Sys_error e -> Error e
