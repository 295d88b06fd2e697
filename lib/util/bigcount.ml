type t = Exact of int | Huge of float

let zero = Exact 0

let one = Exact 1

let of_int n =
  if n < 0 then invalid_arg "Bigcount.of_int: negative";
  Exact n

let log2f x = log x /. log 2.

let log2 = function
  | Exact 0 -> neg_infinity
  | Exact n -> log2f (float_of_int n)
  | Huge l -> l

(* log2(2^a + 2^b) without leaving log space: a + log2(1 + 2^(b-a)). *)
let log_add a b =
  let hi = Float.max a b and lo = Float.min a b in
  if lo = neg_infinity then hi else hi +. log2f (1. +. Float.exp2 (lo -. hi))

let add a b =
  match (a, b) with
  | Exact x, Exact y ->
      let s = x + y in
      if s >= 0 then Exact s else Huge (log_add (log2 a) (log2 b))
  | _ -> Huge (log_add (log2 a) (log2 b))

let mul a b =
  match (a, b) with
  | Exact 0, _ | _, Exact 0 -> Exact 0
  | Exact x, Exact y ->
      if x <= max_int / y then Exact (x * y)
      else Huge (log2 a +. log2 b)
  | _ -> Huge (log2 a +. log2 b)

let pow2 n =
  if n < 0 then invalid_arg "Bigcount.pow2: negative";
  if n < 62 then Exact (1 lsl n) else Huge (float_of_int n)

let pow ~base ~exp =
  if base < 1 then invalid_arg "Bigcount.pow: base < 1";
  if exp < 0 then invalid_arg "Bigcount.pow: negative exponent";
  let rec go acc i = if i = exp then acc else go (mul acc (Exact base)) (i + 1) in
  go one 0

let sum = List.fold_left add zero

let is_zero = function Exact 0 -> true | Exact _ | Huge _ -> false

let ratio a b =
  if is_zero b then 0.
  else
    match (a, b) with
    | Exact x, Exact y -> float_of_int x /. float_of_int y
    | _ -> if is_zero a then 0. else Float.exp2 (log2 a -. log2 b)

let equal a b =
  match (a, b) with
  | Exact x, Exact y -> x = y
  | Huge x, Huge y -> x = y
  | Exact _, Huge _ | Huge _, Exact _ -> false

let compare a b =
  match (a, b) with
  | Exact x, Exact y -> Int.compare x y
  | _ -> Float.compare (log2 a) (log2 b)

let to_string = function
  | Exact n -> string_of_int n
  | Huge l -> Printf.sprintf "~2^%.2f" l

let to_json = function
  | Exact n -> Json.Int n
  | Huge l -> Json.Obj [ ("huge_log2", Json.Float l) ]

let read c =
  let fail = Json.Cursor.fail c in
  match Json.Cursor.value c with
  | Json.Int n when n >= 0 -> Exact n
  | Json.Int _ -> fail "negative count"
  | Json.Obj kvs -> (
      match List.assoc_opt "huge_log2" kvs with
      | Some (Json.Float l) -> Huge l
      | Some (Json.Int l) -> Huge (float_of_int l)
      | _ -> fail "malformed huge count")
  | _ -> fail "malformed count"
