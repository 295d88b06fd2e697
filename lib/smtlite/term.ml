type var = { vid : int; name : string; lo : int; hi : int }

type term = { id : int; node : node }

and node =
  | Const of int
  | Var of var
  | Add of term * term
  | Sub of term * term
  | Mulc of int * term
  | Neg of term
  | Relu of term
  | Sign of term
  | Max of term * term
  | Ite of formula * term * term

and formula = { fid : int; fnode : fnode }

and fnode =
  | True
  | False
  | Le of term * term
  | Lt of term * term
  | Eq of term * term
  | Not of formula
  | And of formula list
  | Or of formula list

(* Atomic so that parallel verification workers can build encodings
   concurrently: ids must stay unique across domains. *)
let var_counter = Atomic.make 0

let term_counter = Atomic.make 0

let formula_counter = Atomic.make 0

let var ~name ~lo ~hi =
  if lo > hi then invalid_arg "Term.var: lo > hi";
  { vid = 1 + Atomic.fetch_and_add var_counter 1; name; lo; hi }

let mk node = { id = 1 + Atomic.fetch_and_add term_counter 1; node }

let mkf fnode = { fid = 1 + Atomic.fetch_and_add formula_counter 1; fnode }

let const v = mk (Const v)

let of_var v = mk (Var v)

let add a b =
  match (a.node, b.node) with
  | Const x, Const y -> const (x + y)
  | Const 0, _ -> b
  | _, Const 0 -> a
  | _ -> mk (Add (a, b))

let sub a b =
  match (a.node, b.node) with
  | Const x, Const y -> const (x - y)
  | _, Const 0 -> a
  | _ -> mk (Sub (a, b))

let neg a = match a.node with Const x -> const (-x) | _ -> mk (Neg a)

let mulc c a =
  match (c, a.node) with
  | 0, _ -> const 0
  | 1, _ -> a
  | -1, _ -> neg a
  | c, Const x -> const (c * x)
  | _ -> mk (Mulc (c, a))

let relu a =
  match a.node with Const x -> const (max 0 x) | _ -> mk (Relu a)

let sign_ a =
  match a.node with
  | Const x -> const (if x >= 0 then 1 else -1)
  | _ -> mk (Sign a)

let max_ a b =
  match (a.node, b.node) with
  | Const x, Const y -> const (max x y)
  | _ -> mk (Max (a, b))

let tru = mkf True

let fls = mkf False

let ite c a b =
  match c.fnode with True -> a | False -> b | _ -> mk (Ite (c, a, b))

let sum = function
  | [] -> const 0
  | t :: ts -> List.fold_left add t ts

let le a b =
  match (a.node, b.node) with
  | Const x, Const y -> if x <= y then tru else fls
  | _ -> mkf (Le (a, b))

let lt a b =
  match (a.node, b.node) with
  | Const x, Const y -> if x < y then tru else fls
  | _ -> mkf (Lt (a, b))

let eq a b =
  match (a.node, b.node) with
  | Const x, Const y -> if x = y then tru else fls
  | _ -> mkf (Eq (a, b))

let ge a b = le b a

let gt a b = lt b a

let not_ f =
  match f.fnode with
  | True -> fls
  | False -> tru
  | Not g -> g
  | Le _ | Lt _ | Eq _ | And _ | Or _ -> mkf (Not f)

let and_ fs =
  let fs = List.filter (fun f -> f.fnode <> True) fs in
  if List.exists (fun f -> f.fnode = False) fs then fls
  else match fs with [] -> tru | [ f ] -> f | _ -> mkf (And fs)

let or_ fs =
  let fs = List.filter (fun f -> f.fnode <> False) fs in
  if List.exists (fun f -> f.fnode = True) fs then tru
  else match fs with [] -> fls | [ f ] -> f | _ -> mkf (Or fs)

let implies a b = or_ [ not_ a; b ]

type assignment = (var * int) list

let lookup asg v =
  match List.find_opt (fun (w, _) -> w.vid = v.vid) asg with
  | Some (_, value) -> value
  | None -> raise Not_found

let rec eval_term asg t =
  match t.node with
  | Const v -> v
  | Var v -> lookup asg v
  | Add (a, b) -> eval_term asg a + eval_term asg b
  | Sub (a, b) -> eval_term asg a - eval_term asg b
  | Mulc (c, a) -> c * eval_term asg a
  | Neg a -> -eval_term asg a
  | Relu a -> max 0 (eval_term asg a)
  | Sign a -> if eval_term asg a >= 0 then 1 else -1
  | Max (a, b) -> max (eval_term asg a) (eval_term asg b)
  | Ite (c, a, b) -> if eval_formula asg c then eval_term asg a else eval_term asg b

and eval_formula asg f =
  match f.fnode with
  | True -> true
  | False -> false
  | Le (a, b) -> eval_term asg a <= eval_term asg b
  | Lt (a, b) -> eval_term asg a < eval_term asg b
  | Eq (a, b) -> eval_term asg a = eval_term asg b
  | Not g -> not (eval_formula asg g)
  | And fs -> List.for_all (eval_formula asg) fs
  | Or fs -> List.exists (eval_formula asg) fs

let vars_of_formula f =
  let module M = Map.Make (Int) in
  let rec go_t acc (t : term) =
    match t.node with
    | Const _ -> acc
    | Var v -> M.add v.vid v acc
    | Add (a, b) | Sub (a, b) | Max (a, b) -> go_t (go_t acc a) b
    | Mulc (_, a) | Neg a | Relu a | Sign a -> go_t acc a
    | Ite (c, a, b) -> go_t (go_t (go_f acc c) a) b
  and go_f acc (f : formula) =
    match f.fnode with
    | True | False -> acc
    | Le (a, b) | Lt (a, b) | Eq (a, b) -> go_t (go_t acc a) b
    | Not g -> go_f acc g
    | And fs | Or fs -> List.fold_left go_f acc fs
  in
  List.map snd (M.bindings (go_f M.empty f))

let rec pp_term fmt t =
  match t.node with
  | Const v -> Format.fprintf fmt "%d" v
  | Var v -> Format.fprintf fmt "%s" v.name
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp_term a pp_term b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_term a pp_term b
  | Mulc (c, a) -> Format.fprintf fmt "(%d * %a)" c pp_term a
  | Neg a -> Format.fprintf fmt "(- %a)" pp_term a
  | Relu a -> Format.fprintf fmt "relu(%a)" pp_term a
  | Sign a -> Format.fprintf fmt "sign(%a)" pp_term a
  | Max (a, b) -> Format.fprintf fmt "max(%a, %a)" pp_term a pp_term b
  | Ite (c, a, b) ->
      Format.fprintf fmt "(if %a then %a else %a)" pp_formula c pp_term a pp_term b

and pp_formula fmt f =
  match f.fnode with
  | True -> Format.fprintf fmt "true"
  | False -> Format.fprintf fmt "false"
  | Le (a, b) -> Format.fprintf fmt "(%a <= %a)" pp_term a pp_term b
  | Lt (a, b) -> Format.fprintf fmt "(%a < %a)" pp_term a pp_term b
  | Eq (a, b) -> Format.fprintf fmt "(%a = %a)" pp_term a pp_term b
  | Not g -> Format.fprintf fmt "!(%a)" pp_formula g
  | And fs ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " & ")
           pp_formula)
        fs
  | Or fs ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " | ")
           pp_formula)
        fs
