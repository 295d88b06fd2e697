type domain = Range of int * int | Enum of string list

type cmp = Lt | Le | Eq | Ge | Gt | Ne

type expr =
  | Int of int
  | Sym of string
  | Var of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Neg of expr
  | Cmp of cmp * expr * expr
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Case of (expr * expr) list
  | Set of expr list

type program = {
  state_vars : (string * domain) list;
  input_vars : (string * domain) list;
  defines : (string * expr) list;
  init : (string * expr) list;
  next : (string * expr) list;
  invarspecs : (string * expr) list;
}

type value = VInt of int | VBool of bool | VSym of string

let value_equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VBool x, VBool y -> x = y
  | VSym x, VSym y -> String.equal x y
  | (VInt _ | VBool _ | VSym _), _ -> false

let domain_values = function
  | Range (lo, hi) ->
      if lo > hi then invalid_arg "Ast.domain_values: empty range";
      List.init (hi - lo + 1) (fun i -> VInt (lo + i))
  | Enum syms ->
      if syms = [] then invalid_arg "Ast.domain_values: empty enum";
      List.map (fun s -> VSym s) syms

let domain_size d = List.length (domain_values d)

let rec expr_names acc = function
  | Int _ | Sym _ -> acc
  | Var n -> n :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b)
    -> expr_names (expr_names acc a) b
  | Neg a | Not a -> expr_names acc a
  | Case arms ->
      List.fold_left (fun acc (c, v) -> expr_names (expr_names acc c) v) acc arms
  | Set es -> List.fold_left expr_names acc es

let validate p =
  let ( let* ) r f = Result.bind r f in
  let names section pairs = List.map fst pairs |> List.map (fun n -> (section, n)) in
  let all_decls =
    names "VAR" p.state_vars @ names "IVAR" p.input_vars @ names "DEFINE" p.defines
  in
  let declared = List.map snd all_decls in
  let* () =
    let rec dup = function
      | [] -> Ok ()
      | (section, n) :: rest ->
          if List.exists (fun (_, m) -> String.equal n m) rest then
            Error (Printf.sprintf "duplicate declaration of %s (%s)" n section)
          else dup rest
    in
    dup all_decls
  in
  let* () =
    let check_domain (n, d) =
      match d with
      | Range (lo, hi) when lo > hi -> Error (Printf.sprintf "empty range for %s" n)
      | Enum [] -> Error (Printf.sprintf "empty enum for %s" n)
      | Range _ | Enum _ -> Ok ()
    in
    List.fold_left
      (fun acc vd -> Result.bind acc (fun () -> check_domain vd))
      (Ok ())
      (p.state_vars @ p.input_vars)
  in
  let state_names = List.map fst p.state_vars in
  let* () =
    let check_target section (n, _) =
      if List.mem n state_names then Ok ()
      else Error (Printf.sprintf "%s of %s: not a state variable" section n)
    in
    List.fold_left
      (fun acc a -> Result.bind acc (fun () -> check_target "init" a))
      (Ok ()) p.init
    |> fun r ->
    List.fold_left
      (fun acc a -> Result.bind acc (fun () -> check_target "next" a))
      r p.next
  in
  (* Defines must only reference earlier defines or variables. *)
  let* () =
    let rec check_defines seen = function
      | [] -> Ok ()
      | (n, e) :: rest ->
          let refs = expr_names [] e in
          let bad =
            List.find_opt
              (fun r ->
                (not (List.mem r seen))
                && not (List.mem r (List.map fst p.state_vars @ List.map fst p.input_vars)))
              refs
          in
          (match bad with
          | Some r -> Error (Printf.sprintf "DEFINE %s references unknown %s" n r)
          | None -> check_defines (n :: seen) rest)
    in
    check_defines [] p.defines
  in
  (* All referenced names in init/next/specs must be declared. *)
  let check_refs section e =
    let refs = expr_names [] e in
    match List.find_opt (fun r -> not (List.mem r declared)) refs with
    | Some r -> Error (Printf.sprintf "%s references unknown %s" section r)
    | None -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (n, e) ->
        Result.bind acc (fun () -> check_refs (Printf.sprintf "init(%s)" n) e))
      (Ok ()) p.init
  in
  let* () =
    List.fold_left
      (fun acc (n, e) ->
        Result.bind acc (fun () -> check_refs (Printf.sprintf "next(%s)" n) e))
      (Ok ()) p.next
  in
  List.fold_left
    (fun acc (n, e) ->
      Result.bind acc (fun () -> check_refs (Printf.sprintf "INVARSPEC %s" n) e))
    (Ok ()) p.invarspecs
