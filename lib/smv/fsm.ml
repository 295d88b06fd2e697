type state = Ast.value array

type trace = state list

type stats = { n_states : int; n_transitions : int }

type outcome = {
  stats : stats;
  violations : (string * trace) list;
}

exception Eval_error of string

(* Evaluation environment: state variables by index, optional input
   valuation, and lazily computed DEFINEs. *)
type env = {
  prog : Ast.program;
  state_index : (string * int) list;
  input_index : (string * int) list;
  state : state;
  inputs : Ast.value array;
  define_cache : (string, Ast.value) Hashtbl.t;
}

let make_indices prog =
  let index pairs = List.mapi (fun i (n, _) -> (n, i)) pairs in
  (index prog.Ast.state_vars, index prog.Ast.input_vars)

let make_env prog (state_index, input_index) state inputs =
  { prog; state_index; input_index; state; inputs; define_cache = Hashtbl.create 16 }

let as_int = function
  | Ast.VInt v -> v
  | Ast.VBool _ | Ast.VSym _ -> raise (Eval_error "integer expected")

let as_bool = function
  | Ast.VBool b -> b
  | Ast.VInt _ | Ast.VSym _ -> raise (Eval_error "boolean expected")

let rec eval env (e : Ast.expr) : Ast.value =
  match e with
  | Ast.Int v -> Ast.VInt v
  | Ast.Sym "TRUE" -> Ast.VBool true
  | Ast.Sym "FALSE" -> Ast.VBool false
  | Ast.Sym s -> Ast.VSym s
  | Ast.Var n -> lookup env n
  | Ast.Add (a, b) -> Ast.VInt (as_int (eval env a) + as_int (eval env b))
  | Ast.Sub (a, b) -> Ast.VInt (as_int (eval env a) - as_int (eval env b))
  | Ast.Mul (a, b) -> Ast.VInt (as_int (eval env a) * as_int (eval env b))
  | Ast.Neg a -> Ast.VInt (-as_int (eval env a))
  | Ast.Cmp (c, a, b) -> Ast.VBool (eval_cmp env c a b)
  | Ast.Not a -> Ast.VBool (not (as_bool (eval env a)))
  | Ast.And (a, b) -> Ast.VBool (as_bool (eval env a) && as_bool (eval env b))
  | Ast.Or (a, b) -> Ast.VBool (as_bool (eval env a) || as_bool (eval env b))
  | Ast.Case arms -> eval_case env arms
  | Ast.Set _ -> raise (Eval_error "set expression outside init/next")

and eval_cmp env c a b =
  let va = eval env a and vb = eval env b in
  match c with
  | Ast.Eq -> Ast.value_equal va vb
  | Ast.Ne -> not (Ast.value_equal va vb)
  | Ast.Lt -> as_int va < as_int vb
  | Ast.Le -> as_int va <= as_int vb
  | Ast.Ge -> as_int va >= as_int vb
  | Ast.Gt -> as_int va > as_int vb

and eval_case env = function
  | [] -> raise (Eval_error "no case arm matched")
  | (cond, value) :: rest ->
      if as_bool (eval env cond) then eval env value else eval_case env rest

and lookup env n =
  match List.assoc_opt n env.state_index with
  | Some i -> env.state.(i)
  | None -> (
      match List.assoc_opt n env.input_index with
      | Some i ->
          if i >= Array.length env.inputs then
            raise (Eval_error (n ^ ": input variable not in scope"))
          else env.inputs.(i)
      | None -> (
          match Hashtbl.find_opt env.define_cache n with
          | Some v -> v
          | None -> (
              match List.assoc_opt n env.prog.Ast.defines with
              | Some body ->
                  let v = eval env body in
                  Hashtbl.add env.define_cache n v;
                  v
              | None -> raise (Eval_error ("unknown identifier " ^ n)))))

(* Choices for one assignment right-hand side: a Set yields each member
   (each must be a constant); anything else evaluates deterministically. *)
let assignment_choices env = function
  | Ast.Set members -> List.map (eval env) members
  | e -> [ eval env e ]

let cartesian (lists : 'a list list) : 'a list list =
  List.fold_right
    (fun options acc ->
      List.concat_map (fun o -> List.map (fun rest -> o :: rest) acc) options)
    lists [ [] ]

let check_domain_value name domain v =
  let ok =
    match (domain, v) with
    | Ast.Range (lo, hi), Ast.VInt x -> lo <= x && x <= hi
    | Ast.Enum syms, Ast.VSym s -> List.mem s syms
    | Ast.Enum syms, Ast.VBool b ->
        List.mem (if b then "TRUE" else "FALSE") syms
    | (Ast.Range _ | Ast.Enum _), _ -> false
  in
  if not ok then
    raise (Eval_error (Printf.sprintf "value out of domain for %s" name))

let initial_states prog indices =
  (* init(x) must be a constant or a Set of constants; variables without an
     init equation range over their whole domain. *)
  let dummy_env = make_env prog indices [||] [||] in
  let per_var (name, domain) =
    match List.assoc_opt name prog.Ast.init with
    | None -> Ast.domain_values domain
    | Some e ->
        let choices = assignment_choices dummy_env e in
        List.iter (check_domain_value name domain) choices;
        choices
  in
  cartesian (List.map per_var prog.Ast.state_vars)
  |> List.map Array.of_list

let successors prog indices state =
  (* All next states over every input valuation and every Set choice. *)
  let input_valuations =
    cartesian (List.map (fun (_, d) -> Ast.domain_values d) prog.Ast.input_vars)
    |> List.map Array.of_list
  in
  let next_for inputs =
    let env = make_env prog indices state inputs in
    let per_var (name, domain) =
      match List.assoc_opt name prog.Ast.next with
      | None -> [ env.state.(List.assoc name (fst indices)) ] (* frozen *)
      | Some e ->
          let choices = assignment_choices env e in
          List.iter (check_domain_value name domain) choices;
          choices
    in
    cartesian (List.map per_var prog.Ast.state_vars) |> List.map Array.of_list
  in
  List.concat_map next_for input_valuations

let eval_in_state prog state e =
  let indices = make_indices prog in
  let env = make_env prog indices state [||] in
  match eval env e with
  | v -> Ok v
  | exception Eval_error msg -> Error msg

type error =
  [ `Invalid of string | `Eval of string | `State_limit of int ]

let error_to_string = function
  | `Invalid msg -> "invalid program: " ^ msg
  | `Eval msg -> msg
  | `State_limit n -> Printf.sprintf "state limit exceeded (%d states)" n

exception State_limit_exceeded

let explore ?(state_limit = 200_000) prog =
  match Ast.validate prog with
  | Error msg -> Error (`Invalid msg)
  | Ok () -> (
      let indices = make_indices prog in
      try
        let seen : (state, unit) Hashtbl.t = Hashtbl.create 1024 in
        let parent : (state, state option) Hashtbl.t = Hashtbl.create 1024 in
        let edges : (state * state, unit) Hashtbl.t = Hashtbl.create 4096 in
        let queue = Queue.create () in
        let push parent_state s =
          if not (Hashtbl.mem seen s) then begin
            if Hashtbl.length seen >= state_limit then
              raise State_limit_exceeded;
            Hashtbl.add seen s ();
            Hashtbl.add parent s parent_state;
            Queue.add s queue
          end
        in
        List.iter (push None) (initial_states prog indices);
        while not (Queue.is_empty queue) do
          let s = Queue.pop queue in
          let succs = successors prog indices s in
          List.iter
            (fun s' ->
              if not (Hashtbl.mem edges (s, s')) then Hashtbl.add edges (s, s') ();
              push (Some s) s')
            succs
        done;
        (* Invariant checking over all reached states. *)
        let trace_to s =
          let rec build acc s =
            match Hashtbl.find parent s with
            | None -> s :: acc
            | Some p -> build (s :: acc) p
          in
          build [] s
        in
        let violations =
          List.filter_map
            (fun (name, spec) ->
              let violating =
                Hashtbl.fold
                  (fun s () acc ->
                    match acc with
                    | Some _ -> acc
                    | None ->
                        let env = make_env prog indices s [||] in
                        if as_bool (eval env spec) then None else Some s)
                  seen None
              in
              Option.map (fun s -> (name, trace_to s)) violating)
            prog.Ast.invarspecs
        in
        Ok
          {
            stats =
              { n_states = Hashtbl.length seen; n_transitions = Hashtbl.length edges };
            violations;
          }
      with
      | State_limit_exceeded -> Error (`State_limit state_limit)
      | Eval_error msg -> Error (`Eval msg)
      | Invalid_argument msg -> Error (`Eval msg))
