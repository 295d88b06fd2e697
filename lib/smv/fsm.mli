(** Explicit-state semantics for the SMV subset.

    Breadth-first reachability over the finite state space, counting
    distinct states and distinct transition edges, and checking INVARSPEC
    properties with counterexample traces. This is the engine behind the
    paper's Fig. 3 state-space-growth experiment and the cross-check
    oracle for the SAT-based analysis; the noise state space grows as
    [(2*delta+1)^nodes], so callers must keep ranges small (the
    [state_limit] guard enforces this). *)

type state = Ast.value array
(** Values of the state variables, in declaration order. *)

type trace = state list
(** From an initial state to the reported state, inclusive. *)

type stats = { n_states : int; n_transitions : int }

type outcome = {
  stats : stats;
  violations : (string * trace) list;
      (** One entry per INVARSPEC that some reachable state violates, with
          a shortest trace to the first violation found. *)
}

type error =
  [ `Invalid of string  (** rejected by {!Ast.validate} *)
  | `Eval of string     (** ill-typed expression or evaluation failure *)
  | `State_limit of int (** more than [state_limit] states reached — a
                            resource bound, not a program error; the
                            payload is the limit that was hit *) ]

val error_to_string : error -> string

val explore : ?state_limit:int -> Ast.program -> (outcome, error) result
(** Full reachability. Fails with [Error] if the program is invalid
    (see {!Ast.validate}), an expression is ill-typed, or more than
    [state_limit] states (default 200_000) are reached — the latter as
    the distinct [`State_limit] case so callers can budget/retry rather
    than treat it as a broken model. *)

val eval_in_state :
  Ast.program -> state -> Ast.expr -> (Ast.value, string) result
(** Evaluate an expression (over state variables and DEFINEs only) in a
    given state. *)
