(** Abstract syntax for the SMV subset FANNet targets.

    Mirrors the nuXmv input language fragment used by the paper's
    methodology: finite-domain state variables ([VAR]), nondeterministic
    input variables ([IVAR]), [DEFINE]s, [ASSIGN] init/next equations with
    set-valued nondeterministic choice, and [INVARSPEC] properties.
    {!Printer} emits real [.smv] text; {!Fsm} gives the subset an
    executable semantics. *)

type domain =
  | Range of int * int      (** integer range lo..hi, inclusive *)
  | Enum of string list     (** symbolic enumeration *)

type cmp = Lt | Le | Eq | Ge | Gt | Ne

type expr =
  | Int of int
  | Sym of string           (** enum literal *)
  | Var of string           (** state var, input var or DEFINE name *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Neg of expr
  | Cmp of cmp * expr * expr
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Case of (expr * expr) list  (** first condition that holds wins *)
  | Set of expr list        (** nondeterministic choice; only as the whole
                                right-hand side of init/next *)

type program = {
  state_vars : (string * domain) list;
  input_vars : (string * domain) list;  (** IVAR: re-chosen every step *)
  defines : (string * expr) list;       (** in dependency order *)
  init : (string * expr) list;          (** init(x) := e *)
  next : (string * expr) list;          (** next(x) := e *)
  invarspecs : (string * expr) list;    (** name, property over state+defines *)
}

type value = VInt of int | VBool of bool | VSym of string

val value_equal : value -> value -> bool
val domain_values : domain -> value list
(** All values of a finite domain, in order. *)

val domain_size : domain -> int

val validate : program -> (unit, string) result
(** Structural checks: distinct names, init/next only on declared state
    variables, defines acyclic (checked by declaration order), domains
    non-empty. *)
