(** Bounded-integer terms and formulas.

    The quantifier-free fragment needed to encode one forward pass of an
    integer ReLU network under symbolic input noise: linear arithmetic
    with constant coefficients over interval-bounded variables, plus
    [Relu], [Max] and [Ite]. Every variable carries inclusive bounds; the
    solver is complete over those finite ranges.

    Terms carry unique ids so the compiler and the interval analysis can
    memoise shared sub-DAGs. Smart constructors perform constant folding
    but no deeper rewriting. *)

type var = private { vid : int; name : string; lo : int; hi : int }

type term = private { id : int; node : node }

and node =
  | Const of int
  | Var of var
  | Add of term * term
  | Sub of term * term
  | Mulc of int * term  (** constant * term *)
  | Neg of term
  | Relu of term
  | Sign of term  (** +1 when the argument is >= 0, -1 otherwise *)
  | Max of term * term
  | Ite of formula * term * term

and formula = private { fid : int; fnode : fnode }

and fnode =
  | True
  | False
  | Le of term * term
  | Lt of term * term
  | Eq of term * term
  | Not of formula
  | And of formula list
  | Or of formula list

val var : name:string -> lo:int -> hi:int -> var
(** Fresh variable with inclusive bounds; requires [lo <= hi]. *)

val const : int -> term
val of_var : var -> term
val add : term -> term -> term
val sub : term -> term -> term
val mulc : int -> term -> term
val neg : term -> term
val relu : term -> term
val sign_ : term -> term
(** [sign_ t] is +1 when [t >= 0], -1 otherwise — the binarized-network
    activation. Compiles to a single comparator, not an arithmetic chain. *)

val max_ : term -> term -> term
val ite : formula -> term -> term -> term
val sum : term list -> term
(** [sum []] is [const 0]. *)

val tru : formula
val fls : formula
val le : term -> term -> formula
val lt : term -> term -> formula
val eq : term -> term -> formula
val ge : term -> term -> formula
val gt : term -> term -> formula
val not_ : formula -> formula
val and_ : formula list -> formula
val or_ : formula list -> formula
val implies : formula -> formula -> formula

type assignment = (var * int) list

val lookup : assignment -> var -> int
(** Raises [Not_found] if the variable is unbound. *)

val eval_term : assignment -> term -> int
(** Exact integer evaluation; raises [Not_found] on unbound variables. *)

val eval_formula : assignment -> formula -> bool

val vars_of_formula : formula -> var list
(** Distinct variables, ordered by creation id. *)

val pp_term : Format.formatter -> term -> unit
val pp_formula : Format.formatter -> formula -> unit
