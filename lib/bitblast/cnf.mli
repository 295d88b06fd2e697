(** Tseitin circuit-to-CNF builder over a CDCL solver.

    Every gate returns a literal equivalent to the gate's output and adds
    the defining clauses to the underlying solver. Gates fold constants:
    feeding {!btrue}/{!bfalse} (or a literal and its negation) produces no
    clauses. *)

type t

val create : ?sink:(Sat.Solver.proof_step -> unit) -> unit -> t
(** [?sink] is installed as the underlying solver's DRUP proof sink
    before any clause is added, so the sink observes the full CNF. *)

val solver : t -> Sat.Solver.t

val fresh : t -> Sat.Lit.t
(** A fresh positive literal. *)

val btrue : t -> Sat.Lit.t
(** A literal asserted true (one shared variable). *)

val bfalse : t -> Sat.Lit.t

val of_bool : t -> bool -> Sat.Lit.t

val assert_lit : t -> Sat.Lit.t -> unit
(** Add the unit clause [l]. *)

val add_clause : t -> Sat.Lit.t list -> unit

val g_not : Sat.Lit.t -> Sat.Lit.t
val g_and : t -> Sat.Lit.t -> Sat.Lit.t -> Sat.Lit.t
val g_or : t -> Sat.Lit.t -> Sat.Lit.t -> Sat.Lit.t
val g_xor : t -> Sat.Lit.t -> Sat.Lit.t -> Sat.Lit.t
val g_iff : t -> Sat.Lit.t -> Sat.Lit.t -> Sat.Lit.t
val g_implies : t -> Sat.Lit.t -> Sat.Lit.t -> Sat.Lit.t

val g_mux : t -> sel:Sat.Lit.t -> if_true:Sat.Lit.t -> if_false:Sat.Lit.t -> Sat.Lit.t
(** [sel ? if_true : if_false]. *)

val g_and_list : t -> Sat.Lit.t list -> Sat.Lit.t
val g_or_list : t -> Sat.Lit.t list -> Sat.Lit.t

val g_full_adder : t -> Sat.Lit.t -> Sat.Lit.t -> Sat.Lit.t -> Sat.Lit.t * Sat.Lit.t
(** [(sum, carry_out)] of three input bits. *)

val lit_value : t -> Sat.Lit.t -> bool
(** Value of a literal in the solver's current model (after a Sat
    answer). *)
