(** Bit-blasting compiler: {!Term} DAGs to CNF via {!Bitblast}.

    Widths come from {!Interval.term_interval} plus one slack bit, so all
    bit-vector arithmetic is exact (no wraparound is reachable). Shared
    sub-terms compile once (memoised by term id). The compiler is
    incremental: formulas can be asserted on top of earlier ones and the
    underlying solver re-queried, which is how counterexample enumeration
    adds blocking constraints (the paper's [P3] loop). *)

type t

val create : ?sink:(Sat.Solver.proof_step -> unit) -> unit -> t
(** [?sink] becomes the underlying solver's DRUP proof sink, installed
    before any clause is generated (see {!Bitblast.Cnf.create}). *)

val solver : t -> Sat.Solver.t

val compile_term : t -> Term.term -> Bitblast.Bv.t
val compile_formula : t -> Term.formula -> Sat.Lit.t

val assert_formula : t -> Term.formula -> unit
(** Compile and add as a unit clause. *)

val var_bv : t -> Term.var -> Bitblast.Bv.t
(** The variable's bit-vector, compiling it (with its range constraints)
    on first use. *)

val var_value : t -> Term.var -> int
(** Decode a variable under the current model (call after Sat). *)

val prioritize : t -> Term.var list -> unit
(** Tell the CDCL solver to branch on these variables' bits before
    anything else. Bit-blasted formulas are circuits: deciding the circuit
    inputs first lets propagation evaluate everything downstream, which is
    essential for fast exhaustive (UNSAT) answers. *)

val block_assignment : t -> Term.var list -> unit
(** Add a clause excluding the current model's values of the given
    variables (at least one must differ). Call after Sat. *)

val n_clauses : t -> int
val n_vars : t -> int
