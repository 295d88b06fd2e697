(** Independent DRUP proof checker.

    Verifies that a CNF formula (plus optional assumption units) is
    unsatisfiable by replaying a DRUP proof: a sequence of clause
    additions, each of which must be derivable by {e reverse unit
    propagation} (RUP) — asserting the negation of every literal in the
    clause and unit-propagating must yield a conflict — interleaved with
    clause deletions. The proof is accepted only if the empty clause
    becomes derivable, i.e. propagation alone reaches a contradiction.

    This module is the trusted core of the certificate subsystem. It is a
    from-scratch forward checker in the style of drat-trim's
    backward-compatible mode and deliberately shares {e no} code with
    {!Sat.Solver}: clauses arrive as plain DIMACS integer lists and live
    in the checker's own flat arena, propagation is an independent
    two-watched-literal loop, and there is no conflict analysis, no
    heuristics, no restarts — under half the solver's code, which is the
    point of the trusted-code-base argument (see DESIGN.md).

    Literals use DIMACS conventions: variables are [1..n_vars], negative
    integers are negated literals, [0] never appears inside a clause. *)

type step =
  | Learn of int list
      (** Clause claimed derivable by RUP from the live database. [Learn []]
          claims the database is already contradictory. *)
  | Delete of int list  (** Remove one copy of this clause (order-insensitive). *)

val check_unsat :
  n_vars:int ->
  cnf:int list list ->
  assumptions:int list ->
  proof:step list ->
  (unit, string) result
(** [check_unsat ~n_vars ~cnf ~assumptions ~proof] verifies that
    [cnf ∧ assumptions ⊢ ⊥]: every [Learn] step must pass the RUP check
    against the clauses loaded so far (original CNF, assumption units, and
    previously learned clauses, minus deletions), and after the last step
    unit propagation must have derived a contradiction. Returns
    [Error reason] on the first failing step, a malformed literal, or a
    proof that never reaches the empty clause. Never raises: memory is
    sized by the literals present, not by the declared [n_vars].

    Deletion of a clause currently forcing a unit (at most one non-false
    literal) is skipped rather than performed, mirroring how solvers never
    delete reason clauses; this keeps the checker's database a subset of
    the solver's, so sound proofs still verify. *)

val model_check :
  n_vars:int ->
  cnf:int list list ->
  assumptions:int list ->
  model:bool array ->
  (unit, string) result
(** [model_check ~n_vars ~cnf ~assumptions ~model] verifies a SAT answer:
    [model] (length ≥ [n_vars], index [v-1] holds variable [v]'s value)
    must satisfy every clause of [cnf] and every assumption literal. *)
