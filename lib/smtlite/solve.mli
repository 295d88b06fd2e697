(** Satisfiability checking and model enumeration for {!Term} formulas.

    [check] is one-shot. A {!session} keeps the compiled CNF alive so that
    blocking clauses can be added between queries — the mechanism behind
    the paper's adversarial-noise-vector extraction (property P3: re-query
    with the disjunction of already-found noise vectors excluded). *)

type model = Term.assignment

type outcome = Sat of model | Unsat | Unknown of Resil.Budget.reason
(** [Unknown] carries why the solver stopped: [Conflicts] for a plain
    [max_conflicts] exhaustion, otherwise the budget cap that fired
    (deadline / memory / cancelled). *)

val check :
  ?max_conflicts:int -> ?budget:Resil.Budget.t -> Term.formula -> outcome
(** The returned model binds every variable occurring in the formula and
    satisfies it (guaranteed by construction; re-checkable with
    {!Term.eval_formula}). *)

type session

val open_session : ?trace:Cert.Proof.trace -> Term.formula -> session
(** [?trace] attaches a DRUP proof trace to the session's solver before
    anything is compiled; {!solve_certified} then snapshots certificates
    from it. Without a trace, proof logging is off (and free). *)

val assert_also : session -> Term.formula -> unit
(** Conjoin another formula. *)

val declare : session -> Term.var list -> unit
(** Make variables part of the session (with their range constraints)
    even if no asserted formula mentions them, so that models bind them
    and {!block} may project onto them. Must be called before the solve
    whose model will be blocked. *)

type assumption
(** A compiled formula that can be enabled per-{!solve} call without being
    permanently asserted. *)

val assume : session -> Term.formula -> assumption
(** Compile a formula into an assumable literal: its CNF definition is
    added to the session, but the formula only constrains a {!solve} call
    that passes the returned assumption. This is the mechanism behind the
    incremental tolerance search — the noise bound of each binary-search
    probe becomes a range assumption over one warm session instead of a
    fresh Tseitin encoding per probe. *)

val solve :
  ?assumptions:assumption list -> ?max_conflicts:int ->
  ?budget:Resil.Budget.t -> session -> outcome
(** Satisfiability of the asserted formulas conjoined with the given
    assumptions. The session stays usable after any outcome: an [Unsat]
    under assumptions does not poison later calls with different ones,
    and a budget-exhausted or cancelled query leaves the session ready
    for the next [solve]. *)

val solve_certified :
  ?assumptions:assumption list ->
  ?max_conflicts:int ->
  ?budget:Resil.Budget.t ->
  session ->
  outcome * Cert.Verdict.t option
(** Like {!solve}, additionally returning an independently checkable
    certificate when the session has a proof trace: a [Sat] answer yields
    a {!Cert.Verdict.Model} (the bit-level model against the full CNF), an
    [Unsat] answer a {!Cert.Verdict.Refutation} (DRUP proof of
    [CNF ∧ assumptions ⊢ ⊥]). [None] when the session was opened without
    [?trace] or the outcome is [Unknown]. *)

val check_certified :
  ?max_conflicts:int -> Term.formula -> outcome * Cert.Verdict.t option
(** One-shot {!solve_certified} on a fresh session with a fresh trace. *)

val block : session -> Term.var list -> unit
(** After a [Sat] answer, exclude the current values of the given
    variables from future models. *)

val prioritize : session -> Term.var list -> unit
(** Re-point the solver's branching priority at these variables' bits.
    {!open_session} prioritizes the formula's own variables; a counting
    client that [declare]s projection variables afterwards calls this so
    exhaustive sweeps keep deciding circuit inputs first. *)

val fresh_assumption : session -> assumption
(** A fresh unconstrained literal, for use as an activation guard with
    {!block_under}. Assuming it enables the clauses guarded by it; never
    assuming it again retires them. *)

val block_under : session -> guard:assumption -> Term.var list -> unit
(** Like {!block}, but the blocking clause is enabled only by [guard]:
    the clause is [¬guard ∨ blocking]. A bounded enumeration blocks under
    a fresh guard, then drops the guard, leaving the session exactly as
    constrained as before — the repeated-counting primitive of the
    XOR-hash approximate counter. *)

val var_bits : session -> Term.var -> Sat.Lit.t list
(** The variable's compiled bits (LSB first), declaring it (with range
    constraints) on first use. Distinct values map to distinct patterns,
    so random parities over these bits are a pairwise-independent hash of
    the projected model space. *)

val assume_parity : session -> Sat.Lit.t list -> parity:bool -> assumption
(** An assumable literal equivalent to "the listed bits have odd parity"
    ([parity = true]) or even parity ([false]), encoded as a Tseitin XOR
    chain ({!Bitblast.Cnf.g_xor_list}). The empty list has even parity:
    [assume_parity s [] ~parity:false] is the true assumption, and with
    [~parity:true] the false one. *)

val enumerate :
  ?limit:int ->
  ?max_conflicts:int ->
  ?budget:Resil.Budget.t ->
  Term.formula ->
  project:Term.var list ->
  model list * [ `Complete | `Truncated | `Budget of Resil.Budget.reason ]
(** All models of the formula projected onto [project] (each listed once).
    [`Complete] means the enumeration provably exhausted the projected
    models; [`Truncated] means [limit] stopped it; [`Budget] means a
    per-call conflict cap or the budget ran out mid-enumeration (the
    models found so far are still returned). [project] must be
    non-empty. *)

val stats : session -> Sat.Solver.stats
