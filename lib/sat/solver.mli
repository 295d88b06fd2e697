(** CDCL SAT solver.

    A MiniSat-style conflict-driven clause-learning solver: two-watched-
    literal propagation, first-UIP conflict analysis, VSIDS decision
    heuristic with phase saving, Luby restarts and activity-based learnt-
    clause deletion. All clauses live in one [int] arena, named by their
    offsets; deleted learnt clauses are reclaimed by compacting it, which
    leaves the search unchanged. The search is deterministic: the same
    clauses and calls give the same decisions, learnt clauses and proof
    events. It is the decision procedure underneath the bit-blasted
    model-checking queries (nuXmv's SAT engine in the paper).

    Typical use is incremental: allocate variables, add clauses, [solve],
    read the model, add blocking clauses, [solve] again. *)

type t

type result = Sat | Unsat | Unknown

val create : unit -> t

val new_var : t -> int
(** Fresh variable index (0-based). *)

val nvars : t -> int
val nclauses : t -> int
(** Problem clauses currently alive (excludes learnt clauses). *)

val add_clause : t -> Lit.t list -> unit
(** Add a clause over existing variables. Performs level-0 simplification:
    duplicate literals are merged, tautologies dropped, false literals
    removed. Adding the empty clause (or a unit contradicting a previous
    level-0 implication) makes the instance permanently unsatisfiable. *)

val set_priority : t -> int list -> unit
(** Variables to branch on before the VSIDS heap, in the given order. For
    circuit-shaped CNF (bit-blasted formulas) deciding the circuit inputs
    first lets unit propagation evaluate the whole circuit, which speeds
    up exhaustive (UNSAT) proofs dramatically. Replaces any previous
    priority list. *)

type proof_step =
  | P_input of Lit.t list
      (** An original problem clause, exactly as passed to [add_clause]
          (before level-0 simplification). *)
  | P_learn of Lit.t list
      (** A clause derivable from the current database by reverse unit
          propagation: every learnt clause, plus [P_learn []] when the
          database itself becomes contradictory at level 0. *)
  | P_delete of Lit.t list  (** A learnt clause dropped by [reduce_db]. *)
  | P_empty of Lit.t list
      (** One per [Unsat] answer of [solve], carrying the assumptions the
          refutation was derived under ([[]] for an unconditional one).
          Marks a point in the event stream where the logged clauses plus
          those assumption units propagate to the empty clause. *)

val set_proof_sink : t -> (proof_step -> unit) option -> unit
(** Attach (or detach) a DRUP proof sink. The sink observes every input
    clause, learnt clause, learnt-clause deletion and [Unsat] conclusion,
    in order, which is enough for an independent checker to re-derive each
    [Unsat] answer by reverse unit propagation (see {!Cert.Rup}). When no
    sink is attached the per-event cost is one field load and branch. *)

val set_max_learnts : t -> int -> unit
(** Override the learnt-clause limit that triggers [reduce_db] (normally
    managed internally, starting at 3000 and growing geometrically). A
    small limit forces frequent deletions — useful to exercise proof
    logging under clause deletion. Raises [Invalid_argument] if [n < 1]. *)

val solve :
  ?assumptions:Lit.t list -> ?max_conflicts:int -> ?budget:Resil.Budget.t ->
  t -> result
(** Searches for a model extending the assumptions. [Unknown] is returned
    only when [max_conflicts] is set and exhausted, or when [budget] runs
    out — the budget's deadline, memory watermark and cancellation token
    are polled cooperatively every 64 conflicts (its conflict cap
    composes with [max_conflicts]; the tighter wins), and an
    [Out_of_memory] raised mid-search is caught and reported the same
    way. The solver remains usable after any outcome — including a
    cancelled or exhausted one (the trail is rewound to level 0); after
    [Unsat] under assumptions it can still be satisfiable under others.
    See {!last_interrupt} for why an [Unknown] stopped. *)

val last_interrupt : t -> Resil.Budget.reason option
(** Why the most recent {!solve} returned [Unknown] ([Conflicts] for a
    plain [max_conflicts] exhaustion); [None] after [Sat]/[Unsat].
    Reset at every [solve] entry. *)

val value : t -> Lit.t -> bool
(** Value of a literal in the last model. Only meaningful after [solve]
    returned [Sat]; unassigned variables read as [false]. *)

val model : t -> bool array
(** Per-variable values of the last model (length [nvars]). *)

val okay : t -> bool
(** [false] once the clause set is unsatisfiable at level 0. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
}

val stats : t -> stats
