(** Certified exact #SAT over a finite projection, by cube
    decomposition.

    DPLL-style counting on the CDCL core: the constrained space starts
    as one cube and a worklist refines it — a cube whose conjunction
    with the formula is UNSAT contributes zero, a cube the formula
    covers entirely (its conjunction with the negation is UNSAT)
    contributes its whole cardinality, a small mixed cube is counted by
    blocking-clause enumeration, and a large mixed cube is bisected on
    its widest dimension. Projection variables the formula never
    mentions are factored out as a multiplier (see {!Space}), which also
    keeps counts exact-or-[Huge] rather than wrapped.

    This is the certified counting engine; a plain flip count over the noise
    box is one branch-and-bound walk of the core library
    ([Bnb.count_flips_from]) instead. Every cube is decided once, on its
    own proof-traced session for [formula ∧ cube]: an UNSAT answer is the
    cube's refutation, and a small satisfiable cube is enumerated on that
    same session, ending in its completion refutation. Only a large
    satisfiable cube asks a warm session whether [¬formula ∧ cube] is
    UNSAT; if so, a traced refutation of it proves the cube full. The warm
    session, and the compiled negation, are built only when first needed,
    so a zero-flip count whose root is UNSAT costs one encoding and one
    traced solve — the work of a certified decision. A decided count
    carries a {!Certificate.t} ([fannet-count-cert/1]) that
    {!Certificate.check} re-validates independently.

    Budgets are polled per cube and threaded into every solve; on
    exhaustion the decided mass so far is returned with
    [status = Exhausted] and — when [~checkpoint] is set — the decided
    cubes with their proofs and the pending frontier are persisted
    (format [fannet-ckpt/1], kind ["count"]), so a resumed run continues
    from the frontier instead of recounting. Checkpointing forces
    sequential operation ([jobs] is ignored).

    Every run starts from the root cube alone. A decided root is a
    one-entry certificate. A root that is mixed and larger than
    [enum_limit] is replaced by a fixed-target decomposition (halved into
    up to 16 top cubes); with [jobs > 1] the calling domain decides the
    root and the tops fan out. Cube decisions are semantic — Sat/Unsat
    under disjoint-cube constraints, unaffected by session history — and
    each traced session depends only on (formula, cube), so the decided
    partition, the count, and the certificate bytes are identical across
    [jobs] settings and across checkpoint interrupt/resume boundaries. *)

type status = Decided | Exhausted of Resil.Budget.reason

type result = {
  count : Util.Bigcount.t;  (** decided mass × free factor *)
  total : Util.Bigcount.t;  (** cardinality of the whole projected space *)
  cubes : int;              (** decided cubes *)
  solver_calls : int;
  certificate : Certificate.t option;  (** present iff [status = Decided] *)
  status : status;
}

val count :
  ?budget:Resil.Budget.t ->
  ?enum_limit:int ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?ckpt_key:string ->
  ?ckpt_every:int ->
  Smtlite.Term.formula ->
  project:Smtlite.Term.var list ->
  result
(** Count the assignments of [project] satisfying the formula, with a
    [fannet-count-cert/1] certificate. [enum_limit] (default 64) is the
    largest cube counted by enumeration instead of bisection; [jobs]
    (default 1) counts disjoint subtrees on a {!Util.Parallel} pool;
    [checkpoint] persists progress every [ckpt_every] (default 32) decided
    cubes and when the budget runs out, under identity [ckpt_key] (a
    resume with a different key raises [Invalid_argument], as does a torn
    checkpoint file or one of another kind, such as a plain count's; each
    message names the file). A count that completes removes the file.

    Raises [Invalid_argument] if the formula mentions variables outside
    [project]. *)
