(** Noise-tolerance analysis (paper §IV-B, Fig. 4 left panel).

    The noise tolerance of the network is the largest symmetric percent
    range ±Δ under which no correctly classified input can be flipped by
    any noise vector (the paper reports ±11 % for its network).

    The per-sample queries are independent, so every per-input loop here
    fans out over a {!Util.Parallel} domain pool ([?jobs], defaulting to
    the process-wide setting). Each query builds its own solver state;
    results are deterministic and identical at every jobs count.

    Every analysis takes an optional {!Resil.Budget} ([?budget],
    unlimited when omitted) that is propagated into each backend query
    and polled by the worker pool. An analysis that cannot decide
    raises {!Resil.Budget.Stopped} with the reason — budget exhaustion,
    cancellation, or a solver out of memory (reported as [Memory] even
    without a budget) — once, on the calling domain, after the pool has
    drained; it never returns a partial answer. *)

type flip = { input_index : int; vector : Noise.vector; predicted : int }

type sweep_point = {
  delta : int;
  n_misclassified : int;    (** inputs with at least one flipping vector *)
  flips : flip list;        (** one witness per flipped input *)
}

val misclassified_at :
  ?jobs:int ->
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  delta:int ->
  inputs:Validate.labelled array ->
  flip list
(** One witness per input that some vector in ±delta flips. With the
    [Interval] backend, inputs that cannot be proven robust are *not*
    reported as flips (it has no witnesses) — use a complete backend for
    counting. Any other [Unknown r] raises [Resil.Budget.Stopped r]. *)

val sweep :
  ?jobs:int ->
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  deltas:int list ->
  inputs:Validate.labelled array ->
  sweep_point list
(** Misclassification counts per noise range — the data behind the paper's
    Fig. 4 scatter (ranges ±5 ... ±40). One budget is shared across all
    deltas; raises [Resil.Budget.Stopped] as {!misclassified_at} does. *)

val network_tolerance :
  ?jobs:int ->
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  int
(** Largest Δ in [0, max_delta] with zero flips across all inputs.
    Computed as [min over inputs of (min flipping Δ) - 1] using binary
    search per input (sound because flip-ability is monotone in Δ), which
    matches the paper's iterative reduce-the-noise procedure but with
    logarithmically many solver queries. Returns [max_delta] when even the
    full range is safe. Raises [Resil.Budget.Stopped] when any per-input
    search stops (a partial minimum would overstate the tolerance), and
    [Failure] when the backend is incomplete ([Interval]). *)

val network_tolerance_ckpt :
  ?budget:Resil.Budget.t ->
  checkpoint:string ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  int
(** {!network_tolerance} with checkpoint/resume: the per-input results and
    the in-flight bisection bracket are persisted to [checkpoint] in
    [fannet-ckpt/1] format (kind ["tolerance"], atomic tmp+rename) after
    every probe, and an existing checkpoint for the same run (backend,
    network, inputs, range — validated by digest) resumes there, repeating
    at most two probes. The search is sequential; a damaged checkpoint is
    reported on stderr and ignored, one from a different run raises
    [Invalid_argument]. The file is removed on completion. Raises
    [Resil.Budget.Stopped] on a stop, after saving the state (rerun to
    continue). Kept apart from {!network_tolerance} because it is a
    different algorithm: sequential, and persisted after every probe. *)

val certified_accuracy :
  ?jobs:int ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  delta:int ->
  inputs:Validate.labelled array ->
  float
(** Fraction of inputs that are both correctly classified without noise
    AND provably robust for every noise vector in ±delta — the standard
    certified-accuracy metric of the robustness literature, computed here
    exactly (no relaxation gap) thanks to the complete backends. With the
    [Interval] backend the result is a sound lower bound. *)

val paper_iterative_tolerance :
  ?jobs:int ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  int
(** The literal procedure of the paper's Fig. 2: start from the large
    range ±max_delta and reduce the noise one percent at a time until the
    model checker finds no counterexample for any input. Same result as
    {!network_tolerance} (asserted by tests) with linearly many queries —
    kept for methodological fidelity. Raises [Resil.Budget.Stopped] when
    a solver runs out of memory. *)

type certified_bracket = {
  max_delta : int;  (** the search range the bracket covers *)
  min_flip_delta : int option;
      (** smallest flipping Δ, [None] if robust up to ±[max_delta] *)
  flip_cert : (int * Noise.vector * Cert.Verdict.t) option;
      (** (Δ, witness, model certificate) at the minimal flipping range;
          [None] only when no Δ flips *)
  robust_cert : (int * Cert.Verdict.t) option;
      (** (Δ, refutation certificate) at the largest certified-robust
          range — [min_flip_delta - 1], or [max_delta] when nothing
          flips; [None] only when Δ=0 already flips *)
}

val certified_min_flip_delta :
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  input:int array ->
  label:int ->
  certified_bracket
(** {!input_min_flip_delta} with the incremental [Smt] search and DRUP
    proof logging: the answer comes back as a {e certified tolerance
    bracket} — a refutation certificate proving robustness at
    [min_flip_delta - 1] and a model certificate plus concrete witness
    proving the flip at [min_flip_delta]. The bracket composes the
    per-delta certificates of the binary-search probes; each can be
    re-checked independently of the solver. No interval prefilter is used
    (its answers carry no proofs). Raises [Resil.Budget.Stopped] when a
    probe stops before the bracket closes. *)

val check_certified_bracket :
  Nn.Qnet.t ->
  bias_noise:bool ->
  certified_bracket ->
  input:int array ->
  label:int ->
  (unit, string) result
(** Independent validation of a bracket: shape consistency (certificates
    present and adjacent: robust Δ = flip Δ - 1, or covering [max_delta]
    when nothing flips), certificate kinds match the claims, both pass
    {!Cert.Verdict.check}, and the flip witness concretely misclassifies
    under {!Noise.predict} within its probe range. *)

val input_min_flip_delta :
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  input:int array ->
  label:int ->
  int option
(** Smallest Δ whose range ±Δ contains a flipping vector for this input,
    or [None] if robust up to ±max_delta.

    With the [Smt] backend (or [Cascade Smt]) the binary search is
    incremental: it opens one solver session for the call, bit-blasts
    the network once at ±max_delta, and narrows the noise bound of each
    probe through an assumable range literal, so learnt clauses carry
    across probes and no probe pays a fresh Tseitin encoding. The
    session is dropped when the search returns; nothing is reused across
    calls. [Cascade Smt] runs the interval prefilter per probe first and
    opens the session only when a probe needs the solver. Verdicts are
    identical to the per-probe re-encoding at every delta. Raises
    [Resil.Budget.Stopped] when a probe stops before the search
    converges. *)
