(** Differential oracle: run every backend on a case and check the
    agreement properties the repository's credibility rests on.

    Per case, with the explicit enumerator as ground truth:

    - {b completeness agreement}: [Bnb], [Smt], [Cascade Bnb] and
      [Cascade Smt] each decide (never [Unknown]) and reach the same
      decision as [Explicit] (both [Robust], or both some [Flip]);
    - {b witness validity}: every [Flip v] satisfies [Noise.in_range] and
      concretely misclassifies under [Noise.predict];
    - {b interval soundness}: [Interval] never returns a witness, and when
      it proves [Robust] the enumerator confirms it;
    - {b cascade lattice}: whenever [Interval] decides, [Cascade b]
      decides identically ([Interval ⊑ Cascade b]);
    - {b parallel determinism}: the backend verdict vector computed on a
      one-worker {!Util.Parallel} pool equals the multi-worker one
      (doubles the backend cost, so the {!Fuzz} driver samples it on a
      fixed fraction of cases; [?check_parallel] controls it here);
    - {b certificate validity}: {!Fannet.Backend.certified_exists_flip}
      agrees with the enumerator, returns a certificate for every decided
      verdict, and the certificate passes the independent [lib/cert]
      checker ({!Fannet.Backend.check_certified}) — also sampled by the
      driver ([?check_certificate] controls it here);
    - {b counting agreement}: the exact counter
      ({!Fannet.Robustness.probability}), plain (a Bnb walk) and
      certified (SAT), reproduces the brute-force flip count, is zero
      exactly when the enumerator proves the range robust,
      carries a [fannet-count-cert/1] certificate that passes the
      independent checker, answers byte-identically (certificate
      included) at [jobs] 1 and 4, and the tight-ε approximate counter
      short-circuits to the same exact count — sampled by the driver
      ([?check_count] controls it here; it enumerates the noise space).

    The backend runner is injectable ([?run]) so tests can mutate a
    backend and assert the oracle catches the discrepancy (mutation
    testing of the oracle itself). Exceptions escaping a backend are
    reported as failures, not propagated. *)

type runner =
  Fannet.Backend.t ->
  Nn.Qnet.t ->
  Fannet.Noise.spec ->
  input:int array ->
  label:int ->
  Fannet.Backend.verdict

type failure = {
  property : string;  (** e.g. ["complete-agreement"], ["witness-valid"] *)
  backend : string;   (** {!Fannet.Backend.to_string} of the culprit *)
  detail : string;
}

type result = {
  failures : failure list;  (** empty iff every property held *)
  ground_truth : Fannet.Backend.verdict;
      (** the explicit enumerator's verdict ([Unknown] only if it failed,
          which is itself reported as a failure) *)
}

val failure_to_string : failure -> string

val backends_under_test : Fannet.Backend.t list
(** [Explicit] (ground truth) followed by the complete backends and
    [Interval], as run by {!check_case}. *)

val check_case :
  ?run:runner ->
  ?check_parallel:bool ->
  ?check_certificate:bool ->
  ?check_count:bool ->
  Case.t ->
  result
(** [run] defaults to {!Fannet.Backend.exists_flip}; [check_parallel]
    (default [true]) re-runs all backends on a 4-worker pool and compares
    verdict vectors; [check_certificate] (default [true]) runs the
    certified SMT path and validates its proof/model certificate;
    [check_count] (default [true]) checks the exact and approximate model
    counters against brute-force enumeration. *)
