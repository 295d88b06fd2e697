(** Property P3: adversarial noise-vector extraction.

    Collects the distinct noise vectors that misclassify each input — the
    noise matrix [e] of the paper's Fig. 2. {!for_input} / {!for_inputs}
    use the branch-and-bound engine ({!Bnb.enumerate_flips}), fast at
    every noise range, and {!explicit_for_input} is the brute-force
    oracle. The paper's literal P3 loop (SAT query, counterexample,
    blocking clause [!e], re-query) runs, certified, in
    {!Count.Exact}'s enumeration cubes.

    Every returned vector is re-validated against the concrete
    {!Noise.predict}.

    Enumerations accept a {!Resil.Budget} (exhaustion yields the typed
    [Budget] status with the partial corpus found so far) and, for
    {!for_input}, a checkpoint file: the enumeration cursor and the
    corpus so far are persisted in [fannet-ckpt/1] format, and a later
    run with the same checkpoint resumes exactly where a killed run
    stopped — the concatenated corpus is identical (same vectors, same
    order) to an uninterrupted run. *)

type counterexample = {
  input_index : int;         (** position in the analysed input set *)
  true_label : int;
  predicted : int;           (** class the noisy network outputs *)
  vector : Noise.vector;
}

type status =
  | Complete
  | Truncated                       (** the [limit] cap bit *)
  | Budget of Resil.Budget.reason   (** stopped by the budget; partial *)

val status_to_string : status -> string

val for_input :
  ?limit:int ->
  ?budget:Resil.Budget.t ->
  ?checkpoint:string ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  input_index:int ->
  counterexample list * status
(** All distinct adversarial noise vectors for one input ([limit] defaults
    to 10_000; [Truncated] when it bites).

    [checkpoint] names a [fannet-ckpt/1] file: progress is saved there
    at most once a second (atomic tmp+rename) and on a [Budget] stop, and an
    existing checkpoint for the {e same} query (network, spec, input,
    label, limit — validated by digest) is resumed seamlessly. A torn or
    corrupt checkpoint is reported on stderr and ignored (fresh start);
    a checkpoint from a different query raises [Invalid_argument]. The
    file is removed when the enumeration finishes ([Complete] or
    [Truncated]). *)

val for_inputs :
  ?limit_per_input:int ->
  ?jobs:int ->
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  Noise.spec ->
  inputs:Validate.labelled array ->
  counterexample list * status
(** Concatenation over an input set (the paper's "repeated for all inputs
    in the dataset"); the status is the weakest over all inputs. Inputs
    are enumerated on a {!Util.Parallel} pool (one engine per worker); the
    corpus order is by input index regardless of [?jobs]. A shared
    [budget] stops every worker cooperatively: inputs not reached before
    exhaustion contribute a [Budget] status from their entry check, so
    the result stays deterministic. *)

val explicit_for_input :
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  input_index:int ->
  limit:int ->
  counterexample list
(** Brute-force oracle; raises [Invalid_argument] if the range has more
    than [limit] vectors. *)
