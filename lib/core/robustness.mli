(** Quantitative robustness: the probability of misclassification under
    the noise model, by model counting over the noise space.

    Where {!Tolerance} answers the paper's qualitative P2 ("does any
    noise vector flip the prediction?"), this module answers the
    quantitative refinement: {e how many} noise vectors flip it, as an
    exact count — one {!Bnb} walk, or certified ([fannet-count-cert/1])
    by {!Count.Exact} on request. The flip count divided by the
    noise-space cardinality is the misclassification probability under
    uniform noise. *)

type mode =
  | Exact_mode of { certify : bool }
      (** exact count. Plain ([certify = false]): one budgeted
          {!Bnb.count_flips_from} walk over the noise box, no SAT
          solver. Certified: cube-decomposition #SAT on the encoding
          ({!Count.Exact}), whose checkable certificate the report
          carries *)

type report = {
  flips : Util.Bigcount.t;   (** noise vectors flipping the prediction *)
  total : Util.Bigcount.t;
      (** noise-space cardinality ({!Noise.spec_count}; the certified
          engine's projected space has the same size) *)
  probability : float;       (** [flips / total] *)
  certificate : Count.Certificate.t option;
      (** present iff [Exact_mode {certify = true}] and fully decided *)
  solver_calls : int;  (** [0] for a plain count *)
  status : (unit, Resil.Budget.reason) result;
      (** [Error] when the budget ran out; [flips] is then a partial
          count *)
}

val probability :
  ?budget:Resil.Budget.t ->
  ?mode:mode ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?ckpt_key:string ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  report
(** Count the noise vectors under which the network's prediction on
    [input] differs from [label]. [mode] defaults to
    [Exact_mode { certify = false }], the plain walk.

    [jobs] applies to certified counts only (see {!Count.Exact.count}):
    a plain count is one sequential walk. With [checkpoint], a plain
    count saves the walk's pending boxes
    and mass (kind ["bnb-count"]) at most once a second and when
    stopped, a certified count its decided cubes and their proofs (kind
    ["count"]); each refuses the other's file, a torn file and another
    query's file with [Invalid_argument] naming the path. The key is
    [ckpt_key] plus the network's digest, so another network's
    checkpoint is refused. A count that completes removes its file. *)

val check_certificate :
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  Count.Certificate.t ->
  (unit, string) result
(** Re-validate a certificate against the query it claims to answer: the
    encoding is rebuilt and {!Count.Certificate.check} runs on it. *)
