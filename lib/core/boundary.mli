(** Classification-boundary estimation (paper §V-C.2).

    Inputs whose minimal flipping noise is small sit close to the decision
    boundary; inputs that survive ±50 % noise are deep inside their class
    region. The per-input minimal flipping range is the distance proxy the
    paper reads off its counterexample corpus. *)

type point = {
  input_index : int;
  true_label : int;
  min_flip_delta : int option;
      (** smallest ±Δ containing a flipping vector; [None] if robust up to
          the probe limit *)
  margin : int;
      (** noise-free output margin [o_true - o_other] at the x100 scale (2-
          class networks); larger means farther from the boundary *)
}

val analyze :
  ?jobs:int ->
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  point array
(** One point per input, in input order, from a per-input
    {!Tolerance.input_min_flip_delta} fanned out over a {!Util.Parallel}
    pool. [?budget] (unlimited when omitted) is shared by every search;
    raises {!Resil.Budget.Stopped} with the first reason observed when
    any search stops, rather than return a partial point set. *)

val near_boundary : point array -> threshold:int -> point array
(** Points flipping within ±threshold. *)

val robust_at_probe : point array -> point array
(** Points with [min_flip_delta = None] (survived the full probe range,
    the paper's "noise even as large as 50 % did not trigger
    misclassification"). *)

val margin_flip_correlation : point array -> float
(** Pearson correlation between the noise-free margin and the minimal
    flipping Δ (treating [None] as [max_delta+1] is the caller's business;
    here points with [None] are skipped). Positive correlation corroborates
    the boundary reading. *)
