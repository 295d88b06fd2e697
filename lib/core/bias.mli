(** Training-bias analysis (paper §V-C.3).

    The paper observes that every misclassification flips the minority
    class L0 into the majority class L1, and ties this to the ~70 % L1
    share of the training set. This module aggregates flip directions from
    a counterexample corpus and compares them with the training
    distribution. *)

type direction = { from_label : int; to_label : int; count : int }

type report = {
  directions : direction list;      (** sorted by decreasing count *)
  flips_from : int array;           (** per true label, counterexamples *)
  inputs_flipped_from : int array;  (** per true label, distinct inputs *)
  flip_rate : float array;
      (** per true label, distinct flipped inputs divided by the number of
          analysed inputs of that label *)
  majority_class : int;             (** most frequent training label *)
  training_share : float array;     (** per label share of the training set *)
  consistent_with_bias : bool;
      (** the paper's claim: inputs of a minority class are more likely to
          be misclassified than inputs of the majority class —
          [flip_rate] of every minority class strictly exceeds the
          majority's *)
}

val flip_directions : Extract.counterexample list -> direction list

val analyze :
  n_classes:int ->
  training_labels:int array ->
  analysed_labels:int array ->
  Extract.counterexample list ->
  report
(** [analysed_labels] are the true labels of the inputs the extraction ran
    on (used to normalise flip rates per class). *)

val report_to_string : report -> string

type mass = {
  from : int;
  to_ : int;
  mass : Util.Bigcount.t;  (** noise vectors mapping [from] to [to_] *)
}

val flip_mass_by_class :
  ?budget:Resil.Budget.t ->
  n_classes:int ->
  Nn.Qnet.t ->
  Noise.spec ->
  inputs:(int array * int) array ->
  (mass list, Resil.Budget.reason) result
(** Quantitative refinement of {!analyze}: instead of counting extracted
    counterexamples (a sample), count exactly — one {!Bnb} walk per
    (input, wrong class) over the noise space — how many noise
    vectors drive each labelled input to each wrong class, aggregated
    over [inputs] into per-direction masses sorted by decreasing mass
    (zero-mass directions omitted). The training-bias claim then rests
    on the full noise-space measure rather than on whichever
    counterexamples the extractor happened to find. [Error] when the
    budget ran out mid-sweep. *)
