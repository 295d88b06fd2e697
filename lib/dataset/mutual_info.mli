(** Discrete mutual information for feature scoring.

    Continuous-valued gene expressions are discretised by equal-frequency
    (quantile) binning before MI is computed — the standard preprocessing
    for mRMR on microarray data. *)

val discretize : int array -> bins:int -> int array
(** [discretize values ~bins] maps each value to a bin index in
    [\[0, bins)]; bin boundaries are the quantiles of [values], so the bins
    have near-equal population. [bins] must be positive. *)

val mutual_information : int array -> int array -> float
(** [mutual_information xs ys] over two equal-length discrete sequences, in
    nats. Symmetric and non-negative (up to float rounding). *)

val entropy : int array -> float
(** Shannon entropy of a discrete sequence, in nats. *)

val feature_label_mi : values:int array -> labels:int array -> bins:int -> float
(** MI between a raw (undigitised) feature column and discrete labels. *)
