(** Descriptive statistics over float arrays.

    Used by the dataset generator (feature scoring), the analysis passes
    (sensitivity histograms) and the benchmark reports. All functions raise
    [Invalid_argument] on empty input unless stated otherwise. *)

val mean : float array -> float
val variance : float array -> float
(** Population variance (divides by [n]). *)

val std : float array -> float
val min : float array -> float
val max : float array -> float

val median : float array -> float
(** Median of a copy of the input (the input is not modified). Raises
    [Invalid_argument] on NaN input (see {!percentile}). *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0, 100\]], linear interpolation between
    closest ranks. The copy is sorted with [Float.compare]; NaN input is
    rejected with [Invalid_argument] — there is no meaningful rank for
    NaN. *)

val pearson : float array -> float array -> float
(** Pearson correlation coefficient. Arrays must have equal non-zero
    length; returns [0.] when either side has zero variance. *)

val histogram : float array -> bins:int -> lo:float -> hi:float -> int array
(** [histogram a ~bins ~lo ~hi] counts values into [bins] equal-width
    buckets over [\[lo, hi\]]; values outside the range are clamped into the
    first or last bucket. NaN values are rejected with [Invalid_argument]
    (they have no bucket; [int_of_float nan] is unspecified). *)

val sum : float array -> float
