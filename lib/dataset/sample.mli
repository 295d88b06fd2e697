(** Labelled samples for the Leukemia classification task.

    The paper's two classes are Acute Myeloid Leukemia and Acute
    Lymphoblast Leukemia; following the paper's output naming, [L0] is the
    AML (minority) class and [L1] the ALL (majority) class. Feature values
    are integer gene-expression levels, matching the paper's integer input
    domain. *)

type label = L0 | L1

type t = { features : int array; label : label }

val label_to_int : label -> int
(** [L0 -> 0], [L1 -> 1]. *)

val label_of_int : int -> label
(** Inverse of [label_to_int]; raises [Invalid_argument] otherwise. *)

val label_equal : label -> label -> bool

val project : t -> int array -> t
(** [project s genes] keeps only the features at the given gene indices, in
    the given order. *)

val class_share : t array -> label -> float
(** Fraction of samples carrying the given label. *)

val count_label : t array -> label -> int
