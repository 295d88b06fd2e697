(** Overflow-safe model counts.

    Exact #SAT counts over wide noise ranges overflow 63-bit integers
    quickly: eight noise nodes with a thousand values each already hold
    [1000^8 ≈ 2^79.7] vectors. A count is therefore either [Exact n]
    (a non-negative OCaml int) or [Huge l], a saturated value carrying
    only its base-2 logarithm. Arithmetic saturates — it never silently
    wraps — and [Huge] propagates: once a sum or product leaves the
    exact range it stays an estimate, clearly marked as such by
    {!to_string} ([~2^79.7]) and by the JSON encoding.

    [Huge] logs are IEEE doubles, so two huge counts compare equal when
    their logs do — adequate for the saturated regime, where the value
    is an order-of-magnitude statement, not a cardinality. *)

type t =
  | Exact of int   (** a true count; always [>= 0] *)
  | Huge of float  (** saturated: the base-2 log of the (positive) count *)

val zero : t
val one : t

val of_int : int -> t
(** Raises [Invalid_argument] on negatives. *)

val add : t -> t -> t
(** Saturates to [Huge] on int overflow (log-sum-exp in log space). *)

val mul : t -> t -> t

val pow2 : int -> t
(** [2^n], [n >= 0]; exact while it fits an int, [Huge] beyond. *)

val pow : base:int -> exp:int -> t
(** [base^exp] with [base >= 1], [exp >= 0]. *)

val sum : t list -> t

val is_zero : t -> bool

val log2 : t -> float
(** [neg_infinity] for zero. *)

val ratio : t -> t -> float
(** [ratio a b] is [a/b] as a float ([0.] when [b] is zero); computed in
    log space when either side is [Huge]. *)

val equal : t -> t -> bool
(** Structural: exact counts by value, huge counts by log equality. *)

val compare : t -> t -> int
(** Total order by magnitude ([Exact] vs [Huge] compared via {!log2}). *)

val to_string : t -> string
(** ["42"] for exact counts, ["~2^79.72"] for huge ones. *)

val to_json : t -> Json.t
(** [Exact n] as a JSON int, [Huge l] as [{"huge_log2": l}] — both
    deterministic, so counts are safe inside cache-keyed payloads. *)

val read : Json.Cursor.t -> t
(** Reads {!to_json}'s form; a negative or malformed count fails the
    cursor. *)
