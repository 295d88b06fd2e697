(** Minimal JSON emitter and parser (no external dependency).

    Covers the subset the bench harness needs for machine-readable
    artefacts such as [BENCH_parallel.json]: objects, arrays, strings with
    standard escapes, booleans, null, and numbers (integers kept exact,
    everything else as float). [of_string] is a strict recursive-descent
    parser used to validate emitted artefacts round-trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. A non-finite [Float] (infinity, NaN)
    has no JSON form and renders as [null], so {!of_string} reads every
    rendering back. *)

val pretty : t -> string
(** Two-space-indented rendering for committed/benchmark artefacts. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error string carries the failing
    byte offset. Rejects trailing garbage. An integer of at most 18
    digits is read without allocating a substring; longer or malformed
    numbers take the general path, with the same results and errors. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on other constructors. *)

val write_file : string -> t -> unit
val parse_file : string -> (t, string) result
