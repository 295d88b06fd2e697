(** Minimal JSON emitter and parser (no external dependency).

    Covers objects, arrays, strings with standard escapes, booleans,
    null, and numbers (integers kept exact, everything else as float).
    The repo's artefacts, wire messages, journal records and
    certificates all use it. There is one parser, the pull {!Cursor}:
    {!of_string} is its generic {!Cursor.value} reader, and the typed
    decoders (wire replies, certificates) read straight from the bytes
    with it, building no tree. *)

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

val of_ints : int array -> t
(** An int array as a [List] of [Int]s. *)

val write_file : string -> t -> unit
val parse_file : string -> (t, string) result

(** A pull cursor over the bytes of one document. Each reader skips
    leading whitespace, reads exactly one value and leaves the cursor
    just after it. A malformed document, or a value of the wrong type,
    makes the reader raise; {!parse} turns that into an [Error] carrying
    the byte offset. *)
module Cursor : sig
  type json := t
  type t

  val parse : (t -> 'a) -> string -> ('a, string) result
  (** [parse read s] runs [read] on the whole of [s] and rejects
      trailing garbage. Errors read ["JSON parse error at byte N: ..."];
      it raises nothing else for any [s], as long as [read] only uses
      this module's readers and {!fail}. *)

  val fail : t -> string -> 'a
  (** Abandon the document with a message, at the current offset. *)

  val int : t -> int
  (** An integer (a number with no fraction or exponent). *)

  val number : t -> float
  (** Any number; integers widen. *)

  val string : t -> string
  val bool : t -> bool

  val null : t -> bool
  (** Consumes a [null] and returns [true]; at any other value returns
      [false] and consumes nothing. *)

  val list : (t -> 'a) -> t -> 'a list
  (** An array, its elements read by the function, in order. The list
      is built front to back, with no reversal. *)

  val pair : (t -> 'a) -> (t -> 'b) -> t -> 'a * 'b
  (** An array of exactly two elements. *)

  val value : t -> json
  (** Any value, as a tree. *)

  val with_bytes : (t -> 'a) -> t -> 'a * string
  (** [read]'s value and the bytes it was read from. *)

  (** {2 Objects}

      An object's fields are walked in document order, only as far as
      the field asked for. Each field walked past is skipped, by a
      validating pass that allocates nothing unless a string has escapes
      or a number is not an integer of at most 18 digits, and its
      value's position is recorded, so a field asked for later is read
      from that position: fields may come in any order. Asking for
      fields in the order the emitter writes them passes over each byte
      once. When a key repeats, its first occurrence counts. *)

  type fields

  val obj : (fields -> 'a) -> t -> 'a
  (** [obj read c] opens the object at the cursor and applies [read] to
      its fields; then it validates the fields [read] did not walk to
      and leaves the cursor after the closing brace. *)

  val field : fields -> string -> (t -> 'a) -> 'a
  (** [field f name read] reads the value of [name] with [read]; raises
      (as {!fail}) when the object has no such field. *)

  val field_opt : fields -> string -> (t -> 'a) -> 'a option
end
