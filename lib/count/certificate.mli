(** [fannet-count-cert/1] — checkable exact-count certificates.

    An exact count is certified by a partition of the constrained
    counting space into decided cubes, each carrying evidence of its
    kind:

    - an {b UNSAT} cube holds a {!Cert.Verdict.Refutation} — a DRUP
      refutation of [formula ∧ cube], checkable by the independent
      [lib/cert] RUP checker;
    - a {b full} cube holds a refutation of [¬formula ∧ cube] (no model
      of the cube escapes the formula, so the cube contributes its whole
      cardinality);
    - an {b enumerated} cube holds its explicit witness set plus a
      completion refutation of [formula ∧ cube ∧ blocking clauses]
      proving no further witness exists.

    {!check} re-validates a certificate without the solver: the cube set
    must partition the constrained space exactly (pairwise disjoint,
    cardinalities summing to the space size), every witness must lie in
    its cube, be distinct, and satisfy the formula under the
    solver-independent {!Smtlite.Term.eval_formula}, every refutation
    must pass {!Cert.Verdict.check}, and the cube masses times the
    free-variable factor must reproduce the reported count. As with the
    existing verdict certificates, the RUP refutations certify the
    bit-blasted CNF the encoder produced — encoder trust is the one
    residual assumption, shared with every certificate in this repo. *)

type proof =
  | Unsat_cube of Cert.Verdict.t
  | Full_cube of Cert.Verdict.t
  | Enum_cube of { witnesses : int array list; completion : Cert.Verdict.t }

type entry = { ranges : (int * int) array; proof : proof }

type t = {
  vars : (string * int * int) array;  (** constrained dims: name, lo, hi *)
  free : (string * int * int) array;  (** factored-out projection vars *)
  count : Util.Bigcount.t;            (** the certified total *)
  entries : entry list;
}

val version : string
(** ["fannet-count-cert/1"]. *)

val make :
  space:Space.t -> count:Util.Bigcount.t -> entries:entry list -> t

val check :
  Smtlite.Term.formula ->
  project:Smtlite.Term.var list ->
  t ->
  (unit, string) result
(** Full re-validation against the original query (see above). Never
    raises. *)

val describe : t -> string

val to_json : t -> Util.Json.t
(** Deterministic encoding — certificate bytes are cache-stable. *)

val of_json : Util.Json.t -> (t, string) result

val verdict_json : Cert.Verdict.t -> Util.Json.t
(** The JSON form of one [lib/cert] certificate, as it appears inside a
    cube. The wire protocol and the verdict journal encode certified
    exists-flip answers with the same pair. *)

val verdict_of_json : Util.Json.t -> (Cert.Verdict.t, string) result

val proof_to_json : proof -> Util.Json.t
(** Exposed for checkpoint payloads, which persist decided cubes. *)

val proof_of_json : Util.Json.t -> (proof, string) result
