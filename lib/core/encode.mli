(** Symbolic encoding of a noisy forward pass as {!Smtlite.Term} formulas.

    For a fixed test input the only symbols are the noise percentages, so
    the encoding is linear arithmetic with constant coefficients plus one
    ReLU per hidden neuron — exactly the fragment {!Smtlite.Solve}
    decides. This is the formal core of the paper's P2/P3 properties. *)

type t = {
  bias_var : Smtlite.Term.var option;      (** noise node d0, when enabled *)
  input_vars : Smtlite.Term.var array;     (** noise nodes d1..dn *)
  outputs : Smtlite.Term.term array;       (** output-node values (x100 scale) *)
}

val encode : Nn.Qnet.t -> input:int array -> Noise.spec -> t
(** Two-layer ReLU/identity networks only; sizes must match. *)

val noise_vars : t -> Smtlite.Term.var list
(** Bias node first when present, then d1..dn. *)

val predicted_is : t -> int -> Smtlite.Term.formula
(** Formula: the argmax (ties to the lower index) equals the given class. *)

val misclassified : t -> true_label:int -> Smtlite.Term.formula
(** The paper's P2 negation: predicted class differs from the true label. *)

val vector_of_model : t -> Smtlite.Solve.model -> Noise.vector
(** Read a noise vector out of a satisfying assignment. A noise variable
    the assignment does not bind (it folded out of the formula, so the
    outputs do not depend on it) reads 0. *)
