module T = Smtlite.Term

type t = {
  bias_var : T.var option;
  input_vars : T.var array;
  outputs : T.term array;
}

let encode (net : Nn.Qnet.t) ~input (spec : Noise.spec) =
  if Array.length input <> Nn.Qnet.in_dim net then
    invalid_arg "Encode.encode: input size mismatch";
  if spec.Noise.delta_lo > 0 || spec.Noise.delta_hi < 0 then
    invalid_arg "Encode.encode: noise range must contain 0";
  let scale = Noise.scale_of spec in
  let mkvar name = T.var ~name ~lo:spec.Noise.delta_lo ~hi:spec.Noise.delta_hi in
  let bias_var = if spec.Noise.bias_noise then Some (mkvar "d0") else None in
  let input_vars =
    Array.init (Array.length input) (fun i -> mkvar (Printf.sprintf "d%d" (i + 1)))
  in
  (* Relative: x_i = X_i*100 + X_i*d_i; absolute: x_i = X_i + d_i
     (constants folded by the smart constructors). *)
  let noisy =
    Array.mapi
      (fun i x ->
        let coeff =
          match spec.Noise.kind with Noise.Relative -> x | Noise.Absolute -> 1
        in
        T.add (T.const (x * scale)) (T.mulc coeff (T.of_var input_vars.(i))))
      input
  in
  (* Layer loop with the running scale of Noise.apply: each layer's bias
     enters at the scale its inputs carry; a Sign layer's ±1 outputs reset
     that scale to 1. The input-layer bias node is the only noisy bias. *)
  let cur = ref noisy in
  let running = ref scale in
  Array.iteri
    (fun li (l : Nn.Qnet.qlayer) ->
      let x = !cur in
      let outs =
        Array.mapi
          (fun k row ->
            let b = l.Nn.Qnet.bias.(k) in
            let bias_term =
              match (li, bias_var) with
              | 0, Some d0 ->
                  T.add (T.const (b * !running)) (T.mulc b (T.of_var d0))
              | _, (Some _ | None) -> T.const (b * !running)
            in
            let pre =
              T.sum
                (bias_term
                :: List.init (Array.length row) (fun i -> T.mulc row.(i) x.(i)))
            in
            match l.Nn.Qnet.act with
            | Nn.Qnet.Relu -> T.relu pre
            | Nn.Qnet.Sign -> T.sign_ pre
            | Nn.Qnet.Identity -> pre)
          l.Nn.Qnet.weights
      in
      cur := outs;
      if l.Nn.Qnet.act = Nn.Qnet.Sign then running := 1)
    net.Nn.Qnet.layers;
  { bias_var; input_vars; outputs = !cur }

let noise_vars t =
  (match t.bias_var with Some v -> [ v ] | None -> [])
  @ Array.to_list t.input_vars

let predicted_is t c =
  let n = Array.length t.outputs in
  if c < 0 || c >= n then invalid_arg "Encode.predicted_is: class out of range";
  (* Ties go to the lower index: class c wins iff o_c > o_j for j < c and
     o_c >= o_j for j > c. *)
  T.and_
    (List.filter_map
       (fun j ->
         if j = c then None
         else if j < c then Some (T.gt t.outputs.(c) t.outputs.(j))
         else Some (T.ge t.outputs.(c) t.outputs.(j)))
       (List.init n Fun.id))

let misclassified t ~true_label = T.not_ (predicted_is t true_label)

(* A noise variable with a zero coefficient everywhere folds out of the
   formula, and the model does not bind it: the outputs do not depend on
   it, so any value in the range will do, and 0 always is in it. *)
let vector_of_model t model =
  let value v = try T.lookup model v with Not_found -> 0 in
  {
    Noise.bias = (match t.bias_var with Some v -> value v | None -> 0);
    inputs = Array.map value t.input_vars;
  }
