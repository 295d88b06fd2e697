type point = {
  input_index : int;
  true_label : int;
  min_flip_delta : int option;
  margin : int;
}

let noise_free_margin net ~input ~label =
  let out = Nn.Qnet.forward net input in
  match Array.length out with
  | 2 -> out.(label) - out.(1 - label)
  | _ ->
      (* Margin against the strongest other class. *)
      let best_other = ref min_int in
      Array.iteri (fun j v -> if j <> label && v > !best_other then best_other := v) out;
      out.(label) - !best_other

let analyze ?jobs ?budget backend net ~bias_noise ~max_delta ~inputs =
  Resil.Budget.parallel_mapi ?jobs ?budget
    (fun input_index (input, label) ->
      let min_flip_delta =
        Tolerance.input_min_flip_delta ?budget backend net ~bias_noise
          ~max_delta ~input ~label
      in
      {
        input_index;
        true_label = label;
        min_flip_delta;
        margin = noise_free_margin net ~input ~label;
      })
    inputs

let near_boundary points ~threshold =
  Array.of_list
    (List.filter
       (fun p ->
         match p.min_flip_delta with Some d -> d <= threshold | None -> false)
       (Array.to_list points))

let robust_at_probe points =
  Array.of_list
    (List.filter (fun p -> p.min_flip_delta = None) (Array.to_list points))

let margin_flip_correlation points =
  let pairs =
    List.filter_map
      (fun p ->
        match p.min_flip_delta with
        | Some d -> Some (float_of_int p.margin, float_of_int d)
        | None -> None)
      (Array.to_list points)
  in
  if List.length pairs < 2 then 0.
  else
    let xs = Array.of_list (List.map fst pairs) in
    let ys = Array.of_list (List.map snd pairs) in
    Util.Stats.pearson xs ys
