type direction = { from_label : int; to_label : int; count : int }

type report = {
  directions : direction list;
  flips_from : int array;
  inputs_flipped_from : int array;
  flip_rate : float array;
  majority_class : int;
  training_share : float array;
  consistent_with_bias : bool;
}

let flip_directions cexs =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (c : Extract.counterexample) ->
      let key = (c.Extract.true_label, c.Extract.predicted) in
      Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key)))
    cexs;
  Hashtbl.fold
    (fun (from_label, to_label) count acc -> { from_label; to_label; count } :: acc)
    table []
  |> List.sort (fun a b -> compare b.count a.count)

let analyze ~n_classes ~training_labels ~analysed_labels cexs =
  if n_classes <= 0 then invalid_arg "Bias.analyze: n_classes";
  let counts = Array.make n_classes 0 in
  Array.iter
    (fun l ->
      if l < 0 || l >= n_classes then invalid_arg "Bias.analyze: bad label";
      counts.(l) <- counts.(l) + 1)
    training_labels;
  let total = Array.length training_labels in
  if total = 0 then invalid_arg "Bias.analyze: empty training labels";
  let training_share =
    Array.map (fun c -> float_of_int c /. float_of_int total) counts
  in
  let majority_class = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!majority_class) then majority_class := i) counts;
  let majority_class = !majority_class in
  let flips_from = Array.make n_classes 0 in
  List.iter
    (fun (c : Extract.counterexample) ->
      flips_from.(c.Extract.true_label) <- flips_from.(c.Extract.true_label) + 1)
    cexs;
  let inputs_flipped_from = Array.make n_classes 0 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (c : Extract.counterexample) ->
      if not (Hashtbl.mem seen c.Extract.input_index) then begin
        Hashtbl.add seen c.Extract.input_index ();
        inputs_flipped_from.(c.Extract.true_label) <-
          inputs_flipped_from.(c.Extract.true_label) + 1
      end)
    cexs;
  let analysed_counts = Array.make n_classes 0 in
  Array.iter
    (fun l ->
      if l < 0 || l >= n_classes then invalid_arg "Bias.analyze: bad analysed label";
      analysed_counts.(l) <- analysed_counts.(l) + 1)
    analysed_labels;
  let flip_rate =
    Array.mapi
      (fun l flipped ->
        if analysed_counts.(l) = 0 then 0.
        else float_of_int flipped /. float_of_int analysed_counts.(l))
      inputs_flipped_from
  in
  let consistent_with_bias =
    cexs <> []
    && Array.for_all Fun.id
         (Array.mapi
            (fun l rate ->
              l = majority_class || rate > flip_rate.(majority_class))
            flip_rate)
  in
  {
    directions = flip_directions cexs;
    flips_from;
    inputs_flipped_from;
    flip_rate;
    majority_class;
    training_share;
    consistent_with_bias;
  }

let report_to_string r =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "majority training class: L%d (share %.1f%%)\n" r.majority_class
       (100. *. r.training_share.(r.majority_class)));
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  L%d -> L%d : %d counterexamples\n" d.from_label
           d.to_label d.count))
    r.directions;
  Array.iteri
    (fun l rate ->
      Buffer.add_string buf
        (Printf.sprintf "  flip rate L%d: %.2f (%d inputs flipped)\n" l rate
           r.inputs_flipped_from.(l)))
    r.flip_rate;
  Buffer.add_string buf
    (Printf.sprintf "consistent with training bias: %b" r.consistent_with_bias);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Quantitative flip mass (model counting)                             *)
(* ------------------------------------------------------------------ *)

type mass = { from : int; to_ : int; mass : Util.Bigcount.t }

(* The mass of [input] predicted as class [c]: the non-flip mass of the
   Bnb walk that takes [c] as the label. *)
let class_mass ?budget net spec ~input c =
  let cursor, status =
    Bnb.count_flips_from ?budget
      (Bnb.fresh_cursor spec ~input Bnb.no_mass)
      net spec ~input ~label:c
  in
  (cursor.Bnb.found.Bnb.kept, status)

let flip_mass_by_class ?budget ~n_classes net spec ~inputs =
  if n_classes <= 0 then invalid_arg "Bias.flip_mass_by_class: n_classes";
  let table = Hashtbl.create 8 in
  let failure = ref None in
  Array.iter
    (fun (input, label) ->
      if label < 0 || label >= n_classes then
        invalid_arg "Bias.flip_mass_by_class: bad label";
      if !failure = None then
        for c = 0 to n_classes - 1 do
          if c <> label && !failure = None then
            match class_mass ?budget net spec ~input c with
            | m, `Complete ->
                let key = (label, c) in
                let prev =
                  Option.value ~default:Util.Bigcount.zero
                    (Hashtbl.find_opt table key)
                in
                Hashtbl.replace table key (Util.Bigcount.add prev m)
            | _, `Budget r -> failure := Some r
        done)
    inputs;
  match !failure with
  | Some r -> Error r
  | None ->
      Ok
        (Hashtbl.fold
           (fun (from, to_) mass acc ->
             if Util.Bigcount.is_zero mass then acc
             else { from; to_; mass } :: acc)
           table []
        |> List.sort (fun a b ->
               match Util.Bigcount.compare b.mass a.mass with
               | 0 -> compare (a.from, a.to_) (b.from, b.to_)
               | c -> c))
