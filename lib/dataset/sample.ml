type label = L0 | L1

type t = { features : int array; label : label }

let label_to_int = function L0 -> 0 | L1 -> 1

let label_of_int = function
  | 0 -> L0
  | 1 -> L1
  | n -> invalid_arg (Printf.sprintf "Sample.label_of_int: %d" n)

let label_equal a b =
  match (a, b) with L0, L0 | L1, L1 -> true | L0, L1 | L1, L0 -> false

let project s genes =
  { s with features = Array.map (fun g -> s.features.(g)) genes }

let count_label samples label =
  Array.fold_left
    (fun acc s -> if label_equal s.label label then acc + 1 else acc)
    0 samples

let class_share samples label =
  if Array.length samples = 0 then invalid_arg "Sample.class_share: empty";
  float_of_int (count_label samples label) /. float_of_int (Array.length samples)
