let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty array")

let sum a = Array.fold_left ( +. ) 0. a

let mean a =
  check_nonempty "Stats.mean" a;
  sum a /. float_of_int (Array.length a)

let variance a =
  check_nonempty "Stats.variance" a;
  let m = mean a in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. a in
  acc /. float_of_int (Array.length a)

let std a = sqrt (variance a)

let min a =
  check_nonempty "Stats.min" a;
  Array.fold_left Stdlib.min a.(0) a

let max a =
  check_nonempty "Stats.max" a;
  Array.fold_left Stdlib.max a.(0) a

let check_no_nan name a =
  if Array.exists Float.is_nan a then invalid_arg (name ^ ": NaN in input")

(* Float.compare, not polymorphic compare: monomorphic (no boxing per
   comparison) and an explicit IEEE total order, so rank statistics never
   depend on the input's element order. *)
let sorted_copy a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let percentile a p =
  check_nonempty "Stats.percentile" a;
  check_no_nan "Stats.percentile" a;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let b = sorted_copy a in
  let n = Array.length b in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then b.(lo)
  else
    let frac = rank -. float_of_int lo in
    b.(lo) +. (frac *. (b.(hi) -. b.(lo)))

let median a = percentile a 50.

let pearson x y =
  check_nonempty "Stats.pearson" x;
  if Array.length x <> Array.length y then
    invalid_arg "Stats.pearson: length mismatch";
  let mx = mean x and my = mean y in
  let num = ref 0. and dx2 = ref 0. and dy2 = ref 0. in
  Array.iteri
    (fun i xi ->
      let dx = xi -. mx and dy = y.(i) -. my in
      num := !num +. (dx *. dy);
      dx2 := !dx2 +. (dx *. dx);
      dy2 := !dy2 +. (dy *. dy))
    x;
  if !dx2 = 0. || !dy2 = 0. then 0. else !num /. sqrt (!dx2 *. !dy2)

let histogram a ~bins ~lo ~hi =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if hi <= lo then invalid_arg "Stats.histogram: hi must exceed lo";
  (* Reject NaN up front: [int_of_float nan] is unspecified, so a NaN
     would otherwise land silently in an arbitrary bucket (bucket 0 on
     amd64) and corrupt the counts. *)
  check_no_nan "Stats.histogram" a;
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let bucket x =
    let i = int_of_float ((x -. lo) /. width) in
    Stdlib.min (bins - 1) (Stdlib.max 0 i)
  in
  Array.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) a;
  counts
