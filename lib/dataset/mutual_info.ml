let discretize values ~bins =
  if bins <= 0 then invalid_arg "Mutual_info.discretize: bins must be positive";
  let n = Array.length values in
  if n = 0 then [||]
  else begin
    let sorted = Array.copy values in
    Array.sort compare sorted;
    (* Quantile cut points: value at rank k*n/bins starts bin k. *)
    let cut k = sorted.(min (n - 1) (k * n / bins)) in
    let cuts = Array.init (bins - 1) (fun k -> cut (k + 1)) in
    let bin_of v =
      (* First cut strictly greater than v determines the bin. *)
      let rec loop i = if i >= bins - 1 then bins - 1 else if v < cuts.(i) then i else loop (i + 1) in
      loop 0
    in
    Array.map bin_of values
  end

let check_same_length name xs ys =
  if Array.length xs <> Array.length ys then invalid_arg (name ^ ": length mismatch")

let max_symbol xs = Array.fold_left max 0 xs + 1

let entropy xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let counts = Array.make (max_symbol xs) 0 in
    Array.iter (fun x -> counts.(x) <- counts.(x) + 1) xs;
    let nf = float_of_int n in
    Array.fold_left
      (fun acc c ->
        if c = 0 then acc
        else
          let p = float_of_int c /. nf in
          acc -. (p *. log p))
      0. counts
  end

let mutual_information xs ys =
  check_same_length "Mutual_info.mutual_information" xs ys;
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let kx = max_symbol xs and ky = max_symbol ys in
    let joint = Array.make (kx * ky) 0 in
    let cx = Array.make kx 0 and cy = Array.make ky 0 in
    Array.iteri
      (fun i x ->
        let y = ys.(i) in
        joint.((x * ky) + y) <- joint.((x * ky) + y) + 1;
        cx.(x) <- cx.(x) + 1;
        cy.(y) <- cy.(y) + 1)
      xs;
    let nf = float_of_int n in
    let acc = ref 0. in
    for x = 0 to kx - 1 do
      for y = 0 to ky - 1 do
        let j = joint.((x * ky) + y) in
        if j > 0 then begin
          let pxy = float_of_int j /. nf in
          let px = float_of_int cx.(x) /. nf in
          let py = float_of_int cy.(y) /. nf in
          acc := !acc +. (pxy *. log (pxy /. (px *. py)))
        end
      done
    done;
    max 0. !acc
  end

let feature_label_mi ~values ~labels ~bins =
  mutual_information (discretize values ~bins) labels
