type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: non-positive dims";
  { rows; cols; data = Array.make (rows * cols) 0. }

let init ~rows ~cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.init: non-positive dims";
  { rows; cols; data = Array.init (rows * cols) (fun i -> f (i / cols) (i mod cols)) }

let of_rows rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then invalid_arg "Mat.of_rows: empty";
  let cols = Array.length rows_arr.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows")
    rows_arr;
  init ~rows ~cols (fun r c -> rows_arr.(r).(c))

let copy m = { m with data = Array.copy m.data }

let check_bounds m r c =
  if r < 0 || r >= m.rows || c < 0 || c >= m.cols then
    invalid_arg "Mat: index out of bounds"

let get m r c =
  check_bounds m r c;
  m.data.((r * m.cols) + c)

let set m r c v =
  check_bounds m r c;
  m.data.((r * m.cols) + c) <- v

let dims m = (m.rows, m.cols)

let row m r =
  if r < 0 || r >= m.rows then invalid_arg "Mat.row: out of bounds";
  Array.sub m.data (r * m.cols) m.cols

let col m c =
  if c < 0 || c >= m.cols then invalid_arg "Mat.col: out of bounds";
  Array.init m.rows (fun r -> m.data.((r * m.cols) + c))

let mul_vec m x =
  if Array.length x <> m.cols then invalid_arg "Mat.mul_vec: size mismatch";
  Array.init m.rows (fun r ->
      let acc = ref 0. in
      let base = r * m.cols in
      for c = 0 to m.cols - 1 do
        acc := !acc +. (m.data.(base + c) *. x.(c))
      done;
      !acc)

let tmul_vec m x =
  if Array.length x <> m.rows then invalid_arg "Mat.tmul_vec: size mismatch";
  let out = Array.make m.cols 0. in
  for r = 0 to m.rows - 1 do
    let base = r * m.cols in
    let xr = x.(r) in
    for c = 0 to m.cols - 1 do
      out.(c) <- out.(c) +. (m.data.(base + c) *. xr)
    done
  done;
  out

let outer u v =
  init ~rows:(Array.length u) ~cols:(Array.length v) (fun r c -> u.(r) *. v.(c))

let check_same_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": dimension mismatch")

let add_inplace dst src =
  check_same_dims "Mat.add_inplace" dst src;
  for i = 0 to Array.length dst.data - 1 do
    dst.data.(i) <- dst.data.(i) +. src.data.(i)
  done

let axpy a x y =
  check_same_dims "Mat.axpy" x y;
  for i = 0 to Array.length x.data - 1 do
    y.data.(i) <- (a *. x.data.(i)) +. y.data.(i)
  done

let map f m = { m with data = Array.map f m.data }

let transpose m = init ~rows:m.cols ~cols:m.rows (fun r c -> get m c r)

let approx_equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data

let to_rows m = Array.init m.rows (fun r -> row m r)

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for r = 0 to m.rows - 1 do
    Format.fprintf fmt "%a@," Vec.pp (row m r)
  done;
  Format.fprintf fmt "@]"
