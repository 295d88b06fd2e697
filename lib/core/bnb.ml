type verdict =
  | Robust
  | Flip of Noise.vector
  | Unknown of Resil.Budget.reason

(* Test-only mutation hook for the differential fuzzer: when set, the
   unstable-ReLU upper relaxation drops its offset (claiming
   relu(pre) <= pre, false on negative pre) — the classic wrong-slope
   triangle bug. Must stay [false] outside the mutation tests. *)
let unsound_relaxation_for_tests = ref false

(* Layered view of the noisy network for one input (see the interface).
   Layer 0 pre-activations are exact affine forms over the noise
   dimensions d (bias node first when enabled):
     pre_k = pre_const.(k) + sum_d pre_coef.(k).(d) * delta_d.
   Deeper layers are kept as integer weight/bias pairs (biases already
   multiplied by the running scale their inputs carry); the margins
     m_j = out_const.(j) + sum_k out_coef.(j).(k) * post_k
   range over the last hidden layer's post-activations, and the input
   flips iff m_j < thr.(j) for some adversary j.

   The model also carries the search's workspace: one mutable [node] per
   hidden node, which [propagate] overwrites for every box, one scratch
   node for the margins, and the margin forms of the exact box the walk
   is inside (see [walk]). A built model is therefore single-use per
   call: each search builds its own and keeps it on its domain, so
   nothing is shared and nothing needs a lock. *)

(* Symbolic state of one node over the current box: an affine lower and
   upper form over the noise dimensions, plus the concrete bounds they
   imply. A side is either linear ([lo_lin]/[up_lin]: constant plus the
   coefficients in [lo_k]/[up_k]) or constant (its coefficients are then
   not read). Layer-0 nodes point both sides at their read-only
   [pre_coef] row; deeper nodes and the margin scratch own two buffers
   that [combine] rewrites. *)
type node = {
  lo_k : int array;
  up_k : int array;
  mutable lo_lin : bool;
  mutable up_lin : bool;
  mutable lo_c : int;
  mutable up_c : int;
  mutable lob : int;  (* concrete bounds of the node value over the box *)
  mutable upb : int;
}

type slayer = {
  w : int array array;
  b : int array;  (* at the layer's input running scale *)
  act : Nn.Qnet.act;
  nodes : node array;  (* workspace, one per output node *)
}

type model = {
  n_dims : int;
  pre_const : int array;
  pre_coef : int array array;
  act0 : Nn.Qnet.act;
  nodes0 : node array;  (* workspace: layer-0 nodes over [pre_coef] rows *)
  mid : slayer array;  (* layers 1 .. L-2 *)
  post : node array;  (* the last hidden layer's workspace nodes *)
  out_coef : int array array;  (* per adversary *)
  out_const : int array;
  thr : int array;
  margin : node;  (* workspace: scratch for one margin at a time *)
  mutable exact : bool;  (* [propagate] relaxed no node on the last box *)
  mutable ex_const : int array;  (* per margin, its exact form over the *)
  mutable ex_coef : int array array;  (* stored box; empty until needed *)
}

let new_node lo_k up_k =
  { lo_k; up_k; lo_lin = false; up_lin = false; lo_c = 0; up_c = 0; lob = 0; upb = 0 }

let own_node n_dims = new_node (Array.make n_dims 0) (Array.make n_dims 0)

let build (net : Nn.Qnet.t) (spec : Noise.spec) ~input ~label =
  let n_layers = Nn.Qnet.n_layers net in
  if n_layers < 2 then invalid_arg "Bnb: at least two layers required";
  let n_out = Nn.Qnet.out_dim net in
  if n_out < 2 then invalid_arg "Bnb: at least two outputs required";
  if Array.length input <> Nn.Qnet.in_dim net then
    invalid_arg "Bnb: input size mismatch";
  if label < 0 || label >= n_out then invalid_arg "Bnb: label out of range";
  let layers = net.Nn.Qnet.layers in
  let out_layer = layers.(n_layers - 1) in
  if out_layer.Nn.Qnet.act <> Nn.Qnet.Identity then
    invalid_arg "Bnb: output layer must be identity";
  let scale = Noise.scale_of spec in
  let n_inputs = Array.length input in
  let bias_dim = if spec.Noise.bias_noise then 1 else 0 in
  let n_dims = n_inputs + bias_dim in
  let layer0 = layers.(0) in
  let n_hidden = Array.length layer0.Nn.Qnet.weights in
  let pre_const = Array.make n_hidden 0 in
  let pre_coef = Array.make_matrix n_hidden n_dims 0 in
  for k = 0 to n_hidden - 1 do
    let b = layer0.Nn.Qnet.bias.(k) in
    let row = layer0.Nn.Qnet.weights.(k) in
    let affine = ref (b * scale) in
    if spec.Noise.bias_noise then pre_coef.(k).(0) <- b;
    Array.iteri
      (fun i w ->
        affine := !affine + (w * input.(i) * scale);
        pre_coef.(k).(bias_dim + i) <-
          (match spec.Noise.kind with
          | Noise.Relative -> w * input.(i)
          | Noise.Absolute -> w))
      row;
    pre_const.(k) <- !affine
  done;
  (* Running scale: a Sign layer emits ±1 whatever its input magnitude,
     so the scale carried by ReLU/Identity layers resets to 1 after it
     (see Noise.apply). Each deeper bias enters at its input scale. *)
  let running = ref (if layer0.Nn.Qnet.act = Nn.Qnet.Sign then 1 else scale) in
  let mid =
    Array.init (n_layers - 2) (fun i ->
        let l = layers.(i + 1) in
        let sl =
          {
            w = l.Nn.Qnet.weights;
            b = Array.map (fun b -> b * !running) l.Nn.Qnet.bias;
            act = l.Nn.Qnet.act;
            nodes = Array.map (fun _ -> own_node n_dims) l.Nn.Qnet.weights;
          }
        in
        if l.Nn.Qnet.act = Nn.Qnet.Sign then running := 1;
        sl)
  in
  let adversaries =
    List.filter (fun j -> j <> label) (List.init n_out Fun.id)
  in
  let out_coef =
    Array.of_list
      (List.map
         (fun j ->
           Array.init
             (Array.length out_layer.Nn.Qnet.weights.(label))
             (fun k ->
               out_layer.Nn.Qnet.weights.(label).(k)
               - out_layer.Nn.Qnet.weights.(j).(k)))
         adversaries)
  in
  let out_const =
    Array.of_list
      (List.map
         (fun j ->
           (out_layer.Nn.Qnet.bias.(label) - out_layer.Nn.Qnet.bias.(j))
           * !running)
         adversaries)
  in
  (* Ties go to the lower class index: against a higher class the label
     keeps on equality (flip iff margin < 0); against a lower class it
     needs a strict win (flip iff margin < 1). *)
  let thr =
    Array.of_list (List.map (fun j -> if j > label then 0 else 1) adversaries)
  in
  let nodes0 = Array.map (fun row -> new_node row row) pre_coef in
  {
    n_dims;
    pre_const;
    pre_coef;
    act0 = layer0.Nn.Qnet.act;
    nodes0;
    mid;
    post = (if n_layers = 2 then nodes0 else mid.(n_layers - 3).nodes);
    out_coef;
    out_const;
    thr;
    margin = own_node n_dims;
    exact = false;
    ex_const = [||];
    ex_coef = [||];
  }

let n_margins m = Array.length m.out_coef

(* Last-hidden-layer post-activations at a concrete noise point: exact
   layered forward over the model. *)
let hidden_at m point =
  let post0 =
    Array.mapi
      (fun k const ->
        let pre = ref const in
        Array.iteri
          (fun d coef -> pre := !pre + (coef * point.(d)))
          m.pre_coef.(k);
        Nn.Qnet.apply_act m.act0 !pre)
      m.pre_const
  in
  Array.fold_left
    (fun h (l : slayer) ->
      Array.mapi
        (fun k row ->
          let pre = ref l.b.(k) in
          Array.iteri (fun i w -> pre := !pre + (w * h.(i))) row;
          Nn.Qnet.apply_act l.act !pre)
        l.w)
    post0 m.mid

let flips_at_point m point =
  let h = hidden_at m point in
  let rec check j =
    j < n_margins m
    &&
    let margin = ref m.out_const.(j) in
    Array.iteri (fun k c -> margin := !margin + (c * h.(k))) m.out_coef.(j);
    !margin < m.thr.(j) || check (j + 1)
  in
  check 0

(* ---------- symbolic bound propagation ---------- *)

(* Forms are combined layer by layer (positive weights take the
   like-sided form, negative the opposite), so coefficients recombine and
   cancel across neurons — the DeepPoly/ReluVal-style tightening that pure
   interval propagation throws away. [relax], [combine] and [propagate]
   update workspace nodes in place. *)

let eval_lower const coef ~lo ~hi =
  let acc = ref const in
  for d = 0 to Array.length coef - 1 do
    let a = coef.(d) in
    acc := !acc + (a * if a >= 0 then lo.(d) else hi.(d))
  done;
  !acc

let eval_upper const coef ~lo ~hi =
  let acc = ref const in
  for d = 0 to Array.length coef - 1 do
    let a = coef.(d) in
    acc := !acc + (a * if a >= 0 then hi.(d) else lo.(d))
  done;
  !acc

(* Both concrete bounds of one linear form in a single pass over its
   coefficients: the same sums as [eval_lower] and [eval_upper]. *)
let eval_both s const coef ~lo ~hi =
  let lob = ref const and upb = ref const in
  for d = 0 to Array.length coef - 1 do
    let a = coef.(d) in
    if a >= 0 then begin
      lob := !lob + (a * lo.(d));
      upb := !upb + (a * hi.(d))
    end
    else begin
      lob := !lob + (a * hi.(d));
      upb := !upb + (a * lo.(d))
    end
  done;
  s.lob <- !lob;
  s.upb <- !upb

(* Both sides constant: the node ranges over [[l, u]]. *)
let set_range s l u =
  s.lo_lin <- false;
  s.up_lin <- false;
  s.lo_c <- l;
  s.up_c <- u;
  s.lob <- l;
  s.upb <- u

(* Activation relaxation with integer-only coefficients. Stable nodes stay
   linear (or constant); an unstable ReLU is relaxed one-sidedly with
   slopes restricted to {0, 1} so the propagated forms stay integral:
     upper: pre - lob   (valid since lob < 0)   or the constant upb,
     lower: the pre lower form (relu(x) >= x)   or the constant 0,
   picking the smaller-area side DeepPoly-style (linear iff upb >= -lob).
   An unstable Sign collapses to the constant envelope [-1, 1]. Returns
   whether the node was relaxed, i.e. is no longer exact on the box. *)
let relax act s =
  match act with
  | Nn.Qnet.Identity -> false
  | Nn.Qnet.Sign ->
      if s.lob >= 0 then (set_range s 1 1; false)
      else if s.upb < 0 then (set_range s (-1) (-1); false)
      else (set_range s (-1) 1; true)
  | Nn.Qnet.Relu ->
      if s.lob >= 0 then false
      else if s.upb <= 0 then (set_range s 0 0; false)
      else begin
        let keep_linear = s.upb >= -s.lob in
        if not keep_linear then begin
          s.lo_lin <- false;
          s.lo_c <- 0
        end;
        (if !unsound_relaxation_for_tests then ()
         else if keep_linear then s.up_c <- s.up_c - s.lob
         else begin
           s.up_lin <- false;
           s.up_c <- s.upb
         end);
        s.lob <- 0;
        true
      end

(* Adds [c] times a source side ([src], linear iff [src_lin]) to a
   destination side ([dst], linear so far iff [lin]); returns whether the
   destination is now linear. A constant source adds no coefficients, and
   the first linear one overwrites whatever [dst] held. *)
let add_side ~lin c ~src_lin src dst =
  if not src_lin then lin
  else begin
    if lin then
      for d = 0 to Array.length dst - 1 do
        dst.(d) <- dst.(d) + (c * src.(d))
      done
    else
      for d = 0 to Array.length dst - 1 do
        dst.(d) <- c * src.(d)
      done;
    true
  end

(* [dst] := c . srcs + bias: positive coefficients pull the like-sided
   form, negative ones the opposite side. Constant sides contribute only
   their constant, so a node whose inputs are all constant stays constant
   and needs no bound evaluation. *)
let combine coefs srcs bias dst ~lo ~hi =
  let lo_c = ref bias and up_c = ref bias in
  let lo_lin = ref false and up_lin = ref false in
  for i = 0 to Array.length coefs - 1 do
    let c = coefs.(i) and s = srcs.(i) in
    if c > 0 then begin
      lo_c := !lo_c + (c * s.lo_c);
      up_c := !up_c + (c * s.up_c);
      lo_lin := add_side ~lin:!lo_lin c ~src_lin:s.lo_lin s.lo_k dst.lo_k;
      up_lin := add_side ~lin:!up_lin c ~src_lin:s.up_lin s.up_k dst.up_k
    end
    else if c < 0 then begin
      lo_c := !lo_c + (c * s.up_c);
      up_c := !up_c + (c * s.lo_c);
      lo_lin := add_side ~lin:!lo_lin c ~src_lin:s.up_lin s.up_k dst.lo_k;
      up_lin := add_side ~lin:!up_lin c ~src_lin:s.lo_lin s.lo_k dst.up_k
    end
  done;
  dst.lo_lin <- !lo_lin;
  dst.up_lin <- !up_lin;
  dst.lo_c <- !lo_c;
  dst.up_c <- !up_c;
  dst.lob <- (if !lo_lin then eval_lower !lo_c dst.lo_k ~lo ~hi else !lo_c);
  dst.upb <- (if !up_lin then eval_upper !up_c dst.up_k ~lo ~hi else !up_c)

(* Post-activation symbolic state of every hidden layer over a box, left
   in the workspace ([m.post] is the last hidden layer); records in
   [m.exact] whether every node stayed exact. A layer-0 node's two sides
   share its [pre_coef] row, so both bounds come from one pass. *)
let propagate m ~lo ~hi =
  let exact = ref true in
  for k = 0 to Array.length m.nodes0 - 1 do
    let s = m.nodes0.(k) in
    let const = m.pre_const.(k) in
    s.lo_lin <- true;
    s.up_lin <- true;
    s.lo_c <- const;
    s.up_c <- const;
    eval_both s const s.lo_k ~lo ~hi;
    if relax m.act0 s then exact := false
  done;
  let post = ref m.nodes0 in
  for i = 0 to Array.length m.mid - 1 do
    let l = m.mid.(i) in
    for k = 0 to Array.length l.nodes - 1 do
      let s = l.nodes.(k) in
      combine l.w.(k) !post l.b.(k) s ~lo ~hi;
      if relax l.act s then exact := false
    done;
    post := l.nodes
  done;
  m.exact <- !exact

(* Margin [j]'s bounds over a box, left in [m.margin]: from the
   propagated workspace, or from the stored exact forms. *)
let margin_live m j ~lo ~hi =
  combine m.out_coef.(j) m.post m.out_const.(j) m.margin ~lo ~hi

let margin_stored m j ~lo ~hi =
  eval_both m.margin m.ex_const.(j) m.ex_coef.(j) ~lo ~hi

(* Box classification from each margin's bounds: [`Robust] (no point
   flips), [`All_flip] (every point flips), or [`Split] with the worst
   lower-bound slack (used to order children). *)
let verdict margin m ~lo ~hi =
  let robust = ref true in
  let worst_slack = ref max_int in
  let all_flip = ref false in
  let s = m.margin in
  for j = 0 to n_margins m - 1 do
    if not !all_flip then begin
      margin m j ~lo ~hi;
      if s.upb < m.thr.(j) then all_flip := true
      else begin
        if s.lob < m.thr.(j) then robust := false;
        let slack = s.lob - m.thr.(j) in
        if slack < !worst_slack then worst_slack := slack
      end
    end
  done;
  if !all_flip then `All_flip
  else if !robust then `Robust
  else `Split !worst_slack

let classify m ~lo ~hi =
  propagate m ~lo ~hi;
  verdict margin_live m ~lo ~hi

(* Keeps the margin forms of the box [propagate] last saw, which must
   have been exact: each margin's lower and upper forms are then the same
   linear form (constant margins keep zero coefficients). *)
let store_forms m ~lo ~hi =
  let n = n_margins m in
  if Array.length m.ex_coef = 0 then begin
    m.ex_const <- Array.make n 0;
    m.ex_coef <- Array.init n (fun _ -> Array.make m.n_dims 0)
  end;
  for j = 0 to n - 1 do
    margin_live m j ~lo ~hi;
    let s = m.margin in
    m.ex_const.(j) <- s.lo_c;
    if s.lo_lin then Array.blit s.lo_k 0 m.ex_coef.(j) 0 m.n_dims
    else Array.fill m.ex_coef.(j) 0 m.n_dims 0
  done

let vector_of_point (spec : Noise.spec) ~n_inputs point =
  if spec.Noise.bias_noise then
    { Noise.bias = point.(0); inputs = Array.sub point 1 n_inputs }
  else { Noise.bias = 0; inputs = Array.copy point }

let widest_dim ~lo ~hi =
  let best = ref 0 in
  for d = 1 to Array.length lo - 1 do
    if hi.(d) - lo.(d) > hi.(!best) - lo.(!best) then best := d
  done;
  !best

let is_point ~lo ~hi =
  let d = ref 0 in
  while !d < Array.length lo && lo.(!d) = hi.(!d) do
    incr d
  done;
  !d = Array.length lo

(* Floor division, matching [split]: plain (lo+hi)/2 truncates toward zero,
   so on an all-negative range the `All_flip` witness midpoint would
   disagree with the split geometry. *)
let midpoint ~lo ~hi = Array.init (Array.length lo) (fun d -> (lo.(d) + hi.(d)) asr 1)

let split ~lo ~hi =
  let d = widest_dim ~lo ~hi in
  (* Floor division: plain (lo+hi)/2 truncates toward zero and can return
     hi on negative ranges, recreating the same box forever. *)
  let mid = (lo.(d) + hi.(d)) asr 1 in
  let hi1 = Array.copy hi and lo2 = Array.copy lo in
  hi1.(d) <- mid;
  lo2.(d) <- mid + 1;
  ((lo, hi1), (lo2, hi))

let root_box (spec : Noise.spec) n_dims =
  (Array.make n_dims spec.Noise.delta_lo, Array.make n_dims spec.Noise.delta_hi)

let initial_box ?box m (spec : Noise.spec) =
  match box with
  | None -> root_box spec m.n_dims
  | Some ranges ->
      if Array.length ranges <> m.n_dims then
        invalid_arg "Bnb: box dimension mismatch";
      Array.iter
        (fun (lo, hi) ->
          if lo > hi || lo < spec.Noise.delta_lo || hi > spec.Noise.delta_hi
          then invalid_arg "Bnb: box outside the noise range")
        ranges;
      (Array.map fst ranges, Array.map snd ranges)

exception Found of int array

exception Budget_exceeded

(* Budget poll at box granularity: one check every 64 boxes (a box
   classification is itself O(neurons * dims) work per layer, so the
   amortized poll cost is negligible — test_resil bounds it). *)
let poll_budget budget boxes =
  if boxes land 63 = 0 then Resil.Budget.poll budget

let exists_flip ?box ?max_boxes ?budget net spec ~input ~label =
  let m = build net spec ~input ~label in
  let box_budget = ref (match max_boxes with Some b -> b | None -> max_int) in
  let boxes = ref 0 in
  let spend () =
    decr box_budget;
    if !box_budget < 0 then raise Budget_exceeded;
    incr boxes;
    poll_budget budget !boxes
  in
  let slack = function `All_flip -> min_int | `Robust -> max_int | `Split s -> s in
  (* [cls] is the box's classification, made once by the caller. *)
  let rec go ~lo ~hi cls =
    spend ();
    match cls with
    | `Robust -> ()
    | `All_flip -> raise (Found (midpoint ~lo ~hi))
    | `Split _ ->
        if is_point ~lo ~hi then begin
          if flips_at_point m lo then raise (Found (Array.copy lo))
        end
        else begin
          let (lo1, hi1), (lo2, hi2) = split ~lo ~hi in
          (* Explore the child with the weaker margin slack first: more
             likely to contain a flip, so witnesses surface early. *)
          let c1 = classify m ~lo:lo1 ~hi:hi1 in
          let c2 = classify m ~lo:lo2 ~hi:hi2 in
          if slack c1 <= slack c2 then begin
            go ~lo:lo1 ~hi:hi1 c1;
            go ~lo:lo2 ~hi:hi2 c2
          end
          else begin
            go ~lo:lo2 ~hi:hi2 c2;
            go ~lo:lo1 ~hi:hi1 c1
          end
        end
  in
  let lo, hi = initial_box ?box m spec in
  match
    Resil.Budget.poll budget;
    go ~lo ~hi (classify m ~lo ~hi)
  with
  | () -> Robust
  | exception Found point ->
      let v = vector_of_point spec ~n_inputs:(Array.length input) point in
      if Noise.predict net spec ~input v = label then
        failwith "Bnb: witness does not actually misclassify";
      Flip v
  | exception Resil.Budget.Stopped r -> Unknown r

(* Smallest possible L1 norm of a point in the box: per dimension the
   distance of the interval to zero. *)
let box_l1_lower ~lo ~hi =
  let acc = ref 0 in
  Array.iteri
    (fun d l ->
      let h = hi.(d) in
      if l > 0 then acc := !acc + l else if h < 0 then acc := !acc - h)
    lo;
  !acc

let point_l1 point = Array.fold_left (fun acc d -> acc + abs d) 0 point

let min_l1_flip ?budget net spec ~input ~label =
  let m = build net spec ~input ~label in
  let boxes = ref 0 in
  (* Best-first over boxes keyed by (L1 lower bound, unique id). *)
  let module Pq = Map.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let queue = ref Pq.empty in
  let counter = ref 0 in
  let push box =
    let lo, hi = box in
    incr counter;
    queue := Pq.add (box_l1_lower ~lo ~hi, !counter) box !queue
  in
  let pop () =
    match Pq.min_binding_opt !queue with
    | None -> None
    | Some (key, box) ->
        queue := Pq.remove key !queue;
        Some box
  in
  push (initial_box m spec);
  let rec search () =
    match pop () with
    | None -> None
    | Some (lo, hi) -> (
        incr boxes;
        poll_budget budget !boxes;
        match classify m ~lo ~hi with
        | `Robust -> search ()
        | `All_flip | `Split _ ->
            if is_point ~lo ~hi then
              if flips_at_point m lo then
                (* Best-first order: the first flipping point popped has
                   the minimal L1 bound, hence minimal norm. *)
                Some (Array.copy lo)
              else search ()
            else begin
              let (lo1, hi1), (lo2, hi2) = split ~lo ~hi in
              push (lo1, hi1);
              push (lo2, hi2);
              search ()
            end)
  in
  match
    Resil.Budget.poll budget;
    search ()
  with
  | None -> None
  | Some point ->
      let v = vector_of_point spec ~n_inputs:(Array.length input) point in
      if Noise.predict net spec ~input v = label then
        failwith "Bnb: witness does not actually misclassify";
      Some (v, point_l1 point)

exception Limit_reached

let iter_box ~lo ~hi f =
  let n = Array.length lo in
  let point = Array.copy lo in
  let rec go d =
    if d = n then f point
    else
      for v = lo.(d) to hi.(d) do
        point.(d) <- v;
        go (d + 1)
      done
  in
  go 0

(* Points in a box, exact while they fit an int and [Huge] beyond; the
   product runs in {!Util.Bigcount.pow}'s order, so a whole uniform box
   equals {!Noise.spec_count} bit for bit. *)
let box_count ~lo ~hi =
  let vol = ref Util.Bigcount.one in
  for d = 0 to Array.length lo - 1 do
    let w = hi.(d) - lo.(d) + 1 in
    if w > 1 then vol := Util.Bigcount.mul !vol (Util.Bigcount.of_int w)
  done;
  !vol

(* Resumable walk. The depth-first search runs on an explicit stack of
   pending boxes so that its exact state is serializable: [pending] holds
   the boxes still to process, top first (pushing the left child last
   keeps the recursive left-first order). A budget stop only happens
   {e between} boxes (the poll precedes the pop, so the box being
   classified is either fully processed or still on the stack), so
   resuming from a cursor replays nothing and skips nothing. *)
type box = int array * int array

type 'a cursor = { pending : box list; found : 'a }

let box_to_json (lo, hi) =
  Util.Json.Obj [ ("lo", Util.Json.of_ints lo); ("hi", Util.Json.of_ints hi) ]

let read_box c =
  let module C = Util.Json.Cursor in
  let ints c = Array.of_list (C.list C.int c) in
  C.obj
    (fun f ->
      let lo = C.field f "lo" ints in
      let hi = C.field f "hi" ints in
      if Array.length lo <> Array.length hi then C.fail c "box arity";
      (lo, hi))
    c

let fresh_cursor (spec : Noise.spec) ~input found =
  let bias_dim = if spec.Noise.bias_noise then 1 else 0 in
  { pending = [ root_box spec (Array.length input + bias_dim) ]; found }

(* The walk shared by enumeration and counting. Every decided box goes to
   [leaf] with whether its points flip: a robust box, an all-flipping
   box, or a single point. [on_progress] runs every [progress_every]
   boxes, at a box boundary. An exception from [leaf] (the enumeration
   limit) propagates with [pending] already past the box that raised
   it.

   Exact boxes. When [propagate] relaxes no node on a box, every hidden
   node keeps one stable phase over it, so each margin's lower and upper
   forms are the same exact linear form. A sub-box keeps those phases
   (its node bounds lie inside the box's; a ReLU that is zero all over
   it may trade its form for the constant 0, which has the same values),
   so its margins are the same functions, and bounding a linear form
   over a box is exact at its corners: classifying the sub-box from the
   box's stored margin forms,
   at O(margins * dims), gives what [classify] would, with no
   propagation. When an exact box splits, the walk stores its forms and
   notes [floor], the stack depth below its two children. The stack is
   depth-first, so exactly the boxes popped while the depth stays at or
   above [floor] lie inside it; the first pop below ends the subtree.
   The visited boxes, their order, the poll cadence and [pending] are
   those of a walk that propagates every box; a resumed cursor starts
   with no floor and classifies the rest of a stopped subtree in full,
   to the same result. *)
let walk ?budget ~progress_every ~on_progress ~leaf m pending =
  if progress_every < 1 then invalid_arg "Bnb: progress_every must be >= 1";
  let boxes = ref 0 in
  let depth = ref (List.length !pending) in
  let floor = ref max_int in
  match
    Resil.Budget.poll budget;
    while not (List.is_empty !pending) do
      match !pending with
      | [] -> ()
      | (lo, hi) :: rest ->
          incr boxes;
          poll_budget budget !boxes;
          pending := rest;
          decr depth;
          let cls =
            if !depth >= !floor then verdict margin_stored m ~lo ~hi
            else begin
              floor := max_int;
              classify m ~lo ~hi
            end
          in
          (match cls with
          | `Robust -> leaf ~flips:false ~lo ~hi
          | `All_flip -> leaf ~flips:true ~lo ~hi
          | `Split _ ->
              if is_point ~lo ~hi then leaf ~flips:(flips_at_point m lo) ~lo ~hi
              else begin
                if !floor = max_int && m.exact then begin
                  store_forms m ~lo ~hi;
                  floor := !depth
                end;
                let box1, box2 = split ~lo ~hi in
                pending := box1 :: box2 :: !pending;
                depth := !depth + 2
              end);
          if !boxes mod progress_every = 0 then on_progress ()
    done
  with
  | () -> `Complete
  | exception Resil.Budget.Stopped r -> `Budget r

let enumerate_flips_from ?(limit = 10_000) ?budget ?(progress_every = 256)
    ?on_progress cursor net spec ~input ~label =
  let m = build net spec ~input ~label in
  let n_inputs = Array.length input in
  let pending = ref cursor.pending in
  let emitted = ref cursor.found in
  let fresh = ref [] in
  (* newly found this run, newest first *)
  let add point =
    if !emitted >= limit then raise Limit_reached;
    incr emitted;
    fresh := vector_of_point spec ~n_inputs point :: !fresh
  in
  let leaf ~flips ~lo ~hi = if flips then iter_box ~lo ~hi add in
  let cursor_now () = { pending = !pending; found = !emitted } in
  let on_progress =
    match on_progress with
    | Some f -> fun () -> f (cursor_now ()) (List.rev !fresh)
    | None -> ignore
  in
  let status =
    match walk ?budget ~progress_every ~on_progress ~leaf m pending with
    | (`Complete | `Budget _) as s -> s
    | exception Limit_reached -> `Truncated
  in
  (List.rev !fresh, status, cursor_now ())

let enumerate_flips ?limit ?budget net spec ~input ~label =
  let vectors, status, _ =
    enumerate_flips_from ?limit ?budget
      (fresh_cursor spec ~input 0)
      net spec ~input ~label
  in
  (vectors, status)

type mass = { flips : Util.Bigcount.t; kept : Util.Bigcount.t }

let no_mass = { flips = Util.Bigcount.zero; kept = Util.Bigcount.zero }

let count_flips_from ?budget ?on_progress cursor net spec ~input ~label =
  let m = build net spec ~input ~label in
  let pending = ref cursor.pending in
  let flips = ref cursor.found.flips and kept = ref cursor.found.kept in
  let leaf ~flips:f ~lo ~hi =
    let side = if f then flips else kept in
    side := Util.Bigcount.add !side (box_count ~lo ~hi)
  in
  let cursor_now () =
    { pending = !pending; found = { flips = !flips; kept = !kept } }
  in
  let on_progress =
    match on_progress with
    | Some f -> fun () -> f (cursor_now ())
    | None -> ignore
  in
  let status = walk ?budget ~progress_every:256 ~on_progress ~leaf m pending in
  (cursor_now (), status)

(* [box_count] as an int, saturating at [max_int]: the int view of a
   count needs no [Util.Bigcount]. *)
let box_volume ~lo ~hi =
  let vol = ref 1 in
  for d = 0 to Array.length lo - 1 do
    let w = hi.(d) - lo.(d) + 1 in
    if w > 1 then vol := if !vol > max_int / w then max_int else !vol * w
  done;
  !vol

let count_flips ?(limit = max_int) net spec ~input ~label =
  let m = build net spec ~input ~label in
  (* A saturated count reaches any [limit], so it reports [`Truncated]:
     a lower bound. *)
  let flips = ref 0 in
  let leaf ~flips:f ~lo ~hi =
    if f then begin
      let v = box_volume ~lo ~hi in
      flips := if v > max_int - !flips then max_int else !flips + v;
      if !flips >= limit then raise Limit_reached
    end
  in
  let pending = ref [ root_box spec m.n_dims ] in
  match walk ~progress_every:max_int ~on_progress:ignore ~leaf m pending with
  | `Complete -> (!flips, `Complete)
  | `Budget _ | (exception Limit_reached) -> (limit, `Truncated)
