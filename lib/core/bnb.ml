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
   hidden node, which [propagate] overwrites for every box, and one
   scratch node for the margins. A built model is therefore single-use
   per call: each search builds its own and keeps it on its domain, so
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
  out_coef : int array array;  (* per adversary *)
  out_const : int array;
  thr : int array;
  margin : node;  (* workspace: scratch for one margin at a time *)
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
  {
    n_dims;
    pre_const;
    pre_coef;
    act0 = layer0.Nn.Qnet.act;
    nodes0 = Array.map (fun row -> new_node row row) pre_coef;
    mid;
    out_coef;
    out_const;
    thr;
    margin = own_node n_dims;
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
   An unstable Sign collapses to the constant envelope [-1, 1]. *)
let relax act s =
  match act with
  | Nn.Qnet.Identity -> ()
  | Nn.Qnet.Sign ->
      if s.lob >= 0 then set_range s 1 1
      else if s.upb < 0 then set_range s (-1) (-1)
      else set_range s (-1) 1
  | Nn.Qnet.Relu ->
      if s.lob >= 0 then ()
      else if s.upb <= 0 then set_range s 0 0
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
        s.lob <- 0
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
   in the workspace; returns the last hidden layer's nodes. *)
let propagate m ~lo ~hi =
  Array.iteri
    (fun k s ->
      let const = m.pre_const.(k) in
      s.lo_lin <- true;
      s.up_lin <- true;
      s.lo_c <- const;
      s.up_c <- const;
      s.lob <- eval_lower const s.lo_k ~lo ~hi;
      s.upb <- eval_upper const s.up_k ~lo ~hi;
      relax m.act0 s)
    m.nodes0;
  Array.fold_left
    (fun post (l : slayer) ->
      Array.iteri
        (fun k s ->
          combine l.w.(k) post l.b.(k) s ~lo ~hi;
          relax l.act s)
        l.nodes;
      l.nodes)
    m.nodes0 m.mid

(* Box classification: [`Robust] (no point flips), [`All_flip] (every
   point flips), or [`Split] with the worst lower-bound slack (used to
   order children). *)
let classify m ~lo ~hi =
  let post = propagate m ~lo ~hi in
  let robust = ref true in
  let worst_slack = ref max_int in
  let all_flip = ref false in
  let s = m.margin in
  for j = 0 to n_margins m - 1 do
    if not !all_flip then begin
      combine m.out_coef.(j) post m.out_const.(j) s ~lo ~hi;
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
  let rec go d = d >= Array.length lo || (lo.(d) = hi.(d) && go (d + 1)) in
  go 0

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

let initial_box ?box m (spec : Noise.spec) =
  match box with
  | None ->
      ( Array.make m.n_dims spec.Noise.delta_lo,
        Array.make m.n_dims spec.Noise.delta_hi )
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

(* Saturating at [max_int], as {!Noise.spec_size} does: a 64-input box at
   delta 1 already holds 3^64 points. *)
let sat_add a b = if a > max_int - b then max_int else a + b

let box_volume ~lo ~hi =
  let vol = ref 1 in
  for d = 0 to Array.length lo - 1 do
    let w = hi.(d) - lo.(d) + 1 in
    vol := if !vol > max_int / w then max_int else !vol * w
  done;
  !vol

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

(* Resumable enumeration. The DFS is run on an explicit stack of pending
   boxes so that the exact search state is serializable: [pending] holds
   the boxes still to process (top first — pushing the left child last
   preserves the recursive left-first order), [emitted] the number of
   flips already produced across all runs. A budget stop only happens
   {e between} boxes (the box being classified is either fully processed
   or still on the stack), so resuming from a cursor replays nothing and
   skips nothing — the concatenated output is bit-identical to an
   uninterrupted run. *)
type cursor = {
  pending : (int array * int array) list;
  emitted : int;
}

let fresh_cursor net spec ~input ~label =
  let m = build net spec ~input ~label in
  { pending = [ initial_box m spec ]; emitted = 0 }

let enumerate_flips_from ?(limit = 10_000) ?budget ?(progress_every = 256)
    ?on_progress cursor net spec ~input ~label =
  if progress_every < 1 then invalid_arg "Bnb: progress_every must be >= 1";
  let m = build net spec ~input ~label in
  let n_inputs = Array.length input in
  let pending = ref cursor.pending in
  let emitted = ref cursor.emitted in
  let fresh = ref [] in
  (* newly found this run, newest first *)
  let boxes = ref 0 in
  let add point =
    if !emitted >= limit then raise Limit_reached;
    incr emitted;
    fresh := vector_of_point spec ~n_inputs point :: !fresh
  in
  let cursor_now () = { pending = !pending; emitted = !emitted } in
  let rec loop () =
    match !pending with
    | [] -> `Complete
    | (lo, hi) :: rest ->
        incr boxes;
        (* Poll before the pop: on a stop the current box stays pending
           and the cursor is exact. *)
        poll_budget budget !boxes;
        pending := rest;
        (match classify m ~lo ~hi with
        | `Robust -> ()
        | `All_flip -> iter_box ~lo ~hi add
        | `Split _ ->
            if is_point ~lo ~hi then begin
              if flips_at_point m lo then add lo
            end
            else begin
              let box1, box2 = split ~lo ~hi in
              pending := box1 :: box2 :: !pending
            end);
        (match on_progress with
        | Some f when !boxes mod progress_every = 0 ->
            f (cursor_now ()) (List.rev !fresh)
        | Some _ | None -> ());
        loop ()
  in
  let status =
    match
      Resil.Budget.poll budget;
      loop ()
    with
    | s -> s
    | exception Limit_reached -> `Truncated
    | exception Resil.Budget.Stopped r -> `Budget r
  in
  (List.rev !fresh, status, cursor_now ())

let enumerate_flips ?limit ?budget net spec ~input ~label =
  let vectors, status, _ =
    enumerate_flips_from ?limit ?budget
      (fresh_cursor net spec ~input ~label)
      net spec ~input ~label
  in
  (vectors, status)

let count_flips ?(limit = max_int) net spec ~input ~label =
  let m = build net spec ~input ~label in
  let count = ref 0 in
  (* A saturated count reaches any [limit], so it reports [`Truncated]:
     a lower bound. *)
  let add n =
    count := sat_add !count n;
    if !count >= limit then raise Limit_reached
  in
  let rec go ~lo ~hi =
    match classify m ~lo ~hi with
    | `Robust -> ()
    | `All_flip -> add (box_volume ~lo ~hi)
    | `Split _ ->
        if is_point ~lo ~hi then begin
          if flips_at_point m lo then add 1
        end
        else begin
          let (lo1, hi1), (lo2, hi2) = split ~lo ~hi in
          go ~lo:lo1 ~hi:hi1;
          go ~lo:lo2 ~hi:hi2
        end
  in
  let lo, hi = initial_box m spec in
  match go ~lo ~hi with
  | () -> (!count, `Complete)
  | exception Limit_reached -> (!count, `Truncated)
