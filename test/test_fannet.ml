(* Tests for the fannet core: noise model, symbolic encoding, backend
   agreement (Bnb vs SMT vs explicit vs interval), tolerance search,
   extraction, bias/sensitivity/boundary analyses, baseline, pipeline. *)

module N = Fannet.Noise
module B = Fannet.Backend

(* ---------- fixtures ---------- *)

let tiny_qnet () =
  Nn.Qnet.create
    [|
      { Nn.Qnet.weights = [| [| 3; -2 |]; [| -1; 2 |] |]; bias = [| 1; 0 |]; act = Nn.Qnet.Relu };
      { Nn.Qnet.weights = [| [| 2; -1 |]; [| -1; 2 |] |]; bias = [| 0; 1 |]; act = Nn.Qnet.Identity };
    |]

(* Random small network generator for property tests: 2-3 inputs, 2-4
   hidden relu neurons, 2 identity outputs. *)
let qnet_gen =
  let open QCheck.Gen in
  let* n_in = int_range 2 3 in
  let* n_hidden = int_range 2 4 in
  let weight = int_range (-8) 8 in
  let* w1 = array_size (return n_hidden) (array_size (return n_in) weight) in
  let* b1 = array_size (return n_hidden) (int_range (-30) 30) in
  let* w2 = array_size (return 2) (array_size (return n_hidden) weight) in
  let* b2 = array_size (return 2) (int_range (-10) 10) in
  let* input = array_size (return n_in) (int_range 1 60) in
  let net =
    Nn.Qnet.create
      [|
        { Nn.Qnet.weights = w1; bias = b1; act = Nn.Qnet.Relu };
        { Nn.Qnet.weights = w2; bias = b2; act = Nn.Qnet.Identity };
      |]
  in
  return (net, input)

let arb_qnet =
  QCheck.make
    ~print:(fun ((net : Nn.Qnet.t), input) ->
      Printf.sprintf "net %dx%d input [%s]" (Nn.Qnet.in_dim net)
        (Nn.Qnet.out_dim net)
        (String.concat ";" (Array.to_list (Array.map string_of_int input))))
    qnet_gen

(* ---------- noise model ---------- *)

let test_spec_symmetric () =
  let spec = N.symmetric ~delta:5 ~bias_noise:true in
  Alcotest.(check int) "lo" (-5) spec.N.delta_lo;
  Alcotest.(check int) "hi" 5 spec.N.delta_hi;
  Alcotest.check_raises "negative" (Invalid_argument "Noise.symmetric: negative delta")
    (fun () -> ignore (N.symmetric ~delta:(-1) ~bias_noise:false))

let test_spec_size () =
  let spec = N.symmetric ~delta:1 ~bias_noise:false in
  Alcotest.(check int) "3^2" 9 (N.spec_size spec ~n_inputs:2);
  let spec_b = N.symmetric ~delta:1 ~bias_noise:true in
  Alcotest.(check int) "3^3" 27 (N.spec_size spec_b ~n_inputs:2);
  let big = N.symmetric ~delta:50 ~bias_noise:true in
  Alcotest.(check bool) "saturates" true (N.spec_size big ~n_inputs:20 = max_int)

let test_in_range () =
  let spec = N.symmetric ~delta:2 ~bias_noise:false in
  Alcotest.(check bool) "ok" true (N.in_range spec { N.bias = 0; inputs = [| 1; -2 |] });
  Alcotest.(check bool) "input too big" false
    (N.in_range spec { N.bias = 0; inputs = [| 3; 0 |] });
  Alcotest.(check bool) "bias must be 0 when disabled" false
    (N.in_range spec { N.bias = 1; inputs = [| 0; 0 |] })

let test_apply_zero_noise_scales () =
  (* apply with the zero vector = 100 * plain forward. *)
  let net = tiny_qnet () in
  let input = [| 7; 11 |] in
  let plain = Nn.Qnet.forward net input in
  let spec = N.symmetric ~delta:5 ~bias_noise:false in
  let noisy = N.apply net spec ~input (N.zero ~n_inputs:2) in
  Alcotest.(check (array int)) "x100" (Array.map (fun v -> v * 100) plain) noisy;
  Alcotest.(check int) "same prediction" (Nn.Qnet.predict net input)
    (N.predict net spec ~input (N.zero ~n_inputs:2));
  (* Absolute noise at the zero vector = plain forward at scale 1. *)
  let abs_spec = N.absolute ~delta:5 ~bias_noise:false in
  Alcotest.(check (array int)) "absolute x1" plain
    (N.apply net abs_spec ~input (N.zero ~n_inputs:2))

let test_apply_hand_computed () =
  (* One-input one-hidden identity check of the exact formula. *)
  let net =
    Nn.Qnet.create
      [|
        { Nn.Qnet.weights = [| [| 2 |] |]; bias = [| 3 |]; act = Nn.Qnet.Relu };
        { Nn.Qnet.weights = [| [| 1 |]; [| -1 |] |]; bias = [| 0; 0 |]; act = Nn.Qnet.Identity };
      |]
  in
  (* x = 10, noise +7% on the input, +0 bias:
     pre = 3*100 + 2*10*(100+7) = 300 + 2140 = 2440; o = (2440, -2440). *)
  let spec = N.symmetric ~delta:50 ~bias_noise:true in
  let v = { N.bias = 0; inputs = [| 7 |] } in
  Alcotest.(check (array int)) "outputs" [| 2440; -2440 |]
    (N.apply net spec ~input:[| 10 |] v);
  (* Bias noise -50%: pre = 3*50 + 2140 = 2290. *)
  let vb = { N.bias = -50; inputs = [| 7 |] } in
  Alcotest.(check (array int)) "bias noise" [| 2290; -2290 |]
    (N.apply net spec ~input:[| 10 |] vb);
  (* Absolute noise +7 units: pre = 3 + 2*(10+7) = 37; o = (37, -37). *)
  let abs_spec = N.absolute ~delta:50 ~bias_noise:true in
  Alcotest.(check (array int)) "absolute" [| 37; -37 |]
    (N.apply net abs_spec ~input:[| 10 |] v)

let test_iter_vectors_complete () =
  let spec = N.symmetric ~delta:1 ~bias_noise:true in
  let seen = ref [] in
  N.iter_vectors spec ~n_inputs:2 (fun v -> seen := v :: !seen);
  Alcotest.(check int) "27 vectors" 27 (List.length !seen);
  let distinct = List.sort_uniq N.compare !seen in
  Alcotest.(check int) "all distinct" 27 (List.length distinct);
  Alcotest.(check bool) "all in range" true (List.for_all (N.in_range spec) !seen)

let test_noise_compare_hash () =
  let v bias inputs = { N.bias; inputs } in
  let spec = N.symmetric ~delta:2 ~bias_noise:true in
  let all = ref [] in
  N.iter_vectors spec ~n_inputs:2 (fun x -> all := x :: !all);
  (* The monomorphic compare is a total order agreeing with the
     polymorphic structural one it replaced. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int)
            "sign matches Stdlib.compare"
            (Stdlib.compare (Stdlib.compare a b) 0)
            (Stdlib.compare (N.compare a b) 0))
        !all)
    !all;
  Alcotest.(check int) "equal" 0 (N.compare (v 1 [| 2; -1 |]) (v 1 [| 2; -1 |]));
  Alcotest.(check bool) "shorter sorts first" true
    (N.compare (v 0 [| 9 |]) (v 0 [| 0; 0 |]) < 0);
  (* Hash: consistent with equality, and spreading on a real vector set. *)
  Alcotest.(check int) "hash of equal vectors" (N.hash (v 3 [| -2; 5 |]))
    (N.hash (v 3 [| -2; 5 |]));
  Alcotest.(check bool) "hash non-negative" true
    (List.for_all (fun x -> N.hash x >= 0) !all);
  let distinct_hashes =
    List.sort_uniq Stdlib.compare (List.map N.hash !all)
  in
  Alcotest.(check bool) "few collisions over the range" true
    (List.length distinct_hashes > (9 * List.length !all) / 10)

(* ---------- symbolic encoding vs concrete semantics ---------- *)

let assignment_of_vector (enc : Fannet.Encode.t) (v : N.vector) =
  (match enc.Fannet.Encode.bias_var with
  | Some d0 -> [ (d0, v.N.bias) ]
  | None -> [])
  @ Array.to_list
      (Array.mapi (fun i var -> (var, v.N.inputs.(i))) enc.Fannet.Encode.input_vars)

let prop_encode_matches_concrete =
  QCheck.Test.make ~name:"encoded outputs equal concrete noisy forward" ~count:200
    (QCheck.pair arb_qnet (QCheck.make QCheck.Gen.(pair (int_range (-9) 9) bool)))
    (fun (((net : Nn.Qnet.t), input), (seedish, bias_noise)) ->
      let spec = N.symmetric ~delta:9 ~bias_noise in
      let enc = Fannet.Encode.encode net ~input spec in
      (* Derive a deterministic noise vector from seedish. *)
      let rng = Util.Rng.create (seedish + 100) in
      let v =
        {
          N.bias = (if bias_noise then Util.Rng.int_in rng (-9) 9 else 0);
          inputs = Array.init (Array.length input) (fun _ -> Util.Rng.int_in rng (-9) 9);
        }
      in
      let asg = assignment_of_vector enc v in
      let symbolic =
        Array.map (Smtlite.Term.eval_term asg) enc.Fannet.Encode.outputs
      in
      symbolic = N.apply net spec ~input v)

let prop_misclassified_formula_semantics =
  QCheck.Test.make ~name:"misclassified formula = (predict <> label)" ~count:200
    arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      let spec = N.symmetric ~delta:5 ~bias_noise:false in
      let enc = Fannet.Encode.encode net ~input spec in
      let rng = Util.Rng.create 7 in
      let ok = ref true in
      for label = 0 to 1 do
        for _trial = 1 to 10 do
          let v =
            { N.bias = 0;
              inputs = Array.init (Array.length input) (fun _ -> Util.Rng.int_in rng (-5) 5) }
          in
          let asg = assignment_of_vector enc v in
          let formula = Fannet.Encode.misclassified enc ~true_label:label in
          let symbolic = Smtlite.Term.eval_formula asg formula in
          let concrete = N.predict net spec ~input v <> label in
          if symbolic <> concrete then ok := false
        done
      done;
      !ok)

(* ---------- backend agreement ---------- *)

let verdict_flips = function
  | B.Flip _ -> true
  | B.Robust -> false
  | B.Unknown _ -> Alcotest.fail "unexpected unknown from complete backend"

let prop_backends_agree =
  QCheck.Test.make ~name:"bnb = explicit = smt on small ranges" ~count:60 arb_qnet
    (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      List.for_all
        (fun (delta, bias_noise) ->
          let spec = N.symmetric ~delta ~bias_noise in
          let explicit =
            verdict_flips
              (B.exists_flip (B.Explicit { limit = 1_000_000 }) net spec ~input ~label)
          in
          let bnb = verdict_flips (B.exists_flip B.Bnb net spec ~input ~label) in
          let smt = verdict_flips (B.exists_flip B.Smt net spec ~input ~label) in
          explicit = bnb && explicit = smt)
        [ (1, false); (2, false); (2, true) ])

(* Deep (3-4 layer) and binarized networks built from a recorded seed
   through Util.Rng, so a property failure prints one replayable int.
   One network in three is fully binarized (all-Sign hidden layers,
   weights in {-1, 1}); the rest mix ReLU and Sign hidden layers. *)
let deep_net_of_seed seed =
  let module R = Util.Rng in
  let rng = R.create seed in
  let depth = R.int_in rng 3 4 in
  let binarized = R.int rng 3 = 0 in
  let n_in = R.int_in rng 2 3 in
  let dims =
    Array.init (depth + 1) (fun i ->
        if i = 0 then n_in else if i = depth then 2 else R.int_in rng 2 3)
  in
  let weight () =
    if binarized then if R.bool rng then 1 else -1 else R.int_in rng (-8) 8
  in
  let net =
    Nn.Qnet.create
      (Array.init depth (fun li ->
           let rows = dims.(li + 1) and cols = dims.(li) in
           let last = li = depth - 1 in
           {
             Nn.Qnet.weights =
               Array.init rows (fun _ -> Array.init cols (fun _ -> weight ()));
             bias = Array.init rows (fun _ -> R.int_in rng (-20) 20);
             act =
               (if last then Nn.Qnet.Identity
                else if binarized || R.int rng 3 = 0 then Nn.Qnet.Sign
                else Nn.Qnet.Relu);
           }))
  in
  let input = Array.init n_in (fun _ -> R.int_in rng 1 60) in
  (net, input)

let arb_deep_seed =
  QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let prop_deep_backends_agree =
  QCheck.Test.make ~name:"deep/binarized: bnb = explicit = smt" ~count:40
    arb_deep_seed (fun seed ->
      let net, input = deep_net_of_seed seed in
      let label = Nn.Qnet.predict net input in
      List.for_all
        (fun (delta, bias_noise) ->
          let spec = N.symmetric ~delta ~bias_noise in
          let explicit =
            verdict_flips
              (B.exists_flip (B.Explicit { limit = 1_000_000 }) net spec ~input ~label)
          in
          let bnb = verdict_flips (B.exists_flip B.Bnb net spec ~input ~label) in
          let smt = verdict_flips (B.exists_flip B.Smt net spec ~input ~label) in
          explicit = bnb && explicit = smt)
        [ (1, false); (2, true) ])

let test_bnb_midpoint_floor_negative_box () =
  (* Regression: the box midpoint used truncating division, which rounds
     toward zero on negative coordinates — the All_flip witness on this
     all-negative box came back as -2 where floor semantics give -3, and
     splits near the boundary could produce an empty child box. The
     network makes every point of the restricted box [-4,-1] flip (o0 =
     x + d > 0 = o1 while the claimed label is 1), so the verdict is the
     box midpoint itself. *)
  let net =
    Nn.Qnet.create
      [|
        { Nn.Qnet.weights = [| [| 1 |] |]; bias = [| 0 |]; act = Nn.Qnet.Identity };
        {
          Nn.Qnet.weights = [| [| 1 |]; [| 0 |] |];
          bias = [| 0; 0 |];
          act = Nn.Qnet.Identity;
        };
      |]
  in
  let spec = N.absolute ~delta:4 ~bias_noise:false in
  match
    Fannet.Bnb.exists_flip ~box:[| (-4, -1) |] net spec ~input:[| 10 |] ~label:1
  with
  | Fannet.Bnb.Flip v ->
      Alcotest.(check (array int)) "floor midpoint" [| -3 |] v.N.inputs
  | Fannet.Bnb.Robust | Fannet.Bnb.Unknown _ -> Alcotest.fail "expected a flip"

(* The other three searches on the same deep and binarized nets,
   against brute force. Sign layers are where constant sides dominate the
   symbolic bounds, so these exercise the constant-side shortcuts of the
   bound propagation. *)
let prop_deep_searches_agree =
  QCheck.Test.make ~name:"deep/binarized: enumerate, count, min_l1 = brute force"
    ~count:40 arb_deep_seed (fun seed ->
      let net, input = deep_net_of_seed seed in
      let label = Nn.Qnet.predict net input in
      List.for_all
        (fun (delta, bias_noise) ->
          let spec = N.symmetric ~delta ~bias_noise in
          let brute =
            Fannet.Extract.explicit_for_input net spec ~input ~label ~input_index:0
              ~limit:1_000_000
            |> List.map (fun (c : Fannet.Extract.counterexample) -> c.vector)
          in
          let vectors, st = Fannet.Bnb.enumerate_flips ~limit:1_000_000 net spec ~input ~label in
          let count, st_count = Fannet.Bnb.count_flips net spec ~input ~label in
          let l1 (v : N.vector) =
            abs v.N.bias + Array.fold_left (fun a d -> a + abs d) 0 v.N.inputs
          in
          let min_l1_ok =
            match Fannet.Bnb.min_l1_flip net spec ~input ~label with
            | None -> brute = []
            | Some (v, norm) ->
                norm = l1 v
                && N.predict net spec ~input v <> label
                && norm = List.fold_left (fun acc v -> min acc (l1 v)) max_int brute
          in
          st = `Complete
          && List.sort N.compare vectors = List.sort N.compare brute
          && st_count = `Complete
          && count = List.length vectors
          && min_l1_ok)
        [ (1, false); (2, true) ])

(* Pinned search trees: for the eight 64-input ladder probes of the
   benchmark round (robust and fragile input of each 3- and 4-layer rung,
   delta 1), the exact verdict with its witness and the smallest
   [~max_boxes] that decides the query. [max_boxes] counts visited boxes,
   so an equal minimum shows the search visits the same tree. A witness
   is written one character per input node: [-], [0] or [+]. *)
let ladder_golden =
  [
    ("relu-quantized/64x3", `Robust, 1, None);
    ( "relu-quantized/64x3",
      `Fragile,
      75,
      Some "0+0--+++----++--+---++----+++----+-+--+++-++++++--+---+-+----+++" );
    ("relu-quantized/64x4", `Robust, 1, None);
    ("relu-quantized/64x4", `Fragile, 1, None);
    ("binarized/64x3", `Robust, 1, None);
    ( "binarized/64x3",
      `Fragile,
      129,
      Some "---------------------------------------------------0-000-0000--0" );
    ( "binarized/64x4",
      `Robust,
      129,
      Some "-----------------------------------------------0-0--0--000--0--0" );
    ( "binarized/64x4",
      `Fragile,
      129,
      Some "----------------------------------0-0-00-00--0000---0-00-00--0--" );
  ]

let test_ladder_search_trees_pinned () =
  let spec = N.symmetric ~delta:1 ~bias_noise:false in
  let rungs =
    List.concat_map
      (fun family ->
        List.map
          (fun n_layers -> Nn.Ladder.rung ~family ~n_inputs:64 ~n_layers ~seed:60)
          [ 3; 4 ])
      Nn.Ladder.families
  in
  let signs (v : N.vector) =
    String.concat ""
      (List.map
         (function -1 -> "-" | 0 -> "0" | 1 -> "+" | d -> string_of_int d)
         (Array.to_list v.N.inputs))
  in
  List.iter
    (fun (id, probe, boxes, witness) ->
      let r = List.find (fun r -> Nn.Ladder.rung_id r = id) rungs in
      let input = match probe with `Robust -> r.Nn.Ladder.input | `Fragile -> r.fragile in
      let label = Nn.Qnet.predict r.qnet input in
      let name = id ^ match probe with `Robust -> " robust" | `Fragile -> " fragile" in
      let verdict ?max_boxes () =
        match Fannet.Bnb.exists_flip ?max_boxes r.qnet spec ~input ~label with
        | Fannet.Bnb.Robust -> None
        | Fannet.Bnb.Flip v -> Some (signs v)
        | Fannet.Bnb.Unknown _ -> Alcotest.fail (name ^ ": unexpected Unknown")
      in
      Alcotest.(check (option string)) name witness (verdict ());
      Alcotest.(check (option string)) (name ^ " within max_boxes") witness
        (verdict ~max_boxes:boxes ());
      Alcotest.check_raises (name ^ " needs max_boxes") Fannet.Bnb.Budget_exceeded
        (fun () -> ignore (verdict ~max_boxes:(boxes - 1) ())))
    ladder_golden

(* ---------- the Bnb walk, pinned ---------- *)

(* The default pipeline network and its 32 analysis inputs, built once. *)
let pipeline =
  lazy
    (let p = Fannet.Pipeline.run () in
     (p.Fannet.Pipeline.qnet, Fannet.Pipeline.analysis_inputs p))

let vector_line (v : N.vector) =
  Printf.sprintf "%d|%s\n" v.N.bias
    (String.concat "," (Array.to_list (Array.map string_of_int v.N.inputs)))

let walk_status = function
  | `Complete -> "complete"
  | `Truncated -> "truncated"
  | `Budget _ -> "budget"

let md5 b = Digest.to_hex (Digest.string (Buffer.contents b))

(* The digests below were captured from the walk that propagated every
   box through the whole network. Classifying an exact box's sub-boxes
   from its stored margin forms must visit the same boxes in the same
   order, so every vector comes back in the same place. *)
let test_extract_corpus_pinned () =
  let net, inputs = Lazy.force pipeline in
  let corpus, status =
    Fannet.Extract.for_inputs ~jobs:1 net (N.symmetric ~delta:15 ~bias_noise:true)
      ~inputs
  in
  let b = Buffer.create 1_000_000 in
  List.iter
    (fun (c : Fannet.Extract.counterexample) ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %d " c.input_index c.true_label c.predicted);
      Buffer.add_string b (vector_line c.vector))
    corpus;
  Alcotest.(check int) "vectors" 30_132 (List.length corpus);
  Alcotest.(check string) "status" "truncated" (Fannet.Extract.status_to_string status);
  Alcotest.(check string) "ordered corpus" "927f066e8304d8f26603fa052045079a" (md5 b)

(* (delta, bias noise, enumeration digest, count digest) over the 32
   inputs: [enumerate_flips ~limit:2_000] lists each input's status,
   size and vectors in order; [count_flips ~limit:1_000_000] its count
   and status (inputs 19 and 23 reach the limit at +-15). *)
let walk_grid_golden =
  [
    (5, true, "59927f7e0d502ee8a1b3a923a49910cc", "51a17045b8022f728170872bda59845f");
    (11, false, "59927f7e0d502ee8a1b3a923a49910cc", "51a17045b8022f728170872bda59845f");
    (15, true, "11ae6993950c8703685ad61afed05e90", "b76eb8d2a0b159983dbf630980acf98e");
  ]

let test_walk_grid_pinned () =
  let net, inputs = Lazy.force pipeline in
  List.iter
    (fun (delta, bias_noise, enum_md5, count_md5) ->
      let spec = N.symmetric ~delta ~bias_noise in
      let be = Buffer.create 100_000 and bc = Buffer.create 1_000 in
      Array.iteri
        (fun i (input, label) ->
          let vs, st = Fannet.Bnb.enumerate_flips ~limit:2_000 net spec ~input ~label in
          Buffer.add_string be
            (Printf.sprintf "#%d %s %d\n" i (walk_status st) (List.length vs));
          List.iter (fun v -> Buffer.add_string be (vector_line v)) vs;
          let n, st = Fannet.Bnb.count_flips ~limit:1_000_000 net spec ~input ~label in
          Buffer.add_string bc (Printf.sprintf "#%d %d %s\n" i n (walk_status st)))
        inputs;
      let name = Printf.sprintf "+-%d bias=%b" delta bias_noise in
      Alcotest.(check string) (name ^ " enumerate") enum_md5 (md5 be);
      Alcotest.(check string) (name ^ " count") count_md5 (md5 bc))
    walk_grid_golden

(* Nets whose hidden layers are all Identity: every node is stable on
   every box, so the root box is exact and the whole walk below it is
   classified from the root's margin forms. *)
let identity_net_gen =
  let open QCheck.Gen in
  let* n_in = int_range 2 3 in
  let* widths = list_size (int_range 1 2) (int_range 2 3) in
  let weight = int_range (-8) 8 in
  let dims = Array.of_list ((n_in :: widths) @ [ 2 ]) in
  let* layers =
    flatten_l
      (List.init (Array.length dims - 1) (fun li ->
           let rows = dims.(li + 1) and cols = dims.(li) in
           let* weights = array_size (return rows) (array_size (return cols) weight) in
           let* bias = array_size (return rows) (int_range (-30) 30) in
           return { Nn.Qnet.weights; bias; act = Nn.Qnet.Identity }))
  in
  let* input = array_size (return n_in) (int_range 1 60) in
  return (Nn.Qnet.create (Array.of_list layers), input)

let arb_identity_net =
  QCheck.make
    ~print:(fun ((net : Nn.Qnet.t), input) ->
      Printf.sprintf "net %s input [%s]" (Nn.Qnet.to_string net)
        (String.concat ";" (Array.to_list (Array.map string_of_int input))))
    identity_net_gen

let prop_identity_walk_equals_explicit =
  QCheck.Test.make ~name:"identity hidden layers: enumerate, count = brute force"
    ~count:60 arb_identity_net (fun ((net : Nn.Qnet.t), input) ->
      List.for_all
        (fun (label, delta, bias_noise) ->
          let spec = N.symmetric ~delta ~bias_noise in
          let brute =
            Fannet.Extract.explicit_for_input net spec ~input ~label ~input_index:0
              ~limit:1_000_000
            |> List.map (fun (c : Fannet.Extract.counterexample) -> c.vector)
          in
          let vectors, st = Fannet.Bnb.enumerate_flips ~limit:1_000_000 net spec ~input ~label in
          let count, st_count = Fannet.Bnb.count_flips net spec ~input ~label in
          st = `Complete
          && List.sort N.compare vectors = List.sort N.compare brute
          && st_count = `Complete
          && count = List.length brute)
        [ (Nn.Qnet.predict net input, 3, false); (0, 2, true); (1, 4, false) ])

(* A stop inside an exact subtree leaves boxes whose margin forms only
   the stopped walk held; the resumed walk classifies them afresh and
   must end where the uninterrupted walk ends. *)
let test_resume_inside_exact_subtree () =
  let net =
    Nn.Qnet.create
      [|
        {
          Nn.Qnet.weights = [| [| 3; -2 |]; [| -1; 2 |]; [| 2; 1 |] |];
          bias = [| 1; 0; -4 |];
          act = Nn.Qnet.Identity;
        };
        {
          Nn.Qnet.weights = [| [| 2; -1; 1 |]; [| -1; 2; 2 |] |];
          bias = [| 0; 1 |];
          act = Nn.Qnet.Identity;
        };
      |]
  in
  let input = [| 21; 17 |] in
  let label = Nn.Qnet.predict net input in
  let spec = N.symmetric ~delta:60 ~bias_noise:true in
  let fresh found = Fannet.Bnb.fresh_cursor spec ~input found in
  (* Cancels the budget at the first progress call; the walk stops at
     its next poll, between two boxes of the root's exact subtree. *)
  let stopper () =
    let budget = Resil.Budget.unlimited () in
    (budget, fun _ -> Resil.Budget.cancel (Resil.Budget.cancellation budget))
  in
  let all, st, _ =
    Fannet.Bnb.enumerate_flips_from ~limit:max_int (fresh 0) net spec ~input ~label
  in
  Alcotest.(check bool) "uninterrupted enumeration complete" true (st = `Complete);
  let budget, stop = stopper () in
  let head, st, cursor =
    Fannet.Bnb.enumerate_flips_from ~limit:max_int ~budget ~progress_every:100
      ~on_progress:(fun c _ -> stop c)
      (fresh 0) net spec ~input ~label
  in
  Alcotest.(check bool) "enumeration stopped" true
    (match st with `Budget _ -> true | _ -> false);
  Alcotest.(check bool) "boxes left" true (cursor.Fannet.Bnb.pending <> []);
  let tail, st, _ =
    Fannet.Bnb.enumerate_flips_from ~limit:max_int cursor net spec ~input ~label
  in
  Alcotest.(check bool) "resumed enumeration complete" true (st = `Complete);
  Alcotest.(check bool) "resumed = uninterrupted" true
    (List.equal N.equal all (head @ tail));
  let whole, st = Fannet.Bnb.count_flips_from (fresh Fannet.Bnb.no_mass) net spec ~input ~label in
  Alcotest.(check bool) "uninterrupted count complete" true (st = `Complete);
  let budget, stop = stopper () in
  let part, st =
    Fannet.Bnb.count_flips_from ~budget ~on_progress:stop
      (fresh Fannet.Bnb.no_mass) net spec ~input ~label
  in
  Alcotest.(check bool) "count stopped" true
    (match st with `Budget _ -> true | _ -> false);
  Alcotest.(check bool) "count boxes left" true (part.Fannet.Bnb.pending <> []);
  let resumed, st = Fannet.Bnb.count_flips_from part net spec ~input ~label in
  Alcotest.(check bool) "resumed count complete" true (st = `Complete);
  let mass (c : Fannet.Bnb.mass Fannet.Bnb.cursor) =
    ( Util.Bigcount.to_string c.Fannet.Bnb.found.Fannet.Bnb.flips,
      Util.Bigcount.to_string c.Fannet.Bnb.found.Fannet.Bnb.kept )
  in
  Alcotest.(check (pair string string)) "resumed mass" (mass whole) (mass resumed);
  Alcotest.(check int) "flips counted = enumerated" (List.length all)
    (int_of_string (fst (mass whole)))

let test_count_flips_saturates () =
  (* Regression: box volumes were multiplied without saturating. With the
     label flipped, the whole 3^64 box of this rung flips, and the count
     wrapped to -490285925142708991 reported as Complete. A saturated
     count is a lower bound. *)
  let r =
    Nn.Ladder.rung ~family:Nn.Ladder.Relu_quantized ~n_inputs:64 ~n_layers:3 ~seed:60
  in
  let input = r.Nn.Ladder.input in
  let label = 1 - Nn.Qnet.predict r.qnet input in
  let spec = N.symmetric ~delta:1 ~bias_noise:false in
  let count, status = Fannet.Bnb.count_flips r.qnet spec ~input ~label in
  Alcotest.(check int) "saturated count" max_int count;
  Alcotest.(check bool) "truncated" true (status = `Truncated)

let prop_interval_sound_wrt_explicit =
  QCheck.Test.make ~name:"interval Robust implies explicit Robust" ~count:100
    arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      List.for_all
        (fun delta ->
          let spec = N.symmetric ~delta ~bias_noise:false in
          match B.exists_flip B.Interval net spec ~input ~label with
          | B.Robust ->
              not
                (verdict_flips
                   (B.exists_flip (B.Explicit { limit = 1_000_000 }) net spec
                      ~input ~label))
          | B.Unknown _ -> true
          | B.Flip _ -> false (* interval backend never produces witnesses *))
        [ 1; 3 ])

let prop_cascade_agrees_bnb =
  QCheck.Test.make ~name:"cascade(bnb) = bnb on randomized networks" ~count:80
    arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      List.for_all
        (fun (delta, bias_noise) ->
          let spec = N.symmetric ~delta ~bias_noise in
          verdict_flips (B.exists_flip (B.Cascade B.Bnb) net spec ~input ~label)
          = verdict_flips (B.exists_flip B.Bnb net spec ~input ~label))
        [ (1, false); (2, false); (3, true); (5, false) ])

let test_cascade_stats_accounting () =
  let net = tiny_qnet () in
  let inputs =
    Array.map (fun x -> (x, Nn.Qnet.predict net x)) [| [| 5; 9 |]; [| 50; 3 |]; [| 10; 12 |] |]
  in
  B.reset_cascade_stats ();
  let n_queries = ref 0 in
  List.iter
    (fun delta ->
      let spec = N.symmetric ~delta ~bias_noise:false in
      Array.iter
        (fun (input, label) ->
          incr n_queries;
          ignore (B.exists_flip (B.Cascade B.Bnb) net spec ~input ~label))
        inputs)
    [ 1; 10; 30 ];
  let s = B.cascade_stats () in
  Alcotest.(check int) "hits + escalations = queries" !n_queries
    (s.B.interval_hits + s.B.escalations);
  let rate = B.cascade_hit_rate s in
  Alcotest.(check bool) "rate in [0,1]" true (rate >= 0. && rate <= 1.);
  B.reset_cascade_stats ();
  let z = B.cascade_stats () in
  Alcotest.(check int) "reset hits" 0 z.B.interval_hits;
  Alcotest.(check int) "reset escalations" 0 z.B.escalations;
  Alcotest.(check (float 0.)) "empty rate" 0. (B.cascade_hit_rate z)

let test_cascade_stats_snapshot_consistency () =
  (* Regression: the {interval_hits; escalations} pair lives in ONE atomic
     cell. With two separate atomics a reader racing the writer's reset
     could pair hits from one epoch with escalations from another. The
     writer cycles reset -> escalating query -> prefilter-hit query, so
     every consistent snapshot satisfies hits <= escalations; only a torn
     read can show hits > escalations. *)
  let net = tiny_qnet () in
  let input = [| 5; 9 |] in
  let label = Nn.Qnet.predict net input in
  let interval_robust delta =
    let spec = N.symmetric ~delta ~bias_noise:false in
    match B.exists_flip B.Interval net spec ~input ~label with
    | B.Robust -> true
    | B.Unknown _ | B.Flip _ -> false
  in
  (* Pick the deltas from the interval backend's own answers instead of
     baking verdicts into the test. *)
  let hit_delta = List.find_opt interval_robust [ 1; 2; 3 ] in
  let esc_delta = List.find_opt (fun d -> not (interval_robust d)) [ 50; 30; 20; 10 ] in
  match (hit_delta, esc_delta) with
  | Some hit_delta, Some esc_delta ->
      let stop = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            let q delta =
              let spec = N.symmetric ~delta ~bias_noise:false in
              ignore (B.exists_flip (B.Cascade B.Bnb) net spec ~input ~label)
            in
            while not (Atomic.get stop) do
              B.reset_cascade_stats ();
              q esc_delta;
              q hit_delta
            done)
      in
      let torn = ref 0 in
      for i = 1 to 50_000 do
        let s = B.cascade_stats () in
        if s.B.interval_hits > s.B.escalations then incr torn;
        if i mod 64 = 0 then Domain.cpu_relax ()
      done;
      Atomic.set stop true;
      Domain.join writer;
      B.reset_cascade_stats ();
      Alcotest.(check int) "no torn snapshots" 0 !torn
  | _ -> Alcotest.fail "no suitable hit/escalation deltas for tiny_qnet"

let prop_incremental_smt_min_flip =
  QCheck.Test.make ~name:"incremental smt min-flip = bnb min-flip" ~count:25
    arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      let max_delta = 5 in
      let at backend =
        Fannet.Tolerance.input_min_flip_delta backend net ~bias_noise:false
          ~max_delta ~input ~label
      in
      let reference = at B.Bnb in
      at B.Smt = reference && at (B.Cascade B.Smt) = reference)

let prop_bnb_enumerate_equals_explicit =
  QCheck.Test.make ~name:"bnb enumeration = brute-force flip set" ~count:60 arb_qnet
    (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      let spec = N.symmetric ~delta:2 ~bias_noise:false in
      let bnb, status = Fannet.Bnb.enumerate_flips ~limit:100_000 net spec ~input ~label in
      let explicit =
        Fannet.Extract.explicit_for_input net spec ~input ~label ~input_index:0
          ~limit:1_000_000
        |> List.map (fun (c : Fannet.Extract.counterexample) -> c.vector)
      in
      status = `Complete
      && List.sort N.compare bnb = List.sort N.compare explicit)

let prop_bnb_count_equals_enumeration =
  QCheck.Test.make ~name:"count_flips = |enumerate_flips|" ~count:60 arb_qnet
    (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      let spec = N.symmetric ~delta:2 ~bias_noise:true in
      let vectors, st1 = Fannet.Bnb.enumerate_flips ~limit:1_000_000 net spec ~input ~label in
      let count, st2 = Fannet.Bnb.count_flips ~limit:1_000_000 net spec ~input ~label in
      st1 = `Complete && st2 = `Complete && count = List.length vectors)

let prop_bnb_box_restriction =
  QCheck.Test.make ~name:"box-restricted query = filtered brute force" ~count:60
    arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      let spec = N.symmetric ~delta:2 ~bias_noise:false in
      let n = Array.length input in
      (* Restrict node 1 (dim 0) to positive noise only. *)
      let box = Array.init n (fun d -> if d = 0 then (1, 2) else (-2, 2)) in
      let expected =
        Fannet.Extract.explicit_for_input net spec ~input ~label ~input_index:0
          ~limit:1_000_000
        |> List.exists (fun (c : Fannet.Extract.counterexample) ->
               c.vector.N.inputs.(0) >= 1)
      in
      let got =
        match Fannet.Bnb.exists_flip ~box net spec ~input ~label with
        | Fannet.Bnb.Flip v -> v.N.inputs.(0) >= 1
        | Fannet.Bnb.Robust -> false
        | Fannet.Bnb.Unknown _ -> assert false (* no budget on this path *)
      in
      got = expected)

(* Random 3-class network generator. *)
let qnet3_gen =
  let open QCheck.Gen in
  let* n_in = int_range 2 3 in
  let* n_hidden = int_range 2 4 in
  let weight = int_range (-8) 8 in
  let* w1 = array_size (return n_hidden) (array_size (return n_in) weight) in
  let* b1 = array_size (return n_hidden) (int_range (-30) 30) in
  let* w2 = array_size (return 3) (array_size (return n_hidden) weight) in
  let* b2 = array_size (return 3) (int_range (-10) 10) in
  let* input = array_size (return n_in) (int_range 1 60) in
  let net =
    Nn.Qnet.create
      [|
        { Nn.Qnet.weights = w1; bias = b1; act = Nn.Qnet.Relu };
        { Nn.Qnet.weights = w2; bias = b2; act = Nn.Qnet.Identity };
      |]
  in
  return (net, input)

let arb_qnet3 =
  QCheck.make
    ~print:(fun ((net : Nn.Qnet.t), input) ->
      Printf.sprintf "net %dx%d input [%s]" (Nn.Qnet.in_dim net)
        (Nn.Qnet.out_dim net)
        (String.concat ";" (Array.to_list (Array.map string_of_int input))))
    qnet3_gen

let prop_multiclass_bnb_agrees_with_explicit =
  QCheck.Test.make ~name:"3-class bnb = explicit" ~count:60 arb_qnet3
    (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      List.for_all
        (fun (delta, bias_noise) ->
          let spec = N.symmetric ~delta ~bias_noise in
          let explicit =
            verdict_flips
              (B.exists_flip (B.Explicit { limit = 1_000_000 }) net spec ~input ~label)
          in
          let bnb = verdict_flips (B.exists_flip B.Bnb net spec ~input ~label) in
          explicit = bnb)
        [ (1, false); (2, false); (3, true) ])

let prop_multiclass_enumeration_agrees =
  QCheck.Test.make ~name:"3-class bnb enumeration = brute force" ~count:40
    arb_qnet3 (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      let spec = N.symmetric ~delta:2 ~bias_noise:false in
      let bnb, st = Fannet.Bnb.enumerate_flips ~limit:1_000_000 net spec ~input ~label in
      let explicit =
        Fannet.Extract.explicit_for_input net spec ~input ~label ~input_index:0
          ~limit:1_000_000
        |> List.map (fun (c : Fannet.Extract.counterexample) -> c.vector)
      in
      st = `Complete && List.sort N.compare bnb = List.sort N.compare explicit)

let prop_absolute_noise_backends_agree =
  QCheck.Test.make ~name:"absolute-noise bnb = explicit = smt" ~count:50 arb_qnet
    (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      List.for_all
        (fun (delta, bias_noise) ->
          let spec = N.absolute ~delta ~bias_noise in
          let explicit =
            verdict_flips
              (B.exists_flip (B.Explicit { limit = 1_000_000 }) net spec ~input ~label)
          in
          let bnb = verdict_flips (B.exists_flip B.Bnb net spec ~input ~label) in
          let smt = verdict_flips (B.exists_flip B.Smt net spec ~input ~label) in
          explicit = bnb && explicit = smt)
        [ (2, false); (3, true) ])

let test_smt_witness_with_unused_input () =
  (* The second input feeds no neuron, so its noise variable folds out of
     the formula and the solver's model does not bind it. Every value in
     the range is then a witness coordinate; the Smt backends must still
     return a valid one, for both noise kinds. *)
  let net =
    Nn.Qnet.create
      [|
        { Nn.Qnet.weights = [| [| 1; 0 |] |]; bias = [| 0 |]; act = Nn.Qnet.Relu };
        {
          Nn.Qnet.weights = [| [| 1 |]; [| 0 |] |];
          bias = [| 0; 10 |];
          act = Nn.Qnet.Identity;
        };
      |]
  in
  let input = [| 11; 5 |] in
  let label = Nn.Qnet.predict net input in
  List.iter
    (fun spec ->
      let valid = function
        | B.Flip v -> N.in_range spec v && N.predict net spec ~input v <> label
        | B.Robust | B.Unknown _ -> false
      in
      Alcotest.(check bool) "smt flip" true
        (valid (B.exists_flip B.Smt net spec ~input ~label));
      let cv = B.certified_exists_flip net spec ~input ~label in
      Alcotest.(check bool) "certified flip" true (valid cv.B.cv_verdict);
      Alcotest.(check bool) "certificate checks" true
        (B.check_certified net spec ~input ~label cv = Ok ()))
    [ N.absolute ~delta:2 ~bias_noise:false; N.symmetric ~delta:20 ~bias_noise:false ]

let prop_absolute_encode_matches_concrete =
  QCheck.Test.make ~name:"absolute-noise encoding equals concrete forward"
    ~count:100 arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      let spec = N.absolute ~delta:9 ~bias_noise:true in
      let enc = Fannet.Encode.encode net ~input spec in
      let rng = Util.Rng.create 31 in
      let ok = ref true in
      for _ = 1 to 10 do
        let v =
          {
            N.bias = Util.Rng.int_in rng (-9) 9;
            inputs = Array.init (Array.length input) (fun _ -> Util.Rng.int_in rng (-9) 9);
          }
        in
        let asg = assignment_of_vector enc v in
        let symbolic = Array.map (Smtlite.Term.eval_term asg) enc.Fannet.Encode.outputs in
        if symbolic <> N.apply net spec ~input v then ok := false
      done;
      !ok)

let prop_min_l1_flip_optimal =
  QCheck.Test.make ~name:"min_l1_flip finds the cheapest adversarial vector"
    ~count:40 arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      let spec = N.symmetric ~delta:2 ~bias_noise:false in
      let all_flips =
        Fannet.Extract.explicit_for_input net spec ~input ~label ~input_index:0
          ~limit:1_000_000
      in
      let l1 (v : N.vector) =
        abs v.N.bias + Array.fold_left (fun a d -> a + abs d) 0 v.N.inputs
      in
      match Fannet.Bnb.min_l1_flip net spec ~input ~label with
      | None -> all_flips = []
      | Some (v, norm) ->
          norm = l1 v
          && N.predict net spec ~input v <> label
          && all_flips <> []
          && List.for_all
               (fun (c : Fannet.Extract.counterexample) -> l1 c.vector >= norm)
               all_flips)

let test_mc_pipeline_runs () =
  let m = Fannet.Mc_pipeline.run () in
  Alcotest.(check int) "3 outputs" 3 (Nn.Qnet.out_dim m.qnet);
  Alcotest.(check int) "6 inputs" 6 (Nn.Qnet.in_dim m.qnet);
  Alcotest.(check bool) "trains" true (m.train_accuracy >= 0.9);
  Alcotest.(check int) "analysis = p1 correct"
    m.p1.Fannet.Validate.n_correct
    (Array.length (Fannet.Mc_pipeline.analysis_inputs m));
  (* Labels of the training set span the three classes. *)
  let labels = Fannet.Mc_pipeline.training_labels m in
  let distinct = List.sort_uniq compare (Array.to_list labels) in
  Alcotest.(check (list int)) "three classes" [ 0; 1; 2 ] distinct

(* ---------- tolerance / boundary ---------- *)

let prop_min_flip_delta_is_threshold =
  QCheck.Test.make ~name:"min flip delta is the exact flip threshold" ~count:40
    arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      let max_delta = 6 in
      let explicit_flips delta =
        verdict_flips
          (B.exists_flip (B.Explicit { limit = 10_000_000 }) net
             (N.symmetric ~delta ~bias_noise:false) ~input ~label)
      in
      match
        Fannet.Tolerance.input_min_flip_delta B.Bnb net ~bias_noise:false
          ~max_delta ~input ~label
      with
      | None -> not (explicit_flips max_delta)
      | Some d -> explicit_flips d && (d = 0 || not (explicit_flips (d - 1))))

let test_network_tolerance_tiny () =
  let net = tiny_qnet () in
  let inputs =
    Array.map (fun x -> (x, Nn.Qnet.predict net x)) [| [| 5; 9 |]; [| 50; 3 |]; [| 10; 12 |] |]
  in
  let tol = Fannet.Tolerance.network_tolerance B.Bnb net ~bias_noise:false ~max_delta:30 ~inputs in
  (* Consistency: no input flips at the tolerance, some flips at tol+1
     (unless everything is robust up to the probe). *)
  Alcotest.(check bool) "tolerance in range" true (tol >= 0 && tol <= 30);
  Array.iter
    (fun (input, label) ->
      if tol < 30 then begin
        let spec = N.symmetric ~delta:tol ~bias_noise:false in
        match B.exists_flip B.Bnb net spec ~input ~label with
        | B.Robust -> ()
        | B.Flip _ | B.Unknown _ -> Alcotest.fail "flip at or below tolerance"
      end)
    inputs;
  if tol < 30 then begin
    let spec = N.symmetric ~delta:(tol + 1) ~bias_noise:false in
    let any_flip =
      Array.exists
        (fun (input, label) ->
          match B.exists_flip B.Bnb net spec ~input ~label with
          | B.Flip _ -> true
          | B.Robust -> false
          | B.Unknown _ -> false)
        inputs
    in
    Alcotest.(check bool) "some flip just above tolerance" true any_flip
  end

(* The incremental SMT search encodes once: one solver session serves
   every probe of a search, and a [Cascade Smt] search that the interval
   pass settles opens none. *)
let test_smt_search_one_session () =
  let net = tiny_qnet () in
  let input = [| 5; 3 |] in
  let label = Nn.Qnet.predict net input in
  let sessions = Obs.Metrics.counter "smtlite.sessions" in
  let probes = Obs.Metrics.counter "tolerance.probes" in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let search backend ~max_delta =
    let at backend =
      Fannet.Tolerance.input_min_flip_delta backend net ~bias_noise:false
        ~max_delta ~input ~label
    in
    let expected = at B.Bnb in
    let s0 = Obs.Metrics.counter_value sessions
    and p0 = Obs.Metrics.counter_value probes in
    let r = at backend in
    let opened = Obs.Metrics.counter_value sessions - s0
    and n_probes = Obs.Metrics.counter_value probes - p0 in
    Alcotest.(check (option int)) "same answer as bnb" expected r;
    (r, opened, n_probes)
  in
  (* ±30 flips and ±0 does not, so the search bisects. *)
  let r, opened, n_probes = search B.Smt ~max_delta:30 in
  Alcotest.(check bool) "the search flips" true (r <> None);
  Alcotest.(check bool) "at least 3 probes" true (n_probes >= 3);
  Alcotest.(check int) "one session for the whole search" 1 opened;
  (* ±1 is proven robust by the interval pass: nothing is encoded. *)
  let r, opened, _ = search (B.Cascade B.Smt) ~max_delta:1 in
  Alcotest.(check (option int)) "robust at ±1" None r;
  Alcotest.(check int) "prefilter-settled search opens no session" 0 opened

let test_tolerance_jobs_deterministic () =
  (* jobs=1 and jobs=N give the same answers for the flip scan, the
     tolerance search and the counterexample corpus, and the production
     cascade answers exactly as plain Bnb. *)
  let net = tiny_qnet () in
  let inputs =
    Array.map (fun x -> (x, Nn.Qnet.predict net x))
      [| [| 5; 9 |]; [| 50; 3 |]; [| 10; 12 |]; [| 2; 40 |]; [| 33; 21 |] |]
  in
  let per_backend backend =
    let mis jobs =
      Fannet.Tolerance.misclassified_at ~jobs backend net ~bias_noise:false
        ~delta:20 ~inputs
    in
    let tol jobs =
      Fannet.Tolerance.network_tolerance ~jobs backend net ~bias_noise:false
        ~max_delta:30 ~inputs
    in
    let mis1 = mis 1 and tol1 = tol 1 in
    let name = B.to_string backend in
    List.iter
      (fun jobs ->
        Alcotest.(check bool)
          (Printf.sprintf "%s misclassified_at jobs=%d" name jobs)
          true (mis jobs = mis1);
        Alcotest.(check int)
          (Printf.sprintf "%s tolerance jobs=%d" name jobs)
          tol1 (tol jobs))
      [ 2; 4 ];
    (mis1, tol1)
  in
  let mis_bnb, tol_bnb = per_backend B.Bnb in
  let mis_cascade, tol_cascade = per_backend B.default_cascade in
  Alcotest.(check bool) "cascade(bnb) = bnb on misclassified_at" true
    (mis_cascade = mis_bnb);
  Alcotest.(check int) "cascade(bnb) = bnb on network_tolerance" tol_bnb tol_cascade;
  let spec = N.symmetric ~delta:20 ~bias_noise:false in
  let extract jobs =
    Fannet.Extract.for_inputs ~limit_per_input:50 ~jobs net spec ~inputs
  in
  let ((cexs1, _) as ex1) = extract 1 in
  Alcotest.(check bool) "the corpus is not empty" true (cexs1 <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "extract for_inputs jobs=%d" jobs)
        true (extract jobs = ex1))
    [ 2; 4 ]

let prop_paper_iterative_equals_binary =
  QCheck.Test.make ~name:"paper-iterative tolerance = binary-search tolerance"
    ~count:30 arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      let label = Nn.Qnet.predict net input in
      let inputs = [| (input, label) |] in
      let t1 =
        Fannet.Tolerance.network_tolerance B.Bnb net ~bias_noise:false
          ~max_delta:8 ~inputs
      in
      let t2 =
        Fannet.Tolerance.paper_iterative_tolerance B.Bnb net ~bias_noise:false
          ~max_delta:8 ~inputs
      in
      t1 = t2)

let test_single_node_tolerance () =
  let net = tiny_qnet () in
  let inputs =
    Array.map (fun x -> (x, Nn.Qnet.predict net x)) [| [| 10; 12 |]; [| 5; 9 |] |]
  in
  let spec = N.symmetric ~delta:40 ~bias_noise:false in
  for node = 1 to 2 do
    match Fannet.Sensitivity.single_node_tolerance net spec ~inputs ~node with
    | None ->
        (* Even full one-sided range is safe: verify with a box query. *)
        let box d = Array.init 2 (fun k -> if k = node - 1 then (-d, d) else (0, 0)) in
        Array.iter
          (fun (input, label) ->
            match Fannet.Bnb.exists_flip ~box:(box 40) net spec ~input ~label with
            | Fannet.Bnb.Robust -> ()
            | Fannet.Bnb.Unknown _ -> assert false (* no budget on this path *)
            | Fannet.Bnb.Flip _ -> Alcotest.fail "None but a flip exists")
          inputs
    | Some d ->
        Alcotest.(check bool) "within range" true (d >= 0 && d < 40);
        (* No flip when only this node is perturbed up to d... *)
        let box dd = Array.init 2 (fun k -> if k = node - 1 then (-dd, dd) else (0, 0)) in
        Array.iter
          (fun (input, label) ->
            match Fannet.Bnb.exists_flip ~box:(box d) net spec ~input ~label with
            | Fannet.Bnb.Robust -> ()
            | Fannet.Bnb.Unknown _ -> assert false (* no budget on this path *)
            | Fannet.Bnb.Flip _ -> Alcotest.fail "flip at claimed-safe range")
          inputs;
        (* ... and some flip at d+1. *)
        let flips =
          Array.exists
            (fun (input, label) ->
              match Fannet.Bnb.exists_flip ~box:(box (d + 1)) net spec ~input ~label with
              | Fannet.Bnb.Flip _ -> true
              | Fannet.Bnb.Robust -> false
              | Fannet.Bnb.Unknown _ -> assert false (* no budget on this path *))
            inputs
        in
        Alcotest.(check bool) "flip just above" true flips
  done

let test_certified_accuracy () =
  let net = tiny_qnet () in
  (* Mix of a correct robust input, a correct fragile one and a planted
     wrong label. *)
  let x1 = [| 50; 3 |] and x2 = [| 10; 12 |] in
  let inputs =
    [|
      (x1, Nn.Qnet.predict net x1);
      (x2, Nn.Qnet.predict net x2);
      (x1, 1 - Nn.Qnet.predict net x1);
    |]
  in
  (* At delta 0 only correctness matters: 2/3. *)
  Alcotest.(check (float 1e-9)) "delta 0" (2. /. 3.)
    (Fannet.Tolerance.certified_accuracy B.Bnb net ~bias_noise:false ~delta:0 ~inputs);
  (* Certified accuracy is non-increasing in delta and bounded by plain
     accuracy. *)
  let prev = ref 1.1 in
  List.iter
    (fun delta ->
      let c =
        Fannet.Tolerance.certified_accuracy B.Bnb net ~bias_noise:false ~delta ~inputs
      in
      Alcotest.(check bool) "non-increasing" true (c <= !prev +. 1e-9);
      prev := c)
    [ 0; 5; 10; 20; 40 ]

let test_sweep_monotone () =
  let net = tiny_qnet () in
  let inputs =
    Array.map (fun x -> (x, Nn.Qnet.predict net x)) [| [| 5; 9 |]; [| 50; 3 |]; [| 10; 12 |]; [| 3; 4 |] |]
  in
  let sweep =
    Fannet.Tolerance.sweep B.Bnb net ~bias_noise:false ~deltas:[ 2; 5; 10; 20; 30 ] ~inputs
  in
  let counts = List.map (fun (p : Fannet.Tolerance.sweep_point) -> p.n_misclassified) sweep in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "counts non-decreasing" true (monotone counts)

let test_boundary_analysis () =
  let net = tiny_qnet () in
  let inputs =
    Array.map (fun x -> (x, Nn.Qnet.predict net x)) [| [| 5; 9 |]; [| 50; 3 |]; [| 10; 12 |] |]
  in
  let points = Fannet.Boundary.analyze B.Bnb net ~bias_noise:false ~max_delta:20 ~inputs in
  Alcotest.(check int) "one point per input" 3 (Array.length points);
  let near = Fannet.Boundary.near_boundary points ~threshold:20 in
  let robust = Fannet.Boundary.robust_at_probe points in
  Alcotest.(check int) "partition" 3 (Array.length near + Array.length robust);
  Array.iter
    (fun (p : Fannet.Boundary.point) ->
      Alcotest.(check bool) "margin non-negative for correct inputs" true (p.margin >= 0))
    points

let test_boundary_never_flips () =
  (* A network with an overwhelming margin: the hidden unit feeds class 0
     with weight +100 and class 1 with -100, so no +-50% input noise can
     flip it. Every point must be robust at the probe, the near-boundary
     set empty, and the margin/flip correlation has nothing to correlate. *)
  let net =
    Nn.Qnet.create
      [|
        { Nn.Qnet.weights = [| [| 1 |] |]; bias = [| 0 |]; act = Nn.Qnet.Relu };
        { Nn.Qnet.weights = [| [| 100 |]; [| -100 |] |]; bias = [| 0; 0 |]; act = Nn.Qnet.Identity };
      |]
  in
  let inputs = Array.map (fun x -> (x, Nn.Qnet.predict net x)) [| [| 40 |]; [| 60 |] |] in
  let points = Fannet.Boundary.analyze B.Bnb net ~bias_noise:false ~max_delta:50 ~inputs in
  Array.iter
    (fun (p : Fannet.Boundary.point) ->
      Alcotest.(check bool) "never flips" true (p.min_flip_delta = None);
      Alcotest.(check bool) "large positive margin" true (p.margin > 0))
    points;
  Alcotest.(check int) "all robust at probe" 2
    (Array.length (Fannet.Boundary.robust_at_probe points));
  Alcotest.(check int) "none near boundary" 0
    (Array.length (Fannet.Boundary.near_boundary points ~threshold:50));
  Alcotest.(check (float 0.)) "correlation defined as 0 without data" 0.
    (Fannet.Boundary.margin_flip_correlation points)

(* ---------- bias & sensitivity ---------- *)

let mk_cex input_index true_label predicted vector =
  { Fannet.Extract.input_index; true_label; predicted; vector }

let test_bias_analyze () =
  let v = { N.bias = 0; inputs = [| 1; 0 |] } in
  let cexs =
    [ mk_cex 0 0 1 v; mk_cex 0 0 1 v; mk_cex 1 0 1 v; mk_cex 2 1 0 v ]
  in
  let r =
    Fannet.Bias.analyze ~n_classes:2
      ~training_labels:[| 1; 1; 1; 1; 1; 1; 1; 0; 0; 0 |]
      ~analysed_labels:[| 0; 0; 1; 1; 1; 1 |]
      cexs
  in
  Alcotest.(check int) "majority class" 1 r.majority_class;
  Alcotest.(check (float 1e-9)) "training share" 0.7 r.training_share.(1);
  Alcotest.(check int) "flips from L0" 3 r.flips_from.(0);
  Alcotest.(check int) "flips from L1" 1 r.flips_from.(1);
  Alcotest.(check int) "distinct L0 inputs" 2 r.inputs_flipped_from.(0);
  Alcotest.(check (float 1e-9)) "rate L0" 1.0 r.flip_rate.(0);
  Alcotest.(check (float 1e-9)) "rate L1" 0.25 r.flip_rate.(1);
  Alcotest.(check bool) "consistent" true r.consistent_with_bias;
  match r.directions with
  | { from_label = 0; to_label = 1; count = 3 } :: _ -> ()
  | _ -> Alcotest.fail "dominant direction"

let test_bias_inconsistent () =
  let v = { N.bias = 0; inputs = [| 1 |] } in
  let r =
    Fannet.Bias.analyze ~n_classes:2 ~training_labels:[| 1; 1; 1; 0 |]
      ~analysed_labels:[| 0; 1 |]
      [ mk_cex 0 1 0 v ]
  in
  Alcotest.(check bool) "not consistent" false r.consistent_with_bias

let test_bias_empty_corpus () =
  (* No counterexamples at all: every counter is zero and the paper's
     bias claim must be reported as unsupported, not vacuously true. *)
  let r =
    Fannet.Bias.analyze ~n_classes:2 ~training_labels:[| 1; 1; 0 |]
      ~analysed_labels:[| 0; 1 |] []
  in
  Alcotest.(check bool) "no directions" true (r.directions = []);
  Alcotest.(check int) "no flips L0" 0 r.flips_from.(0);
  Alcotest.(check int) "no flips L1" 0 r.flips_from.(1);
  Alcotest.(check (float 0.)) "rate L0" 0. r.flip_rate.(0);
  Alcotest.(check (float 0.)) "rate L1" 0. r.flip_rate.(1);
  Alcotest.(check bool) "not consistent" false r.consistent_with_bias

let test_bias_all_same_label () =
  (* Every counterexample flips out of the majority class: the minority
     rate (zero) cannot exceed the majority's, so the bias claim fails
     even on a non-empty corpus. *)
  let v = { N.bias = 0; inputs = [| 1 |] } in
  let cexs = [ mk_cex 0 1 0 v; mk_cex 1 1 0 v; mk_cex 1 1 0 v ] in
  let r =
    Fannet.Bias.analyze ~n_classes:2 ~training_labels:[| 1; 1; 1; 0 |]
      ~analysed_labels:[| 1; 1; 0 |] cexs
  in
  Alcotest.(check int) "flips from L1" 3 r.flips_from.(1);
  Alcotest.(check int) "no flips from L0" 0 r.flips_from.(0);
  Alcotest.(check int) "distinct L1 inputs" 2 r.inputs_flipped_from.(1);
  (match r.directions with
  | [ { Fannet.Bias.from_label = 1; to_label = 0; count = 3 } ] -> ()
  | _ -> Alcotest.fail "expected the single L1 -> L0 direction");
  Alcotest.(check bool) "not consistent" false r.consistent_with_bias

let test_sensitivity_per_node () =
  let spec = N.symmetric ~delta:10 ~bias_noise:true in
  let cexs =
    [
      mk_cex 0 0 1 { N.bias = 2; inputs = [| -3; 0 |] };
      mk_cex 0 0 1 { N.bias = 5; inputs = [| -1; 0 |] };
      mk_cex 1 0 1 { N.bias = 1; inputs = [| -2; 0 |] };
    ]
  in
  let stats = Fannet.Sensitivity.per_node spec ~n_inputs:2 cexs in
  Alcotest.(check int) "3 nodes (bias + 2)" 3 (Array.length stats);
  let bias_stats = stats.(0) and n1 = stats.(1) and n2 = stats.(2) in
  Alcotest.(check bool) "bias never negative" true
    (Fannet.Sensitivity.sidedness bias_stats = Fannet.Sensitivity.Never_negative);
  Alcotest.(check bool) "n1 never positive" true
    (Fannet.Sensitivity.sidedness n1 = Fannet.Sensitivity.Never_positive);
  Alcotest.(check bool) "n2 no data" true
    (Fannet.Sensitivity.sidedness n2 = Fannet.Sensitivity.No_data);
  Alcotest.(check int) "most sensitive" 0 (Fannet.Sensitivity.most_sensitive stats);
  Alcotest.(check (float 1e-9)) "mean of n1" (-2.) n1.mean_noise

(* Formal sidedness against the brute-force flip set, with and without
   bias noise (node 0 is then the bias dimension). *)
let sidedness_matches_explicit net ~delta ~input ~label =
  let inputs = [| (input, label) |] in
  List.for_all
    (fun bias_noise ->
      let spec = N.symmetric ~delta ~bias_noise in
      let sides = Fannet.Sensitivity.formal_sidedness net spec ~inputs in
      let all_flips =
        Fannet.Extract.explicit_for_input net spec ~input ~label ~input_index:0
          ~limit:1_000_000
      in
      let component node (v : N.vector) =
        if bias_noise && node = 0 then v.N.bias else v.N.inputs.(node - 1)
      in
      Array.length sides = Array.length input + Bool.to_int bias_noise
      && Array.for_all
           (fun (f : Fannet.Sensitivity.formal_side) ->
             let values =
               List.map
                 (fun (c : Fannet.Extract.counterexample) ->
                   component f.fs_node c.vector)
                 all_flips
             in
             f.positive_flip = List.exists (fun v -> v > 0) values
             && f.negative_flip = List.exists (fun v -> v < 0) values)
           sides)
    [ false; true ]

let prop_formal_sidedness_matches_explicit =
  QCheck.Test.make ~name:"formal sidedness = sidedness of full flip set" ~count:40
    arb_qnet (fun ((net : Nn.Qnet.t), input) ->
      sidedness_matches_explicit net ~delta:2 ~input
        ~label:(Nn.Qnet.predict net input))

(* The random networks above almost never flip at ±2, so the property
   mostly compares empty sets. These 2-4-2 inputs flip just inside the
   range (their minimal flipping noise is 1, 6, 10 and 13 %). *)
let test_formal_sidedness_fragile_inputs () =
  let net = Fixture.small_qnet () in
  List.iter
    (fun (input, delta) ->
      let label = Nn.Qnet.predict net input in
      Alcotest.(check bool)
        (Printf.sprintf "(%d, %d) at ±%d" input.(0) input.(1) delta)
        true
        (sidedness_matches_explicit net ~delta ~input ~label))
    [ ([| 112; 87 |], 2); ([| 40; 35 |], 7); ([| 70; 65 |], 11); ([| 50; 50 |], 14) ]

(* ---------- extraction / baseline ---------- *)

let test_extract_for_inputs_aggregates () =
  let net = tiny_qnet () in
  let inputs =
    Array.map (fun x -> (x, Nn.Qnet.predict net x)) [| [| 5; 9 |]; [| 3; 4 |] |]
  in
  let spec = N.symmetric ~delta:10 ~bias_noise:false in
  let cexs, _ = Fannet.Extract.for_inputs ~limit_per_input:50 net spec ~inputs in
  List.iter
    (fun (c : Fannet.Extract.counterexample) ->
      Alcotest.(check bool) "valid index" true (c.input_index = 0 || c.input_index = 1);
      let input = fst inputs.(c.input_index) in
      Alcotest.(check int) "recorded prediction is the noisy one" c.predicted
        (N.predict net spec ~input c.vector);
      Alcotest.(check bool) "actually flips" true (c.predicted <> c.true_label))
    cexs

let test_baseline_budget_and_validity () =
  let net = tiny_qnet () in
  let input = [| 5; 9 |] in
  let label = Nn.Qnet.predict net input in
  let spec = N.symmetric ~delta:40 ~bias_noise:false in
  let rng = Util.Rng.create 9 in
  let r = Fannet.Baseline.random_search ~rng net spec ~input ~label ~budget:500 in
  Alcotest.(check int) "budget recorded" 500 r.budget;
  List.iter
    (fun v ->
      Alcotest.(check bool) "in range" true (N.in_range spec v);
      Alcotest.(check bool) "flips" true (N.predict net spec ~input v <> label))
    r.found;
  (match r.first_found_at with
  | Some k -> Alcotest.(check bool) "first within budget" true (k >= 1 && k <= 500)
  | None -> Alcotest.(check int) "none found -> empty" 0 (List.length r.found));
  Alcotest.(check bool) "success rate sane" true
    (Fannet.Baseline.success_rate r >= 0. && Fannet.Baseline.success_rate r <= 1.)

let test_baseline_agrees_with_formal_absence () =
  (* Where Bnb proves robustness, random search must find nothing. *)
  let net = tiny_qnet () in
  let input = [| 50; 3 |] in
  let label = Nn.Qnet.predict net input in
  let spec = N.symmetric ~delta:3 ~bias_noise:false in
  (match B.exists_flip B.Bnb net spec ~input ~label with
  | B.Robust ->
      let rng = Util.Rng.create 11 in
      let r = Fannet.Baseline.random_search ~rng net spec ~input ~label ~budget:2000 in
      Alcotest.(check int) "no flips found" 0 (List.length r.found)
  | B.Flip _ | B.Unknown _ -> ())
  [@warning "-4"]

(* ---------- validate / pipeline ---------- *)

let test_validate_p1 () =
  let net = tiny_qnet () in
  let inputs =
    [|
      ([| 5; 9 |], Nn.Qnet.predict net [| 5; 9 |]);
      ([| 50; 3 |], 1 - Nn.Qnet.predict net [| 50; 3 |]);  (* planted error *)
    |]
  in
  let r = Fannet.Validate.p1 net ~inputs in
  Alcotest.(check int) "total" 2 r.n_total;
  Alcotest.(check int) "correct" 1 r.n_correct;
  Alcotest.(check (float 1e-9)) "accuracy" 0.5 r.accuracy;
  (match r.mismatches with
  | [ (1, _) ] -> ()
  | _ -> Alcotest.fail "mismatch index");
  Alcotest.(check int) "correct subset size" 1 (Array.length r.correct)

let test_validate_of_samples () =
  let samples =
    [|
      { Dataset.Sample.features = [| 10; 20; 30 |]; label = Dataset.Sample.L1 };
      { Dataset.Sample.features = [| 1; 2; 3 |]; label = Dataset.Sample.L0 };
    |]
  in
  let labelled = Fannet.Validate.of_samples samples ~genes:[| 2; 0 |] in
  Alcotest.(check (array int)) "projection" [| 30; 10 |] (fst labelled.(0));
  Alcotest.(check int) "label int" 1 (snd labelled.(0));
  Alcotest.(check int) "label int 2" 0 (snd labelled.(1))

let test_pipeline_fast_config () =
  let p = Fannet.Pipeline.run ~config:Fannet.Pipeline.fast_config () in
  Alcotest.(check int) "selected 5 genes" 5 (Array.length p.selected_genes);
  Alcotest.(check int) "qnet inputs" 5 (Nn.Qnet.in_dim p.qnet);
  Alcotest.(check int) "qnet outputs" 2 (Nn.Qnet.out_dim p.qnet);
  Alcotest.(check bool) "training accuracy high" true (p.train_accuracy >= 0.9);
  Alcotest.(check int) "p1 totals" (Array.length p.test_inputs) p.p1.n_total;
  Alcotest.(check int) "analysis = correct inputs"
    p.p1.n_correct
    (Array.length (Fannet.Pipeline.analysis_inputs p));
  Alcotest.(check int) "training labels count" (Array.length p.train_inputs)
    (Array.length (Fannet.Pipeline.training_labels p))

let test_pipeline_deterministic () =
  let p1 = Fannet.Pipeline.run ~config:Fannet.Pipeline.fast_config () in
  let p2 = Fannet.Pipeline.run ~config:Fannet.Pipeline.fast_config () in
  Alcotest.(check bool) "same selected genes" true (p1.selected_genes = p2.selected_genes);
  Alcotest.(check bool) "same quantized network" true (Nn.Qnet.equal p1.qnet p2.qnet)

let () =
  Alcotest.run "fannet"
    [
      ( "noise",
        [
          Alcotest.test_case "symmetric spec" `Quick test_spec_symmetric;
          Alcotest.test_case "spec size" `Quick test_spec_size;
          Alcotest.test_case "in_range" `Quick test_in_range;
          Alcotest.test_case "zero noise scales" `Quick test_apply_zero_noise_scales;
          Alcotest.test_case "hand computed" `Quick test_apply_hand_computed;
          Alcotest.test_case "iter_vectors complete" `Quick test_iter_vectors_complete;
          Alcotest.test_case "compare/hash" `Quick test_noise_compare_hash;
        ] );
      ( "encode",
        [
          QCheck_alcotest.to_alcotest prop_encode_matches_concrete;
          QCheck_alcotest.to_alcotest prop_misclassified_formula_semantics;
        ] );
      ( "backends",
        [
          QCheck_alcotest.to_alcotest prop_backends_agree;
          QCheck_alcotest.to_alcotest prop_deep_backends_agree;
          QCheck_alcotest.to_alcotest prop_deep_searches_agree;
          Alcotest.test_case "ladder search trees pinned" `Quick
            test_ladder_search_trees_pinned;
          Alcotest.test_case "count_flips saturates" `Quick test_count_flips_saturates;
          Alcotest.test_case "extract corpus pinned" `Quick test_extract_corpus_pinned;
          Alcotest.test_case "walk grid pinned" `Quick test_walk_grid_pinned;
          QCheck_alcotest.to_alcotest prop_identity_walk_equals_explicit;
          Alcotest.test_case "resume inside an exact subtree" `Quick
            test_resume_inside_exact_subtree;
          Alcotest.test_case "midpoint floors on negative boxes" `Quick
            test_bnb_midpoint_floor_negative_box;
          QCheck_alcotest.to_alcotest prop_interval_sound_wrt_explicit;
          QCheck_alcotest.to_alcotest prop_cascade_agrees_bnb;
          Alcotest.test_case "cascade stats" `Quick test_cascade_stats_accounting;
          Alcotest.test_case "cascade stats snapshot consistency" `Quick
            test_cascade_stats_snapshot_consistency;
          QCheck_alcotest.to_alcotest prop_bnb_enumerate_equals_explicit;
          QCheck_alcotest.to_alcotest prop_bnb_count_equals_enumeration;
          QCheck_alcotest.to_alcotest prop_bnb_box_restriction;
          QCheck_alcotest.to_alcotest prop_multiclass_bnb_agrees_with_explicit;
          QCheck_alcotest.to_alcotest prop_multiclass_enumeration_agrees;
          QCheck_alcotest.to_alcotest prop_absolute_noise_backends_agree;
          QCheck_alcotest.to_alcotest prop_absolute_encode_matches_concrete;
          QCheck_alcotest.to_alcotest prop_min_l1_flip_optimal;
          Alcotest.test_case "smt witness with an unused input" `Quick
            test_smt_witness_with_unused_input;
        ] );
      ( "tolerance",
        [
          QCheck_alcotest.to_alcotest prop_min_flip_delta_is_threshold;
          QCheck_alcotest.to_alcotest prop_paper_iterative_equals_binary;
          QCheck_alcotest.to_alcotest prop_incremental_smt_min_flip;
          Alcotest.test_case "smt search opens one session" `Quick
            test_smt_search_one_session;
          Alcotest.test_case "jobs-deterministic" `Quick test_tolerance_jobs_deterministic;
          Alcotest.test_case "network tolerance" `Quick test_network_tolerance_tiny;
          Alcotest.test_case "single-node tolerance" `Quick test_single_node_tolerance;
          Alcotest.test_case "sweep monotone" `Quick test_sweep_monotone;
          Alcotest.test_case "certified accuracy" `Quick test_certified_accuracy;
          Alcotest.test_case "boundary analysis" `Quick test_boundary_analysis;
          Alcotest.test_case "boundary never flips" `Quick test_boundary_never_flips;
        ] );
      ( "bias-sensitivity",
        [
          Alcotest.test_case "bias analyze" `Quick test_bias_analyze;
          Alcotest.test_case "bias inconsistent" `Quick test_bias_inconsistent;
          Alcotest.test_case "bias empty corpus" `Quick test_bias_empty_corpus;
          Alcotest.test_case "bias all same label" `Quick test_bias_all_same_label;
          Alcotest.test_case "sensitivity per node" `Quick test_sensitivity_per_node;
          QCheck_alcotest.to_alcotest prop_formal_sidedness_matches_explicit;
          Alcotest.test_case "formal sidedness on fragile inputs" `Quick
            test_formal_sidedness_fragile_inputs;
        ] );
      ( "extract-baseline",
        [
          Alcotest.test_case "for_inputs aggregates" `Quick test_extract_for_inputs_aggregates;
          Alcotest.test_case "baseline budget/validity" `Quick test_baseline_budget_and_validity;
          Alcotest.test_case "baseline vs formal absence" `Quick test_baseline_agrees_with_formal_absence;
        ] );
      ( "validate-pipeline",
        [
          Alcotest.test_case "p1" `Quick test_validate_p1;
          Alcotest.test_case "of_samples" `Quick test_validate_of_samples;
          Alcotest.test_case "pipeline fast config" `Quick test_pipeline_fast_config;
          Alcotest.test_case "pipeline deterministic" `Quick test_pipeline_deterministic;
          Alcotest.test_case "multiclass pipeline" `Quick test_mc_pipeline_runs;
        ] );
    ]
