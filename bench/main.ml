(* Benchmark harness: regenerates every evaluation artefact of the paper
   (DESIGN.md experiment index E1-E15, E19, E22), printing the measured
   rows next to the paper's reported values, then runs a Bechamel timing
   suite over the main code paths.

   Run with: dune exec bench/main.exe [--parallel | --ladder [--smoke]] *)

let section title = Printf.printf "\n=== %s ===\n%!" title

(* Monotonic wall-clock timing: [Unix.gettimeofday] is subject to NTP
   steps, which can make a measured duration negative or wildly wrong
   mid-bench. [Obs.Clock] reads CLOCK_MONOTONIC where available. *)
let time_of f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.elapsed_s ~since:t0)

let backend = Fannet.Backend.Bnb

(* The paper perturbs all network inputs, including the bias node (Fig. 3a
   has six input nodes: five genes plus the bias). *)
let bias_noise = true

(* ------------------------------------------------------------------ *)
(* E1 - Fig. 3(b,c): FSM state-space growth                            *)
(* ------------------------------------------------------------------ *)

let fig3_state_space (p : Fannet.Pipeline.t) =
  section "E1 fig3_state_space (paper Fig. 3b/c)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let table =
    Util.Table.create
      ~header:[ "model"; "states"; "transitions"; "paper states"; "paper transitions" ]
  in
  let no_noise =
    Smv.Translate.network_program p.qnet
      {
        Smv.Translate.delta_lo = 0;
        delta_hi = 0;
        bias_noise;
        samples = Array.to_list inputs;
      }
  in
  (match Smv.Fsm.explore no_noise with
  | Ok o ->
      Util.Table.add_row table
        [
          "no noise (all samples)";
          string_of_int o.stats.n_states;
          string_of_int o.stats.n_transitions;
          "3";
          "6";
        ]
  | Error e ->
      Printf.printf "no-noise exploration failed: %s\n" (Smv.Fsm.error_to_string e));
  let input, label = inputs.(0) in
  let with_range name lo hi paper_states paper_transitions =
    let prog =
      Smv.Translate.network_program p.qnet
        { Smv.Translate.delta_lo = lo; delta_hi = hi; bias_noise; samples = [ (input, label) ] }
    in
    match Smv.Fsm.explore ~state_limit:1_000_000 prog with
    | Ok o ->
        Util.Table.add_row table
          [
            name;
            string_of_int o.stats.n_states;
            string_of_int o.stats.n_transitions;
            paper_states;
            paper_transitions;
          ]
    | Error e ->
        Printf.printf "%s exploration failed: %s\n" name (Smv.Fsm.error_to_string e)
  in
  with_range "noise [0,1]% (1 sample)" 0 1 "65" "4160";
  with_range "noise [-1,+1]% (1 sample)" (-1) 1 "-" "-";
  Util.Table.print table;
  print_endline
    "(states grow as 1 + k and transitions as (1 + k) * k with k =\n\
    \ (range size)^(noise nodes); the paper reports the same blow-up)";
  (* The symbolic (SAT-based) model checker on the same program: the
     nuXmv-style path the paper actually runs. *)
  let prog =
    Smv.Translate.network_program p.qnet
      { Smv.Translate.delta_lo = 0; delta_hi = 1; bias_noise; samples = [ (input, label) ] }
  in
  let (result, elapsed) =
    time_of (fun () -> Smv.Bmc.check ~bound:2 prog)
  in
  (match result with
  | Ok [ (_, Smv.Bmc.Holds_up_to b) ] ->
      Printf.printf
        "symbolic BMC on the [0,1]%% model: P2 holds up to depth %d (%.1fs)\n" b elapsed
  | Ok [ (_, Smv.Bmc.Violated { step; _ }) ] ->
      Printf.printf "symbolic BMC: P2 violated at depth %d (%.1fs)\n" step elapsed
  | Ok _ | Error _ -> print_endline "symbolic BMC: unexpected result")

(* ------------------------------------------------------------------ *)
(* E2 - Fig. 4 left panel: misclassifications per noise range          *)
(* ------------------------------------------------------------------ *)

let fig4_tolerance_sweep (p : Fannet.Pipeline.t) =
  section "E2 fig4_tolerance_sweep (paper Fig. 4, noise tolerance)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let deltas = [ 5; 10; 15; 20; 25; 30; 35; 40 ] in
  let sweep = Fannet.Tolerance.sweep backend p.qnet ~bias_noise ~deltas ~inputs in
  let table =
    Util.Table.create ~header:[ "noise range"; "misclassified inputs"; "of" ]
  in
  List.iter
    (fun (pt : Fannet.Tolerance.sweep_point) ->
      Util.Table.add_row table
        [
          Printf.sprintf "[-%d,+%d]%%" pt.delta pt.delta;
          string_of_int pt.n_misclassified;
          string_of_int (Array.length inputs);
        ])
    sweep;
  Util.Table.print table;
  let tolerance =
    Fannet.Tolerance.network_tolerance backend p.qnet ~bias_noise ~max_delta:60 ~inputs
  in
  Printf.printf
    "network noise tolerance: +-%d%%   (paper: +-11%%; shape target: a\n\
    \ non-trivial plateau with zero misclassifications)\n"
    tolerance;
  (* Certified accuracy over the whole test set (correct AND provably
     robust), the standard certified-robustness metric, computed exactly. *)
  let cert =
    List.map
      (fun delta ->
        Printf.sprintf "+-%d%%: %.1f%%" delta
          (100.
          *. Fannet.Tolerance.certified_accuracy backend p.qnet ~bias_noise
               ~delta ~inputs:p.test_inputs))
      [ 5; 9; 15; 25 ]
  in
  Printf.printf "certified accuracy (exact): %s\n" (String.concat "  " cert)

(* ------------------------------------------------------------------ *)
(* E3 - training bias                                                  *)
(* ------------------------------------------------------------------ *)

let corpus_at (p : Fannet.Pipeline.t) ~delta ~limit =
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
  Fannet.Extract.for_inputs ~limit_per_input:limit p.Fannet.Pipeline.qnet spec ~inputs

let fig4_training_bias (p : Fannet.Pipeline.t) =
  section "E3 fig4_training_bias (paper Sec. V-C.3)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let delta = 15 in
  let cexs, _ = corpus_at p ~delta ~limit:500 in
  let report =
    Fannet.Bias.analyze ~n_classes:2
      ~training_labels:(Fannet.Pipeline.training_labels p)
      ~analysed_labels:(Array.map snd inputs) cexs
  in
  Printf.printf "counterexample corpus at +-%d%%:\n%s\n" delta
    (Fannet.Bias.report_to_string report);
  Printf.printf
    "(paper: ~70%% of training samples are L1; L0 inputs are more likely to\n\
    \ be misclassified, and every observed flip goes L0 -> L1)\n"

(* ------------------------------------------------------------------ *)
(* E4 - input-node sensitivity                                         *)
(* ------------------------------------------------------------------ *)

let fig4_node_sensitivity (p : Fannet.Pipeline.t) =
  section "E4 fig4_node_sensitivity (paper Sec. V-C.4, Fig. 4 right panels)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let delta = 15 in
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
  let cexs, _ = corpus_at p ~delta ~limit:500 in
  let stats = Fannet.Sensitivity.per_node spec ~n_inputs:5 cexs in
  let table =
    Util.Table.create
      ~header:[ "node"; "positive"; "negative"; "zero"; "min"; "max"; "mean"; "sidedness" ]
  in
  Array.iter
    (fun (s : Fannet.Sensitivity.node_stats) ->
      let side =
        match Fannet.Sensitivity.sidedness s with
        | Fannet.Sensitivity.Never_positive -> "never-positive"
        | Fannet.Sensitivity.Never_negative -> "never-negative"
        | Fannet.Sensitivity.Both_sides -> "both"
        | Fannet.Sensitivity.No_data -> "no-data"
      in
      Util.Table.add_row table
        [
          (if s.node = 0 then "bias" else Printf.sprintf "i%d" s.node);
          string_of_int s.n_positive;
          string_of_int s.n_negative;
          string_of_int s.n_zero;
          string_of_int s.min_noise;
          string_of_int s.max_noise;
          Printf.sprintf "%.2f" s.mean_noise;
          side;
        ])
    stats;
  Util.Table.print table;
  List.iter
    (fun d ->
      let spec = Fannet.Noise.symmetric ~delta:d ~bias_noise in
      let sides = Fannet.Sensitivity.formal_sidedness p.qnet spec ~inputs in
      Printf.printf "formal sidedness at +-%d%%: %s\n" d
        (String.concat "  "
           (Array.to_list
              (Array.map
                 (fun (f : Fannet.Sensitivity.formal_side) ->
                   Printf.sprintf "%s:%s%s"
                     (if f.fs_node = 0 then "bias" else Printf.sprintf "i%d" f.fs_node)
                     (if f.positive_flip then "+" else ".")
                     (if f.negative_flip then "-" else "."))
                 sides))))
    [ 10; 12; 15 ];
  print_endline
    "(paper: node i5 admits no counterexample with positive noise; node i2\n\
    \ is more sensitive to positive noise - the shape target is at least\n\
    \ one one-sided node near the tolerance threshold)";
  (* Single-node tolerance: largest +-D safe when only that node is
     perturbed - a formal per-node sensitivity ranking. *)
  let probe = Fannet.Noise.symmetric ~delta:60 ~bias_noise in
  let table2 = Util.Table.create ~header:[ "node"; "single-node tolerance" ] in
  List.iter
    (fun node ->
      let t = Fannet.Sensitivity.single_node_tolerance p.qnet probe ~inputs ~node in
      Util.Table.add_row table2
        [
          (if node = 0 then "bias" else Printf.sprintf "i%d" node);
          (match t with Some d -> Printf.sprintf "+-%d%%" d | None -> ">+-60%");
        ])
    [ 0; 1; 2; 3; 4; 5 ];
  Util.Table.print table2

(* ------------------------------------------------------------------ *)
(* E5 - classification-boundary estimation                             *)
(* ------------------------------------------------------------------ *)

let fig4_boundary (p : Fannet.Pipeline.t) =
  section "E5 fig4_boundary (paper Sec. V-C.2)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let points = Fannet.Boundary.analyze backend p.qnet ~bias_noise ~max_delta:50 ~inputs in
  let table =
    Util.Table.create ~header:[ "input"; "true"; "min flip range"; "noise-free margin" ]
  in
  Array.iter
    (fun (pt : Fannet.Boundary.point) ->
      Util.Table.add_row table
        [
          string_of_int pt.input_index;
          Printf.sprintf "L%d" pt.true_label;
          (match pt.min_flip_delta with
          | Some d -> Printf.sprintf "+-%d%%" d
          | None -> ">+-50%");
          string_of_int pt.margin;
        ])
    points;
  Util.Table.print table;
  let near = Fannet.Boundary.near_boundary points ~threshold:15 in
  let robust = Fannet.Boundary.robust_at_probe points in
  Printf.printf
    "near boundary (flip <= +-15%%): %d inputs; robust beyond +-50%%: %d inputs\n"
    (Array.length near) (Array.length robust);
  Printf.printf "margin/min-flip correlation: %.3f\n"
    (Fannet.Boundary.margin_flip_correlation points);
  print_endline
    "(paper: a few inputs flip at small noise - near the class boundary -\n\
    \ while others survive +-50%%; margin correlates with flip threshold)"

(* ------------------------------------------------------------------ *)
(* E6 - accuracy table and P1 validation                               *)
(* ------------------------------------------------------------------ *)

let accuracy_table (p : Fannet.Pipeline.t) =
  section "E6 accuracy_table (paper Sec. V-A footnote + P1)";
  let table = Util.Table.create ~header:[ "metric"; "measured"; "paper" ] in
  Util.Table.add_row table
    [ "training accuracy"; Printf.sprintf "%.2f%%" (100. *. p.train_accuracy); "100%" ];
  Util.Table.add_row table
    [ "test accuracy"; Printf.sprintf "%.2f%%" (100. *. p.test_accuracy); "94.12%" ];
  Util.Table.add_row table
    [
      "P1: correctly classified test inputs";
      Printf.sprintf "%d/%d" p.p1.Fannet.Validate.n_correct p.p1.Fannet.Validate.n_total;
      "32/34";
    ];
  Util.Table.add_row table
    [
      "float/quantized prediction agreement";
      Printf.sprintf "%.2f%%"
        (100. *. Fannet.Validate.float_agreement p.network p.qnet ~inputs:p.test_inputs);
      "-";
    ];
  Util.Table.print table;
  List.iter
    (fun (i, predicted) ->
      let _, label = p.test_inputs.(i) in
      Printf.printf "  noise-free mismatch: test input %d, true L%d -> predicted L%d\n"
        i label predicted)
    p.p1.Fannet.Validate.mismatches

(* ------------------------------------------------------------------ *)
(* E7 - backend ablation                                               *)
(* ------------------------------------------------------------------ *)

let ablation_backends (p : Fannet.Pipeline.t) =
  section "E7 ablation_backends (ours; DESIGN.md)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let subset = Array.sub inputs 0 (min 8 (Array.length inputs)) in
  let table =
    Util.Table.create
      ~header:[ "backend"; "delta"; "robust"; "flip"; "unknown"; "time (s)" ]
  in
  let run_backend ?(n = Array.length subset) name b delta =
    let queries = Array.sub subset 0 (min n (Array.length subset)) in
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
    let (robust, flip, unknown), elapsed =
      time_of (fun () ->
          Array.fold_left
            (fun (r, f, u) (input, label) ->
              match Fannet.Backend.exists_flip b p.qnet spec ~input ~label with
              | Fannet.Backend.Robust -> (r + 1, f, u)
              | Fannet.Backend.Flip _ -> (r, f + 1, u)
              | Fannet.Backend.Unknown _ -> (r, f, u + 1))
            (0, 0, 0) queries)
    in
    Util.Table.add_row table
      [
        Printf.sprintf "%s (%d queries)" name (Array.length queries);
        Printf.sprintf "+-%d%%" delta;
        string_of_int robust;
        string_of_int flip;
        string_of_int unknown;
        Printf.sprintf "%.3f" elapsed;
      ]
  in
  List.iter
    (fun delta ->
      run_backend "bnb" Fannet.Backend.Bnb delta;
      (* The bit-blasted engine needs tens of seconds per exhaustive
         (UNSAT) proof even at +-1% - the scalability wall the paper also
         hits with nuXmv; two queries suffice to show it. *)
      if delta = 1 then run_backend ~n:2 "smt (bit-blast CDCL)" Fannet.Backend.Smt delta;
      run_backend "explicit" (Fannet.Backend.Explicit { limit = 10_000_000 }) delta;
      run_backend "interval" Fannet.Backend.Interval delta)
    [ 1; 2 ];
  List.iter
    (fun delta ->
      run_backend "bnb" Fannet.Backend.Bnb delta;
      run_backend "interval" Fannet.Backend.Interval delta)
    [ 20; 40 ];
  Util.Table.print table;
  print_endline
    "(complete backends must agree on robust/flip; interval is sound but\n\
    \ incomplete: its unknowns are where branch-and-bound earns its keep)"

(* ------------------------------------------------------------------ *)
(* E8 - random-testing baseline                                        *)
(* ------------------------------------------------------------------ *)

let ablation_random_baseline (p : Fannet.Pipeline.t) =
  section "E8 ablation_random_baseline (ours; paper Sec. I motivation)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let delta = 12 in
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
  let points = Fannet.Boundary.analyze backend p.qnet ~bias_noise ~max_delta:50 ~inputs in
  let fragile =
    Array.fold_left
      (fun acc (pt : Fannet.Boundary.point) ->
        match (acc, pt.min_flip_delta) with
        | None, Some _ -> Some pt
        | Some best, Some d -> (
            match best.Fannet.Boundary.min_flip_delta with
            | Some bd when d < bd -> Some pt
            | Some _ | None -> acc)
        | (Some _ | None), None -> acc)
      None points
  in
  match fragile with
  | None -> print_endline "no flippable input below the probe range"
  | Some pt ->
      let input, label = inputs.(pt.input_index) in
      let total, status =
        Fannet.Bnb.count_flips ~limit:100_000_000 p.qnet spec ~input ~label
      in
      let size = Fannet.Noise.spec_size spec ~n_inputs:5 in
      Printf.printf
        "target: input %d (min flip +-%s%%); flipping vectors at +-%d%%: %d of %d (%s)\n"
        pt.input_index
        (match pt.min_flip_delta with Some d -> string_of_int d | None -> "?")
        delta total size
        (match status with `Complete -> "exact" | `Truncated -> ">=");
      let table =
        Util.Table.create ~header:[ "method"; "budget"; "flips found"; "first hit at" ]
      in
      List.iter
        (fun budget ->
          let rng = Util.Rng.create (1000 + budget) in
          let r = Fannet.Baseline.random_search ~rng p.qnet spec ~input ~label ~budget in
          Util.Table.add_row table
            [
              "random testing";
              string_of_int budget;
              string_of_int (List.length r.found);
              (match r.first_found_at with Some k -> string_of_int k | None -> "-");
            ])
        [ 100; 1_000; 10_000 ];
      Util.Table.add_row table
        [ "formal (bnb)"; "exhaustive"; string_of_int total; "1 query" ];
      Util.Table.print table;
      print_endline
        "(the paper's motivation: testing cannot certify absence of flips;\n\
        \ the formal engine both certifies robust ranges and enumerates the\n\
        \ complete adversarial set)"

(* ------------------------------------------------------------------ *)
(* E9 - training-objective ablation                                    *)
(* ------------------------------------------------------------------ *)

let run_variant train_config =
  let config = { Fannet.Pipeline.default_config with train_config } in
  let v = Fannet.Pipeline.run ~config () in
  let inputs = Fannet.Pipeline.analysis_inputs v in
  let tolerance =
    if Array.length inputs = 0 then -1
    else
      Fannet.Tolerance.network_tolerance Fannet.Backend.Bnb v.qnet ~bias_noise
        ~max_delta:60 ~inputs
  in
  (v, tolerance)

let ablation_training_objective () =
  section "E9 ablation_training_objective (ours; DESIGN.md substitution)";
  let table =
    Util.Table.create
      ~header:[ "trainer"; "train acc"; "test acc"; "tolerance" ]
  in
  let row name cfg =
    let v, tolerance = run_variant cfg in
    Util.Table.add_row table
      [
        name;
        Printf.sprintf "%.1f%%" (100. *. v.Fannet.Pipeline.train_accuracy);
        Printf.sprintf "%.1f%%" (100. *. v.Fannet.Pipeline.test_accuracy);
        (if tolerance < 0 then "n/a" else Printf.sprintf "+-%d%%" tolerance);
      ]
  in
  row "cross-entropy SGD (default)" Nn.Train.default_config;
  row "MSE batch + momentum (MATLAB rates)" Nn.Train.paper_matlab_config;
  row "MSE batch + momentum (lr/10)"
    { Nn.Train.paper_matlab_config with lr_phase1 = 0.05; lr_phase2 = 0.02 };
  Util.Table.print table;
  print_endline
    "(the literal MATLAB-style objective at the paper's rates is unstable\n\
    \ on this data - the substitution DESIGN.md documents)"

(* ------------------------------------------------------------------ *)
(* E10 - quantization-precision ablation                               *)
(* ------------------------------------------------------------------ *)

let ablation_quantization (p : Fannet.Pipeline.t) =
  section "E10 ablation_quantization (ours; DESIGN.md)";
  let table =
    Util.Table.create
      ~header:[ "weight bits"; "float agreement"; "P1 correct"; "tolerance" ]
  in
  List.iter
    (fun bits ->
      let qnet = Nn.Quantize.quantize p.network ~weight_bits:bits in
      let agreement =
        Fannet.Validate.float_agreement p.network qnet ~inputs:p.test_inputs
      in
      let p1 = Fannet.Validate.p1 qnet ~inputs:p.test_inputs in
      let tolerance =
        if Array.length p1.Fannet.Validate.correct = 0 then -1
        else
          Fannet.Tolerance.network_tolerance Fannet.Backend.Bnb qnet ~bias_noise
            ~max_delta:60 ~inputs:p1.Fannet.Validate.correct
      in
      Util.Table.add_row table
        [
          string_of_int bits;
          Printf.sprintf "%.1f%%" (100. *. agreement);
          Printf.sprintf "%d/%d" p1.Fannet.Validate.n_correct p1.Fannet.Validate.n_total;
          (if tolerance < 0 then "n/a" else Printf.sprintf "+-%d%%" tolerance);
        ])
    [ 4; 6; 8; 10; 12 ];
  Util.Table.print table;
  print_endline
    "(the formal verdicts are about the quantized model; enough precision\n\
    \ makes them transfer to the float network - 100% agreement from 8 bits)"

(* ------------------------------------------------------------------ *)
(* E13 - hidden-width ablation                                         *)
(* ------------------------------------------------------------------ *)

let ablation_hidden_width () =
  section "E13 ablation_hidden_width (ours; the paper's 20-neuron choice)";
  let table =
    Util.Table.create ~header:[ "hidden neurons"; "train acc"; "test acc"; "tolerance" ]
  in
  List.iter
    (fun hidden ->
      let config = { Fannet.Pipeline.default_config with hidden } in
      let v = Fannet.Pipeline.run ~config () in
      let inputs = Fannet.Pipeline.analysis_inputs v in
      let tolerance =
        if Array.length inputs = 0 then -1
        else
          Fannet.Tolerance.network_tolerance Fannet.Backend.Bnb v.qnet ~bias_noise
            ~max_delta:60 ~inputs
      in
      Util.Table.add_row table
        [
          string_of_int hidden;
          Printf.sprintf "%.1f%%" (100. *. v.Fannet.Pipeline.train_accuracy);
          Printf.sprintf "%.1f%%" (100. *. v.Fannet.Pipeline.test_accuracy);
          (if tolerance < 0 then "n/a" else Printf.sprintf "+-%d%%" tolerance);
        ])
    [ 5; 10; 20; 40 ];
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E14 - feature-selection ablation                                    *)
(* ------------------------------------------------------------------ *)

let ablation_feature_selection () =
  section "E14 ablation_feature_selection (ours; the paper's mRMR choice)";
  let base = Fannet.Pipeline.default_config in
  let dataset =
    Dataset.Golub.generate ~params:base.dataset_params ~seed:base.dataset_seed ()
  in
  let evaluate name genes =
    (* Re-run the training stages on a fixed gene subset. *)
    let train_inputs = Fannet.Validate.of_samples dataset.Dataset.Golub.train ~genes in
    let test_inputs = Fannet.Validate.of_samples dataset.Dataset.Golub.test ~genes in
    let norm = Nn.Normalize.fit (Array.map fst train_inputs) in
    let vecs = Array.map (fun (x, _) -> Nn.Normalize.apply norm x) train_inputs in
    let labels = Array.map snd train_inputs in
    let rng = Util.Rng.create base.init_seed in
    let raw =
      Nn.Network.create ~rng ~spec:[ Array.length genes; base.hidden; 2 ]
        ~hidden_activation:Nn.Activation.Relu
    in
    ignore (Nn.Train.train ~config:base.train_config raw ~inputs:vecs ~labels);
    let shift, scale = Nn.Normalize.shift_scale norm in
    let network = Nn.Network.fold_input_affine raw ~shift ~scale in
    let qnet = Nn.Quantize.quantize network ~weight_bits:base.weight_bits in
    let p1 = Fannet.Validate.p1 qnet ~inputs:test_inputs in
    let inputs = p1.Fannet.Validate.correct in
    (* Budgeted per-query search: a network fitted to uninformative genes
       has vacuous bounds and the complete search explodes - report that
       honestly instead of hanging. *)
    let budgeted_min_flip input label =
      let flips delta =
        let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
        match
          Fannet.Bnb.exists_flip ~max_boxes:2_000_000 qnet spec ~input ~label
        with
        | Fannet.Bnb.Flip _ -> true
        | Fannet.Bnb.Robust -> false
        | Fannet.Bnb.Unknown _ -> assert false (* no budget on this path *)
      in
      if not (flips 60) then None
      else begin
        let rec search lo hi =
          if hi - lo <= 1 then hi
          else
            let mid = (lo + hi) / 2 in
            if flips mid then search lo mid else search mid hi
        in
        Some (search 0 60)
      end
    in
    let tolerance =
      if Array.length inputs = 0 then "n/a"
      else
        match
          Array.fold_left
            (fun acc (input, label) ->
              match budgeted_min_flip input label with
              | None -> acc
              | Some d -> min acc (d - 1))
            60 inputs
        with
        | t -> Printf.sprintf "+-%d%%" t
        | exception Fannet.Bnb.Budget_exceeded -> "search exploded"
    in
    ( name,
      Printf.sprintf "%d/%d" p1.Fannet.Validate.n_correct p1.Fannet.Validate.n_total,
      tolerance )
  in
  let mrmr = Dataset.Mrmr.select dataset.Dataset.Golub.train ~k:base.k_features ~bins:base.mi_bins in
  let max_rel =
    let ranking = Dataset.Mrmr.relevance_ranking dataset.Dataset.Golub.train ~bins:base.mi_bins in
    Array.init base.k_features (fun i -> fst ranking.(i))
  in
  let random_genes =
    let rng = Util.Rng.create 99 in
    Array.init base.k_features (fun _ -> Util.Rng.int rng dataset.Dataset.Golub.n_genes)
  in
  let table = Util.Table.create ~header:[ "selection"; "P1 test"; "tolerance" ] in
  List.iter
    (fun (name, p1, tol) -> Util.Table.add_row table [ name; p1; tol ])
    [
      evaluate "mRMR (paper)" mrmr;
      evaluate "max relevance only" max_rel;
      evaluate "random genes" random_genes;
    ];
  Util.Table.print table;
  print_endline
    "(the paper selects its 5 genes with mRMR; random genes carry no\n\
    \ signal - the network memorises noise, loses test accuracy AND\n\
    \ becomes so unstructured that complete verification blows up)"

(* ------------------------------------------------------------------ *)
(* E11 - multi-class extension                                         *)
(* ------------------------------------------------------------------ *)

let extension_multiclass () =
  section "E11 extension_multiclass (ours; beyond the paper)";
  let m = Fannet.Mc_pipeline.run () in
  let inputs = Fannet.Mc_pipeline.analysis_inputs m in
  Printf.printf "3-class pipeline: train %.1f%%, test %.1f%% (P1 %d/%d)\n"
    (100. *. m.Fannet.Mc_pipeline.train_accuracy)
    (100. *. m.Fannet.Mc_pipeline.test_accuracy)
    m.Fannet.Mc_pipeline.p1.Fannet.Validate.n_correct
    m.Fannet.Mc_pipeline.p1.Fannet.Validate.n_total;
  let tol =
    Fannet.Tolerance.network_tolerance Fannet.Backend.Bnb m.qnet ~bias_noise
      ~max_delta:60 ~inputs
  in
  Printf.printf "noise tolerance: +-%d%%\n" tol;
  let delta = min 50 (tol + 6) in
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
  let cexs, _ = Fannet.Extract.for_inputs ~limit_per_input:100 m.qnet spec ~inputs in
  Printf.printf "confusion directions at +-%d%%:\n" delta;
  Fannet.Bias.flip_directions cexs
  |> List.iter (fun (d : Fannet.Bias.direction) ->
         Printf.printf "  C%d -> C%d : %d\n" d.from_label d.to_label d.count);
  print_endline
    "(the same formal machinery generalised to k classes: one margin per\n\
    \ adversary class inside branch-and-bound)"

(* ------------------------------------------------------------------ *)
(* E12 - relative vs absolute noise                                    *)
(* ------------------------------------------------------------------ *)

let extension_absolute_noise (p : Fannet.Pipeline.t) =
  section "E12 extension_absolute_noise (ours; L-infinity setting)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let subset = Array.sub inputs 0 (min 6 (Array.length inputs)) in
  let table =
    Util.Table.create
      ~header:[ "input"; "min relative flip"; "min absolute flip (units)" ]
  in
  Array.iteri
    (fun i (input, label) ->
      let rel =
        Fannet.Tolerance.input_min_flip_delta Fannet.Backend.Bnb p.qnet
          ~bias_noise ~max_delta:60 ~input ~label
      in
      (* Binary search the smallest absolute L-infinity radius that flips. *)
      let abs_flips d =
        let spec = Fannet.Noise.absolute ~delta:d ~bias_noise:false in
        match Fannet.Backend.exists_flip Fannet.Backend.Bnb p.qnet spec ~input ~label with
        | Fannet.Backend.Flip _ -> true
        | Fannet.Backend.Robust | Fannet.Backend.Unknown _ -> false
      in
      let max_abs = 4096 in
      let abs_min =
        if not (abs_flips max_abs) then None
        else begin
          let rec search lo hi =
            if hi - lo <= 1 then hi
            else
              let mid = (lo + hi) / 2 in
              if abs_flips mid then search lo mid else search mid hi
          in
          Some (search 0 max_abs)
        end
      in
      Util.Table.add_row table
        [
          string_of_int i;
          (match rel with Some d -> Printf.sprintf "+-%d%%" d | None -> ">+-60%");
          (match abs_min with Some d -> Printf.sprintf "+-%d" d | None -> ">+-4096");
        ])
    subset;
  Util.Table.print table;
  print_endline
    "(the paper's relative model scales noise with each gene's magnitude;\n\
    \ the absolute model is the L-infinity ball of the robustness\n\
    \ literature - both run on the same engines)"

(* ------------------------------------------------------------------ *)
(* E15 - parallel engine, cascade prefilter, incremental search        *)
(* ------------------------------------------------------------------ *)

(* A small fixed network for the incremental-SMT comparison: bit-blasting
   the full pipeline network takes tens of seconds per UNSAT probe (the
   scalability wall measured in E7), so the warm-vs-cold session contrast
   is shown on a model where both sides finish in milliseconds. *)
let small_qnet () =
  Nn.Qnet.create
    [|
      {
        Nn.Qnet.weights =
          [|
            [| 31; -22 |]; [| -13; 41 |]; [| 17; 9 |]; [| -25; 14 |];
          |];
        bias = [| 55; -31; 12; -7 |];
        act = Nn.Qnet.Relu;
      };
      {
        Nn.Qnet.weights = [| [| 21; -33; 11; -9 |]; [| -20; 31; -12; 10 |] |];
        bias = [| 13; 0 |];
        act = Nn.Qnet.Identity;
      };
    |]

let bench_parallel ?(smoke = false) (p : Fannet.Pipeline.t) ~out =
  section "E15 bench_parallel (domain pool + cascade prefilter + incremental search)";
  let all_inputs = Fannet.Pipeline.analysis_inputs p in
  let inputs =
    if smoke then Array.sub all_inputs 0 (min 6 (Array.length all_inputs))
    else all_inputs
  in
  let delta = 15 in
  let max_delta = if smoke then 30 else 50 in
  (* Exercise the pool even on single-core machines: chunking and domain
     spawning must preserve results regardless of the hardware count. *)
  let njobs = max 2 (Util.Parallel.default_jobs ()) in
  let table =
    Util.Table.create
      ~header:
        [ "analysis"; "backend"; "jobs=1 (s)"; Printf.sprintf "jobs=%d (s)" njobs;
          "speedup"; "equal"; "prefilter hit rate" ]
  in
  let analyses = ref [] in
  let run_analysis name backend f =
    let cascade = match backend with Fannet.Backend.Cascade _ -> true | _ -> false in
    let r1, t1 = time_of (fun () -> f ~jobs:1 backend) in
    if cascade then Fannet.Backend.reset_cascade_stats ();
    let rn, tn = time_of (fun () -> f ~jobs:njobs backend) in
    let stats = if cascade then Some (Fannet.Backend.cascade_stats ()) else None in
    let equal = r1 = rn in
    if not equal then
      failwith (Printf.sprintf "E15: %s verdicts differ between jobs=1 and jobs=%d" name njobs);
    let hit_rate = Option.map Fannet.Backend.cascade_hit_rate stats in
    Util.Table.add_row table
      [
        name;
        Fannet.Backend.to_string backend;
        Printf.sprintf "%.3f" t1;
        Printf.sprintf "%.3f" tn;
        Printf.sprintf "%.2fx" (t1 /. tn);
        string_of_bool equal;
        (match hit_rate with
        | Some r -> Printf.sprintf "%.0f%%" (100. *. r)
        | None -> "-");
      ];
    analyses :=
      Util.Json.Obj
        ([
           ("analysis", Util.Json.String name);
           ("backend", Util.Json.String (Fannet.Backend.to_string backend));
           ("jobs1_s", Util.Json.Float t1);
           ("jobsN_s", Util.Json.Float tn);
           ("speedup", Util.Json.Float (t1 /. tn));
           ("verdicts_equal", Util.Json.Bool equal);
         ]
        @
        match stats with
        | None -> []
        | Some s ->
            [
              ("interval_hits", Util.Json.Int s.Fannet.Backend.interval_hits);
              ("escalations", Util.Json.Int s.Fannet.Backend.escalations);
              ( "hit_rate",
                Util.Json.Float (Fannet.Backend.cascade_hit_rate s) );
            ])
      :: !analyses;
    r1
  in
  let misclassified ~jobs backend =
    List.map
      (fun (f : Fannet.Tolerance.flip) -> (f.input_index, f.predicted))
      (Fannet.Tolerance.misclassified_at ~jobs backend p.qnet ~bias_noise ~delta
         ~inputs)
  in
  let tolerance ~jobs backend =
    [ (Fannet.Tolerance.network_tolerance ~jobs backend p.qnet ~bias_noise
         ~max_delta ~inputs, 0) ]
  in
  let extract ~jobs _backend =
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
    let cexs, _ =
      Fannet.Extract.for_inputs ~limit_per_input:50 ~jobs p.qnet spec ~inputs
    in
    List.map
      (fun (c : Fannet.Extract.counterexample) -> (c.input_index, c.predicted))
      cexs
  in
  let mis_bnb = run_analysis "misclassified_at" Fannet.Backend.Bnb misclassified in
  let mis_cascade =
    run_analysis "misclassified_at" Fannet.Backend.default_cascade misclassified
  in
  if mis_bnb <> mis_cascade then
    failwith "E15: cascade(bnb) disagrees with bnb on misclassified_at";
  ignore (run_analysis "extract_for_inputs" Fannet.Backend.Bnb extract);
  let tol_bnb = run_analysis "network_tolerance" Fannet.Backend.Bnb tolerance in
  let tol_cascade =
    run_analysis "network_tolerance" Fannet.Backend.default_cascade tolerance
  in
  if tol_bnb <> tol_cascade then
    failwith "E15: cascade(bnb) disagrees with bnb on network_tolerance";
  Util.Table.print table;
  (* Incremental bit-blasted binary search: one warm session with assumable
     range literals vs re-encoding the network at every probe. *)
  let qnet = small_qnet () in
  let sinput = [| 112; 87 |] in
  let slabel = Nn.Qnet.predict qnet sinput in
  let smt_max_delta = 40 in
  let warm, warm_t =
    time_of (fun () ->
        Fannet.Tolerance.input_min_flip_delta Fannet.Backend.Smt qnet
          ~bias_noise:false ~max_delta:smt_max_delta ~input:sinput ~label:slabel)
  in
  let cold, cold_t =
    time_of (fun () ->
        (* The pre-incremental procedure: a fresh Tseitin encoding and solver
           per probe of the same monotone binary search. *)
        let flips d =
          let spec = Fannet.Noise.symmetric ~delta:d ~bias_noise:false in
          match
            Fannet.Backend.exists_flip Fannet.Backend.Smt qnet spec ~input:sinput
              ~label:slabel
          with
          | Fannet.Backend.Flip _ -> true
          | Fannet.Backend.Robust -> false
          | Fannet.Backend.Unknown _ -> failwith "E15: smt probe unknown"
        in
        if not (flips smt_max_delta) then None
        else if flips 0 then Some 0
        else begin
          let rec search lo hi =
            if hi - lo <= 1 then hi
            else
              let mid = (lo + hi) / 2 in
              if flips mid then search lo mid else search mid hi
          in
          Some (search 0 smt_max_delta)
        end)
  in
  let bnb_ref =
    Fannet.Tolerance.input_min_flip_delta Fannet.Backend.Bnb qnet ~bias_noise:false
      ~max_delta:smt_max_delta ~input:sinput ~label:slabel
  in
  if warm <> cold || warm <> bnb_ref then
    failwith "E15: incremental smt min-flip disagrees with cold smt or bnb";
  let show = function Some d -> Printf.sprintf "+-%d%%" d | None -> "robust" in
  Printf.printf
    "incremental smt min-flip (small net): %s in %.3fs warm session vs %.3fs\n\
    \ re-encoding per probe (%.2fx); bnb agrees (%s)\n"
    (show warm) warm_t cold_t (cold_t /. warm_t) (show bnb_ref);
  (* ---------------------------------------------------------------- *)
  (* E19: work-stealing effort accounting, warm session pool reuse and  *)
  (* the diversified solver portfolio with a certified winner.          *)
  (* ---------------------------------------------------------------- *)
  section "E19 bench_parallel_v2 (work stealing + warm sessions + portfolio)";
  let cores = Domain.recommended_domain_count () in
  let single_core = cores <= 1 in
  (* Speedup contract: with real cores a parallel ladder must beat
     jobs=1; on a single-core box the honest ratio is <= 1 and the gate
     is no-regression only — domain spawning and stealing may not cost
     more than a bounded constant factor. *)
  let no_regression_floor = 0.15 in
  (* Sub-10ms smoke timings are dominated by domain-spawn constants and
     scheduler noise, so the ratio floor alone would flake; a failure
     additionally requires an absolute regression worth caring about. *)
  let abs_regression_slack_s = 0.05 in
  let assert_speedup name ~t1 ~tn =
    let sp = t1 /. tn in
    if single_core then begin
      if sp < no_regression_floor && tn -. t1 > abs_regression_slack_s then
        failwith
          (Printf.sprintf
             "E19: %s single-core ratio %.2fx below the %.2fx no-regression floor"
             name sp no_regression_floor)
    end
    else if (not smoke) && sp <= 1.0 then
      failwith
        (Printf.sprintf "E19: %s speedup %.2fx with %d cores — parallelism does not pay"
           name sp cores)
  in
  List.iter
    (fun entry ->
      match entry with
      | Util.Json.Obj kvs -> (
          match
            ( List.assoc_opt "analysis" kvs,
              List.assoc_opt "jobs1_s" kvs,
              List.assoc_opt "jobsN_s" kvs )
          with
          | ( Some (Util.Json.String name),
              Some (Util.Json.Float t1),
              Some (Util.Json.Float tn) ) ->
              assert_speedup name ~t1 ~tn
          | _ -> ())
      | _ -> ())
    !analyses;
  (* Work-stealing effort: re-run the per-input flip scan with a probe
     installed and account each worker's items, steals and busy time.
     The imbalance gauge is slowest-worker busy time over the mean — 1.0
     is perfect balance, and stealing is what pushes it towards 1. *)
  let batches = ref 0 and steals = ref 0 and stolen_items = ref 0 in
  let imbalance = ref 1.0 in
  let probe =
    {
      Util.Parallel.now_s =
        (fun () -> Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9);
      record =
        (fun ~stats ->
          incr batches;
          Array.iter
            (fun (w : Util.Parallel.worker_stat) ->
              steals := !steals + w.steals;
              stolen_items := !stolen_items + w.items)
            stats;
          let busy = Array.map (fun (w : Util.Parallel.worker_stat) -> w.busy_s) stats in
          let slowest = Array.fold_left max 0. busy in
          let mean =
            Array.fold_left ( +. ) 0. busy /. float_of_int (Array.length busy)
          in
          if mean > 0. then imbalance := slowest /. mean);
    }
  in
  Util.Parallel.set_probe (Some probe);
  ignore (misclassified ~jobs:njobs Fannet.Backend.Bnb);
  Util.Parallel.set_probe None;
  Printf.printf
    "work stealing (jobs=%d): %d batches, %d items, %d steals, imbalance %.2f\n"
    njobs !batches !stolen_items !steals !imbalance;
  (* Warm session pool: the same binary search twice — the repeat must
     re-encode nothing and answer identically from the pooled session. *)
  Fannet.Warm.reset ();
  let warm_search () =
    Fannet.Tolerance.input_min_flip_delta Fannet.Backend.Smt qnet
      ~bias_noise:false ~max_delta:smt_max_delta ~input:sinput ~label:slabel
  in
  let first, first_s = time_of warm_search in
  let misses_after_first = Fannet.Warm.misses () in
  let repeat, repeat_s = time_of warm_search in
  let warm_hits = Fannet.Warm.hits () in
  let warm_misses = Fannet.Warm.misses () in
  let warm_evictions = Fannet.Warm.evictions () in
  if first <> repeat || first <> warm then
    failwith "E19: warm-pool repeat search changed its answer";
  if warm_misses <> misses_after_first then
    failwith "E19: warm-pool repeat search re-encoded the network";
  let warm_hit_rate =
    float_of_int warm_hits /. float_of_int (max 1 (warm_hits + warm_misses))
  in
  let warm_speedup = first_s /. repeat_s in
  assert_speedup "warm_pool_repeat" ~t1:first_s ~tn:repeat_s;
  Printf.printf
    "warm pool: first search %.4fs (%d encodes), repeat %.4fs (%.2fx, 0 encodes,\n\
    \ %d hits, %.0f%% hit rate)\n"
    first_s warm_misses repeat_s warm_speedup warm_hits (100. *. warm_hit_rate);
  (* Portfolio: race diversified solvers on a robust and (when the net
     admits one) a flipping query; the winner's DRUP certificate must
     pass the independent checker — the same acceptance bar as the
     single-solver certified path. *)
  let width = max 2 (Fannet.Portfolio.default_width ()) in
  Obs.Report.enable ();
  Obs.Report.reset ();
  let portfolio_deltas =
    match bnb_ref with None -> [ 0; smt_max_delta ] | Some d -> [ 0; d ]
  in
  let portfolio_rows =
    List.map
      (fun pdelta ->
        let spec = Fannet.Noise.symmetric ~delta:pdelta ~bias_noise:false in
        let truth =
          Fannet.Backend.exists_flip Fannet.Backend.Bnb qnet spec ~input:sinput
            ~label:slabel
        in
        let cv_single, single_s =
          time_of (fun () ->
              Fannet.Backend.certified_exists_flip qnet spec ~input:sinput
                ~label:slabel)
        in
        let (cv, seed), portfolio_s =
          time_of (fun () ->
              Fannet.Portfolio.certified_exists_flip ~width qnet spec
                ~input:sinput ~label:slabel)
        in
        let verdict_class v =
          match v with
          | Fannet.Backend.Robust -> "robust"
          | Fannet.Backend.Flip _ -> "flip"
          | Fannet.Backend.Unknown _ -> "unknown"
        in
        if verdict_class cv.Fannet.Backend.cv_verdict <> verdict_class truth
        then
          failwith
            (Printf.sprintf "E19: portfolio disagrees with bnb at +-%d%%" pdelta);
        if
          verdict_class cv_single.Fannet.Backend.cv_verdict
          <> verdict_class truth
        then
          failwith
            (Printf.sprintf "E19: single solver disagrees with bnb at +-%d%%"
               pdelta);
        let winner =
          match seed with
          | Some s -> s
          | None -> failwith "E19: decided portfolio verdict without a winner"
        in
        (match
           Fannet.Backend.check_certified qnet spec ~input:sinput ~label:slabel
             cv
         with
        | Ok () -> ()
        | Error e ->
            failwith
              (Printf.sprintf
                 "E19: portfolio winner's certificate rejected at +-%d%%: %s"
                 pdelta e));
        Printf.printf
          "portfolio +-%d%% (width %d): %s, winner seed %d, certificate checked\n\
          \ (%.4fs vs %.4fs single solver)\n"
          pdelta width
          (verdict_class cv.Fannet.Backend.cv_verdict)
          winner portfolio_s single_s;
        Util.Json.Obj
          [
            ("delta", Util.Json.Int pdelta);
            ("verdict", Util.Json.String (verdict_class cv.Fannet.Backend.cv_verdict));
            ("winner_seed", Util.Json.Int winner);
            ("single_s", Util.Json.Float single_s);
            ("portfolio_s", Util.Json.Float portfolio_s);
            ("certificate_checked", Util.Json.Bool true);
          ])
      portfolio_deltas
  in
  let cval name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let races = cval "portfolio.races" in
  let undecided = cval "portfolio.undecided" in
  let wins_by_seed =
    List.init width (fun s ->
        ( Printf.sprintf "seed%d" s,
          Util.Json.Int (cval (Printf.sprintf "portfolio.wins.seed%d" s)) ))
  in
  Obs.Report.disable ();
  Obs.Report.reset ();
  let json =
    Util.Json.Obj
      [
        ("schema", Util.Json.String "fannet.bench_parallel/2");
        ("smoke", Util.Json.Bool smoke);
        ("jobs", Util.Json.Int njobs);
        ("recommended_domains", Util.Json.Int cores);
        ("single_core", Util.Json.Bool single_core);
        ("no_regression_floor", Util.Json.Float no_regression_floor);
        ("n_inputs", Util.Json.Int (Array.length inputs));
        ("delta", Util.Json.Int delta);
        ("max_delta", Util.Json.Int max_delta);
        ("analyses", Util.Json.List (List.rev !analyses));
        ( "incremental_smt",
          Util.Json.Obj
            [
              ("max_delta", Util.Json.Int smt_max_delta);
              ( "min_flip_delta",
                match warm with
                | Some d -> Util.Json.Int d
                | None -> Util.Json.Null );
              ("warm_s", Util.Json.Float warm_t);
              ("cold_s", Util.Json.Float cold_t);
              ("speedup", Util.Json.Float (cold_t /. warm_t));
              ("agrees_bnb", Util.Json.Bool (warm = bnb_ref));
            ] );
        ( "work_stealing",
          Util.Json.Obj
            [
              ("jobs", Util.Json.Int njobs);
              ("batches", Util.Json.Int !batches);
              ("items", Util.Json.Int !stolen_items);
              ("steals", Util.Json.Int !steals);
              ("imbalance", Util.Json.Float !imbalance);
            ] );
        ( "warm_sessions",
          Util.Json.Obj
            [
              ("first_s", Util.Json.Float first_s);
              ("repeat_s", Util.Json.Float repeat_s);
              ("repeat_speedup", Util.Json.Float warm_speedup);
              ("hits", Util.Json.Int warm_hits);
              ("misses", Util.Json.Int warm_misses);
              ("evictions", Util.Json.Int warm_evictions);
              ("hit_rate", Util.Json.Float warm_hit_rate);
            ] );
        ( "portfolio",
          Util.Json.Obj
            [
              ("width", Util.Json.Int width);
              ("races", Util.Json.Int races);
              ("undecided", Util.Json.Int undecided);
              ("wins", Util.Json.Obj wins_by_seed);
              ("queries", Util.Json.List portfolio_rows);
            ] );
      ]
  in
  Util.Json.write_file out json;
  (match Util.Json.parse_file out with
  | Ok reread
    when Util.Json.member "schema" reread
         = Some (Util.Json.String "fannet.bench_parallel/2") ->
      Printf.printf "%s written and re-parsed OK\n" out
  | Ok _ -> failwith (Printf.sprintf "E19: %s lost its schema tag" out)
  | Error e -> failwith (Printf.sprintf "E19: %s failed to parse: %s" out e))

(* ------------------------------------------------------------------ *)
(* E22: deep & binarized scaling ladder                                *)
(* ------------------------------------------------------------------ *)

(* Scaling ladder over {6, 64, 784} inputs x {2, 3, 4} weight layers x
   {relu-quantized, binarized} (Nn.Ladder rungs, one fixed seed): per
   rung and noise delta, the interval backend and budgeted Bnb verdicts
   with times; on gene-panel-sized rungs additionally the explicit
   enumerator cross-check, the exact flip count against brute-force
   enumeration, and a certified verdict re-checked by lib/cert. The
   precision gap is asserted, not just reported: the 64-input 3-layer
   relu rung must be Unknown for pure interval bounds yet decided by the
   symbolic-bounds Bnb within budget, and the deep binarized rung must
   yield a concrete (revalidated) counterexample. *)
let bench_ladder ?(smoke = false) ~out () =
  section "E22 bench_ladder (deep & binarized scaling ladder)";
  let seed = 60 in
  let budget_s = 5.0 in
  let decided = function
    | Fannet.Backend.Robust | Fannet.Backend.Flip _ -> true
    | Fannet.Backend.Unknown _ -> false
  in
  let shapes =
    if smoke then [ (6, 2); (6, 3); (64, 3); (64, 4) ]
    else
      [ (6, 2); (6, 3); (6, 4); (64, 2); (64, 3); (64, 4); (784, 2); (784, 3); (784, 4) ]
  in
  let deltas = if smoke then [ 1 ] else [ 1; 2 ] in
  let interval_gap = ref [] in
  let rows =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun (n_inputs, n_layers) ->
            let r = Nn.Ladder.rung ~family ~n_inputs ~n_layers ~seed in
            let id = Nn.Ladder.rung_id r in
            let input = r.Nn.Ladder.input and label = r.Nn.Ladder.label in
            let qnet = r.Nn.Ladder.qnet in
            List.map
              (fun delta ->
                (* The smoke grid carries the two asserted gap rungs at
                   their asserted deltas; everything else runs delta 1. *)
                let delta =
                  if smoke && family = Nn.Ladder.Relu_quantized && n_inputs = 64
                  then 2
                  else delta
                in
                let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
                let itv, itv_s =
                  time_of (fun () ->
                      Fannet.Backend.exists_flip Fannet.Backend.Interval qnet
                        spec ~input ~label)
                in
                let bnb, bnb_s =
                  time_of (fun () ->
                      let budget = Resil.Budget.create ~timeout_s:budget_s () in
                      Fannet.Backend.exists_flip ~budget Fannet.Backend.Bnb qnet
                        spec ~input ~label)
                in
                if (not (decided itv)) && decided bnb then
                  interval_gap := Printf.sprintf "%s d=%d" id delta :: !interval_gap;
                (* Small rungs: the explicit enumerator must agree with
                   Bnb on the same query — the fuzz oracle's agreement
                   notion, here on ladder-shaped networks. *)
                let explicit_agrees =
                  if
                    n_inputs = 6 && delta = 1
                    && Fannet.Noise.spec_size spec ~n_inputs
                       <= Fannet.Backend.default_explicit_limit
                  then begin
                    let ex =
                      Fannet.Backend.exists_flip
                        (Fannet.Backend.Explicit
                           { limit = Fannet.Backend.default_explicit_limit })
                        qnet spec ~input ~label
                    in
                    if not (Fannet.Backend.agree ex bnb) then
                      failwith
                        (Printf.sprintf
                           "E22: %s d=%d: explicit %s disagrees with bnb %s" id
                           delta
                           (Fannet.Backend.verdict_to_string ex)
                           (Fannet.Backend.verdict_to_string bnb));
                    Some true
                  end
                  else None
                in
                Printf.printf "%-22s d=%d: interval %-9s %6.3fs  bnb %-9s %6.3fs%s\n%!"
                  id delta
                  (match itv with
                  | Fannet.Backend.Unknown _ -> "unknown"
                  | v -> Fannet.Backend.verdict_to_string v)
                  itv_s
                  (match bnb with
                  | Fannet.Backend.Flip _ -> "flip"
                  | Fannet.Backend.Unknown _ -> "unknown"
                  | v -> Fannet.Backend.verdict_to_string v)
                  bnb_s
                  (match explicit_agrees with
                  | Some true -> "  explicit agrees"
                  | _ -> "");
                ( id, family, n_inputs, n_layers, delta, itv, bnb, bnb_s,
                  explicit_agrees ))
              deltas)
          shapes)
      Nn.Ladder.families
  in
  (* Asserted precision gap: symbolic bounds beat interval propagation on
     the wide 3-layer relu rung, and the deep binarized rung has a real,
     revalidated counterexample. *)
  let find fam n_inputs n_layers delta =
    List.find_opt
      (fun (_, f, ni, nl, d, _, _, _, _) ->
        f = fam && ni = n_inputs && nl = n_layers && d = delta)
      rows
  in
  (match find Nn.Ladder.Relu_quantized 64 3 2 with
  | Some (_, _, _, _, _, itv, bnb, _, _) ->
      if decided itv then
        failwith "E22: interval unexpectedly decided relu-quantized/64x3 d=2";
      if not (decided bnb) then
        failwith "E22: bnb failed to decide relu-quantized/64x3 d=2 within budget"
  | None when smoke -> failwith "E22: smoke grid lost the relu 64x3 gap rung"
  | None -> ());
  (match find Nn.Ladder.Binarized 64 4 1 with
  | Some (_, _, _, _, _, _, bnb, _, _) -> (
      match bnb with
      | Fannet.Backend.Flip _ -> ()
      | v ->
          failwith
            (Printf.sprintf "E22: binarized/64x4 d=1 expected a flip, got %s"
               (Fannet.Backend.verdict_to_string v)))
  | None -> failwith "E22: grid lost the binarized 64x4 rung");
  if !interval_gap = [] then
    failwith "E22: no rung separated interval bounds from symbolic Bnb";
  (* Gene-panel-sized rungs: exact flip counts on the fragile probe vs
     brute-force enumeration, and a certified verdict (DRUP refutation or
     model, sign comparators included) re-checked by lib/cert. *)
  let small_layers = if smoke then [ 2; 3 ] else [ 2; 3; 4 ] in
  let count_rows =
    List.concat_map
      (fun family ->
        List.map
          (fun n_layers ->
            let r = Nn.Ladder.rung ~family ~n_inputs:6 ~n_layers ~seed in
            let id = Nn.Ladder.rung_id r in
            let qnet = r.Nn.Ladder.qnet in
            let input = r.Nn.Ladder.fragile in
            let label = Nn.Qnet.predict qnet input in
            let delta = 1 in
            let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
            let brute = ref 0 in
            Fannet.Noise.iter_vectors spec ~n_inputs:6 (fun v ->
                if Fannet.Noise.predict qnet spec ~input v <> label then
                  incr brute);
            let rep, count_s =
              time_of (fun () ->
                  Fannet.Robustness.probability qnet spec ~input ~label)
            in
            if rep.Fannet.Robustness.status <> Ok () then
              failwith (Printf.sprintf "E22: %s count did not finish" id);
            (* A plain count is one Bnb walk: tens of microseconds here. *)
            if smoke && count_s > 0.010 then
              failwith
                (Printf.sprintf "E22: %s plain count took %.4f s > 10 ms" id
                   count_s);
            if
              not
                (Util.Bigcount.equal rep.Fannet.Robustness.flips
                   (Util.Bigcount.of_int !brute))
            then
              failwith
                (Printf.sprintf "E22: %s d=%d count %s <> brute-force %d" id
                   delta
                   (Util.Bigcount.to_string rep.Fannet.Robustness.flips)
                   !brute);
            let certified, cert_s =
              if (not smoke) || n_layers = 2 then begin
                let spec1 = Fannet.Noise.symmetric ~delta:1 ~bias_noise:false in
                let cv, cert_s =
                  time_of (fun () ->
                      Fannet.Backend.certified_exists_flip qnet spec1
                        ~input:r.Nn.Ladder.input ~label:r.Nn.Ladder.label)
                in
                (match
                   Fannet.Backend.check_certified qnet spec1
                     ~input:r.Nn.Ladder.input ~label:r.Nn.Ladder.label cv
                 with
                | Ok () -> ()
                | Error e ->
                    failwith (Printf.sprintf "E22: %s certificate: %s" id e));
                (true, cert_s)
              end
              else (false, 0.0)
            in
            Printf.printf
              "%-22s d=%d: %d/%d flips (brute-force agrees), %.3fs%s\n%!" id
              delta !brute
              (Fannet.Noise.spec_size spec ~n_inputs:6)
              count_s
              (if certified then Printf.sprintf "; certified %.3fs" cert_s
               else "");
            (id, delta, !brute, count_s, certified, cert_s))
          small_layers)
      Nn.Ladder.families
  in
  if not (List.exists (fun (_, _, brute, _, _, _) -> brute > 0) count_rows)
  then failwith "E22: every fragile-probe count was zero — vacuous cross-check";
  let verdict_json v =
    Util.Json.String
      (match v with
      | Fannet.Backend.Robust -> "robust"
      | Fannet.Backend.Flip _ -> "flip"
      | Fannet.Backend.Unknown _ -> "unknown")
  in
  let json =
    Util.Json.Obj
      [
        ("schema", Util.Json.String "fannet.bench_ladder/1");
        ("smoke", Util.Json.Bool smoke);
        ("seed", Util.Json.Int seed);
        ("budget_s", Util.Json.Float budget_s);
        ( "rungs",
          Util.Json.List
            (List.map
               (fun (id, _, n_inputs, n_layers, delta, itv, bnb, bnb_s, ex) ->
                 Util.Json.Obj
                   ([
                      ("id", Util.Json.String id);
                      ("n_inputs", Util.Json.Int n_inputs);
                      ("n_layers", Util.Json.Int n_layers);
                      ("delta", Util.Json.Int delta);
                      ("interval", verdict_json itv);
                      ("bnb", verdict_json bnb);
                      ("bnb_s", Util.Json.Float bnb_s);
                    ]
                   @
                   match ex with
                   | Some b -> [ ("explicit_agrees", Util.Json.Bool b) ]
                   | None -> []))
               rows) );
        ( "counts",
          Util.Json.List
            (List.map
               (fun (id, delta, flips, count_s, certified, cert_s) ->
                 Util.Json.Obj
                   [
                     ("id", Util.Json.String id);
                     ("delta", Util.Json.Int delta);
                     ("flips", Util.Json.Int flips);
                     ("count_s", Util.Json.Float count_s);
                     ("certified", Util.Json.Bool certified);
                     ("certified_s", Util.Json.Float cert_s);
                   ])
               count_rows) );
        ( "interval_gap",
          Util.Json.List
            (List.map (fun s -> Util.Json.String s) (List.rev !interval_gap)) );
      ]
  in
  Util.Json.write_file out json;
  match Util.Json.parse_file out with
  | Ok reread
    when Util.Json.member "schema" reread
         = Some (Util.Json.String "fannet.bench_ladder/1") ->
      Printf.printf "%s written and re-parsed OK\n" out
  | Ok _ -> failwith (Printf.sprintf "E22: %s lost its schema tag" out)
  | Error e -> failwith (Printf.sprintf "E22: %s failed to parse: %s" out e)

(* ------------------------------------------------------------------ *)
(* Bechamel timing suite                                               *)
(* ------------------------------------------------------------------ *)

let timing_suite (p : Fannet.Pipeline.t) =
  section "timing (Bechamel, monotonic clock)";
  let open Bechamel in
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let input, label = inputs.(0) in
  let spec20 = Fannet.Noise.symmetric ~delta:20 ~bias_noise in
  let spec12 = Fannet.Noise.symmetric ~delta:12 ~bias_noise in
  let v = Fannet.Noise.zero ~n_inputs:5 in
  let fsm_prog =
    Smv.Translate.network_program p.qnet
      { Smv.Translate.delta_lo = 0; delta_hi = 1; bias_noise; samples = [ (input, label) ] }
  in
  let tiny = Dataset.Golub.generate ~params:Dataset.Golub.tiny_params ~seed:3 () in
  let tests =
    Test.make_grouped ~name:"fannet"
      [
        Test.make ~name:"qnet_forward"
          (Staged.stage (fun () -> Nn.Qnet.forward p.qnet input));
        Test.make ~name:"noise_predict"
          (Staged.stage (fun () -> Fannet.Noise.predict p.qnet spec20 ~input v));
        Test.make ~name:"bnb_query_d20"
          (Staged.stage (fun () -> Fannet.Bnb.exists_flip p.qnet spec20 ~input ~label));
        Test.make ~name:"bnb_enumerate_d12"
          (Staged.stage (fun () ->
               Fannet.Bnb.enumerate_flips ~limit:500 p.qnet spec12 ~input ~label));
        Test.make ~name:"interval_bounds_d20"
          (Staged.stage (fun () -> Fannet.Backend.output_bounds p.qnet spec20 ~input));
        Test.make ~name:"fsm_explore_0_1pct"
          (Staged.stage (fun () -> Smv.Fsm.explore fsm_prog));
        Test.make ~name:"mrmr_tiny_dataset"
          (Staged.stage (fun () -> Dataset.Mrmr.select tiny.Dataset.Golub.train ~k:5 ~bins:3));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let table = Util.Table.create ~header:[ "benchmark"; "time per run" ] in
  let pretty_ns ns =
    if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows
  |> List.iter (fun (name, ols) ->
         let estimate =
           match Analyze.OLS.estimates ols with
           | Some (e :: _) -> pretty_ns e
           | Some [] | None -> "n/a"
         in
         Util.Table.add_row table [ name; estimate ]);
  Util.Table.print table

(* ------------------------------------------------------------------ *)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let parallel_only = Array.exists (( = ) "--parallel") Sys.argv in
  let ladder_only = Array.exists (( = ) "--ladder") Sys.argv in
  let out =
    let rec find i =
      if i >= Array.length Sys.argv then "BENCH_parallel.json"
      else if Sys.argv.(i) = "-o" && i + 1 < Array.length Sys.argv then
        Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  if smoke && not (parallel_only || ladder_only) then begin
    prerr_endline "bench: --smoke applies to --ladder (--parallel is always smoke-sized)";
    exit 2
  end;
  if parallel_only then begin
    (* bench --parallel: E15 + E19 only, smoke-sized — the no-regression
       gate `make check` runs. Verdict-equality, certificate and
       no-regression assertions all fail the process; speedup > 1 is
       asserted only on multi-core hardware and full-sized runs. *)
    print_endline "FANNet bench (parallel engine gate)";
    print_endline "===================================";
    let p = Fannet.Pipeline.run ~config:Fannet.Pipeline.fast_config () in
    bench_parallel ~smoke:true p ~out;
    print_endline "\nParallel bench completed."
  end
  else if ladder_only then begin
    (* bench --ladder: E22 only — the deep & binarized scaling ladder;
       no pipeline needed. With --smoke it runs the asserted subset
       (`make ladder-smoke`, part of `make check`). *)
    print_endline "FANNet bench (scaling ladder)";
    print_endline "=============================";
    bench_ladder ~smoke ~out:"BENCH_ladder.json" ();
    print_endline "\nLadder bench completed."
  end
  else begin
    print_endline "FANNet reproduction benchmarks";
    print_endline "==============================";
    let p, pipeline_s = time_of (fun () -> Fannet.Pipeline.run ()) in
    Printf.printf "pipeline (dataset -> mRMR -> train -> fold -> quantize): %.2fs\n"
      pipeline_s;
    fig3_state_space p;
    fig4_tolerance_sweep p;
    fig4_training_bias p;
    fig4_node_sensitivity p;
    fig4_boundary p;
    accuracy_table p;
    ablation_backends p;
    ablation_random_baseline p;
    ablation_training_objective ();
    ablation_quantization p;
    ablation_hidden_width ();
    ablation_feature_selection ();
    extension_multiclass ();
    extension_absolute_noise p;
    bench_parallel ~smoke:false p ~out;
    bench_ladder ~smoke:false ~out:"BENCH_ladder.json" ();
    timing_suite p;
    print_endline "\nAll experiment sections completed."
  end
