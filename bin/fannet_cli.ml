(* Command-line interface to the FANNet reproduction.

   fannet train        -- build the case-study pipeline, report accuracies
   fannet validate     -- P1: noise-free validation of the integer model
   fannet translate    -- emit the nuXmv-compatible SMV model
   fannet tolerance    -- network noise tolerance (paper Sec. V-C.1)
   fannet sweep        -- misclassifications per noise range (Fig. 4)
   fannet extract      -- adversarial noise vectors for one input (P3)
   fannet sensitivity  -- input-node sensitivity (paper Sec. V-C.4)
   fannet boundary     -- classification-boundary estimation (Sec. V-C.2)
   fannet bias         -- training-bias analysis (paper Sec. V-C.3)
   fannet fsm          -- explicit state-space statistics (Fig. 3)
   fannet fuzz         -- differential fuzzing of the analysis backends
   fannet certify      -- certified robustness verdicts with DRUP proofs
   fannet count        -- quantitative robustness: exact flip counting
   fannet profile      -- instrumented run: metrics table + span tree
   fannet serve        -- fannetd: the verification daemon (fannet-wire/1)
   fannet query        -- one-shot client for a running fannetd

   Most analysis commands also take --metrics FILE to dump the
   observability snapshot (Obs.Report JSON) of that run, and the
   resource flags --timeout SEC / --max-mem MB / --retries N: the
   analysis runs under a Resil.Budget, exhaustion surfaces as exit 2
   with the typed reason on stderr, and retries re-run with a doubled
   budget. extract and tolerance additionally take --checkpoint FILE
   to persist/resume progress across kills (fannet-ckpt/1 format).

   Exit codes (all commands): 0 = verified/certified or analysis done,
   1 = a counterexample was found, 2 = usage error, invalid result, or
   budget exhausted (reason on stderr). *)

open Cmdliner

(* ---------- shared options ---------- *)

let dataset_seed =
  let doc = "Seed for the synthetic Golub-like dataset." in
  Arg.(value & opt int 2028 & info [ "dataset-seed" ] ~docv:"SEED" ~doc)

let init_seed =
  let doc = "Seed for the network weight initialisation." in
  Arg.(value & opt int 7 & info [ "init-seed" ] ~docv:"SEED" ~doc)

let delta =
  let doc = "Symmetric noise percent bound (noise in [-DELTA, +DELTA])." in
  Arg.(value & opt int 15 & info [ "d"; "delta" ] ~docv:"DELTA" ~doc)

let max_delta =
  let doc = "Largest noise percent probed." in
  Arg.(value & opt int 50 & info [ "max-delta" ] ~docv:"DELTA" ~doc)

let no_bias_noise =
  let doc = "Do not perturb the bias input node (the paper perturbs all six input nodes)." in
  Arg.(value & flag & info [ "no-bias-noise" ] ~doc)

let backend =
  let parse = function
    | "bnb" -> Ok Fannet.Backend.Bnb
    | "smt" -> Ok Fannet.Backend.Smt
    | "explicit" -> Ok (Fannet.Backend.Explicit { limit = Fannet.Backend.default_explicit_limit })
    | "interval" -> Ok Fannet.Backend.Interval
    | "cascade" -> Ok (Fannet.Backend.Cascade Fannet.Backend.Bnb)
    | "cascade-smt" -> Ok (Fannet.Backend.Cascade Fannet.Backend.Smt)
    | s ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown backend %S (bnb|smt|explicit|interval|cascade|cascade-smt)" s))
  in
  let print fmt b = Format.pp_print_string fmt (Fannet.Backend.to_string b) in
  let backend_conv = Arg.conv (parse, print) in
  let doc =
    "Analysis backend: bnb (default), smt, explicit, interval, cascade \
     (interval prefilter + bnb) or cascade-smt."
  in
  Arg.(value & opt backend_conv Fannet.Backend.Bnb & info [ "backend" ] ~docv:"BACKEND" ~doc)

let jobs_with doc =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let jobs =
  jobs_with
    "Worker domains for the per-sample verification loops. Defaults to \
     $(b,FANNET_JOBS) or the machine's recommended domain count; 1 forces the \
     sequential path (results are identical at every setting)."

(* A converter that accepts only the values [ok] admits, so an
   unusable value is a usage error before any work is done. *)
let checked conv ~ok ~want =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "must be %s, got %s" want s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

(* A limit below 1 would extract nothing and report an empty corpus as if
   no input had flipped, so it is a usage error. *)
let limit =
  let doc = "Maximum number of counterexamples to extract (per input for corpora)." in
  let n = checked Arg.int ~want:"at least 1" ~ok:(fun n -> n >= 1) in
  Arg.(value & opt n 100 & info [ "limit" ] ~docv:"N" ~doc)

let input_index =
  let doc = "Index of the analysed (correctly classified) test input." in
  Arg.(value & opt int 0 & info [ "input" ] ~docv:"INDEX" ~doc)

(* An output file (a checkpoint, a certificate, a proof, a metrics
   snapshot, a model) is first written after the analysis has done work,
   so a directory it cannot be written to is refused before any: by
   writing and removing a probe file there, which also catches a
   read-only directory. [role] names the file in the message. *)
let writable_dir role path =
  let dir = Filename.dirname path in
  match Filename.temp_file ~temp_dir:dir "fannet" ".probe" with
  | probe ->
      Sys.remove probe;
      Ok path
  | exception Sys_error _ ->
      Error
        (`Msg
           (Printf.sprintf "cannot write %s %s: directory %s is missing or \
                            not writable" role path dir))

let writable_file role = Arg.conv (writable_dir role, Arg.conv_printer Arg.string)

let output_file =
  let doc = "Write output to $(docv) instead of stdout." in
  Arg.(
    value
    & opt (some (writable_file "the output")) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let metrics_file =
  let doc =
    "Enable the observability registry for this run and write its JSON \
     snapshot (counters, latency histograms, span tree) to $(docv) on \
     exit — including the counterexample-found exit-1 paths."
  in
  Arg.(
    value
    & opt (some (writable_file "the metrics snapshot")) None
    & info [ "metrics" ] ~docv:"FILE" ~doc)

let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      Obs.Report.enable ();
      (* Counterexample paths terminate with [exit 1] without unwinding the
         stack, so the snapshot is flushed from [at_exit], not a finally. *)
      at_exit (fun () -> Obs.Report.write path);
      f ()

(* ---------- resource budgets (--timeout / --max-mem / --retries) ---------- *)

(* A budget that cannot be met (a non-positive or NaN deadline, a heap
   cap below 1 MB) is a usage error, not a budget exhausted before the
   analysis starts. *)
let timeout_arg =
  let doc =
    "Wall-clock budget for the analysis, in seconds (fractional values \
     allowed, finite and > 0). On exhaustion the run stops cooperatively \
     at the next poll point and exits 2 with reason $(b,deadline)."
  in
  let seconds =
    checked Arg.float ~want:"a finite number > 0" ~ok:(fun t ->
        Float.is_finite t && t > 0.)
  in
  Arg.(value & opt (some seconds) None & info [ "timeout" ] ~docv:"SEC" ~doc)

let max_mem_arg =
  let doc =
    "Approximate major-heap budget in MB, at least 1 (checked at the same \
     cadence as the deadline). Exhaustion exits 2 with reason \
     $(b,memory)."
  in
  let mb = checked Arg.int ~want:"at least 1" ~ok:(fun n -> n >= 1) in
  Arg.(value & opt (some mb) None & info [ "max-mem" ] ~docv:"MB" ~doc)

let retries_arg =
  let doc =
    "Retry a budget-exhausted analysis up to $(docv) more times, doubling \
     the time/conflict budget each attempt. Needs $(b,--timeout) or \
     $(b,--max-mem): without a budget there is nothing to double."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let checkpoint_with doc =
  Arg.(
    value
    & opt (some (writable_file "a checkpoint")) None
    & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_arg =
  checkpoint_with
    "Persist progress to $(docv) (fannet-ckpt/1 format, atomic writes) and \
     resume from it when it already exists, so a killed run continues \
     where it stopped. The file is removed when the analysis completes. \
     Its directory must exist and be writable."

let budget_of timeout max_mem =
  match (timeout, max_mem) with
  | None, None -> None
  | timeout_s, max_mem_mb -> Some (Resil.Budget.create ?timeout_s ?max_mem_mb ())

let exit_exhausted r =
  Printf.eprintf "analysis incomplete: budget exhausted (%s)\n%!"
    (Resil.Budget.reason_to_string r);
  exit 2

(* Run [f] under the budget, retrying with a doubled budget when it
   stops for a retryable reason. Without a budget there is nothing to
   double, so the stop propagates at once (to [with_clean_errors]). *)
let with_retries ~retries budget f =
  let rec go attempt budget =
    match f budget with
    | v -> v
    | exception Resil.Budget.Stopped r
      when attempt < retries && budget <> None && Resil.Budget.retryable r ->
        Printf.eprintf
          "budget exhausted (%s); retrying with a doubled budget (attempt \
           %d/%d)\n%!"
          (Resil.Budget.reason_to_string r) (attempt + 1) retries;
        go (attempt + 1) (Option.map (Resil.Budget.scale ~by:2) budget)
  in
  go 0 budget

(* Checkpoint key mismatches surface as [Invalid_argument]: a usage
   error, reported cleanly rather than as a backtrace, as is a file that
   cannot be read or written. A stopped analysis exits 2 with its typed
   reason. *)
let with_clean_errors f =
  try f () with
  | Invalid_argument msg | Failure msg | Sys_error msg ->
      Printf.eprintf "error: %s\n%!" msg;
      exit 2
  | Resil.Budget.Stopped r -> exit_exhausted r

(* The counterexample corpus over every input; a budget stop raises. A
   corpus cut at the limit is said so on stderr, leaving stdout as is. *)
let corpus ?budget ~limit net spec ~inputs =
  match
    Fannet.Extract.for_inputs ~limit_per_input:limit ?budget net spec ~inputs
  with
  | _, Fannet.Extract.Budget r -> raise (Resil.Budget.Stopped r)
  | cexs, Fannet.Extract.Truncated ->
      Printf.eprintf
        "note: corpus truncated at --limit %d counterexamples per input; the \
         counts are lower bounds\n%!"
        limit;
      cexs
  | cexs, Fannet.Extract.Complete -> cexs

let pipeline dataset_seed init_seed =
  let config = { Fannet.Pipeline.default_config with dataset_seed; init_seed } in
  Fannet.Pipeline.run ~config ()

(* Documented process exit codes, attached to every command's man page. *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"the property was verified/certified (or the analysis completed).";
    Cmd.Exit.info 1 ~doc:"a counterexample was found (a noise vector flips the input, or fuzzing found a backend disagreement).";
    Cmd.Exit.info 2
      ~doc:
        "usage error, invalid certificate, internal failure, or resource \
         budget exhausted ($(b,--timeout)/$(b,--max-mem); the typed reason \
         — deadline, conflicts, memory, cancelled — is printed on stderr).";
  ]

let bias_flag no_bias_noise = not no_bias_noise

(* ---------- commands ---------- *)

let save_model =
  let doc = "Also save the quantized integer model to $(docv)." in
  Arg.(
    value
    & opt (some (writable_file "the model")) None
    & info [ "save-model" ] ~docv:"FILE" ~doc)

let train_cmd =
  let run metrics dataset_seed init_seed save_model =
    with_metrics metrics @@ fun () ->
    let p = pipeline dataset_seed init_seed in
    Printf.printf "selected genes (mRMR): %s\n"
      (String.concat ", " (Array.to_list (Array.map string_of_int p.selected_genes)));
    Printf.printf "training accuracy (quantized): %.2f%%\n" (100. *. p.train_accuracy);
    Printf.printf "test accuracy (quantized):     %.2f%%\n" (100. *. p.test_accuracy);
    Printf.printf "P1 validation: %d/%d test inputs correctly classified\n"
      p.p1.Fannet.Validate.n_correct p.p1.Fannet.Validate.n_total;
    Printf.printf "float/quantized agreement:     %.2f%%\n"
      (100. *. Fannet.Validate.float_agreement p.network p.qnet ~inputs:p.test_inputs);
    match save_model with
    | None -> ()
    | Some path ->
        Nn.Qnet.save path p.qnet;
        Printf.printf "quantized model written to %s\n" path
  in
  let doc = "Train the Leukemia network and report accuracies (paper Sec. V-A)." in
  Cmd.v (Cmd.info "train" ~doc ~exits)
    Term.(const run $ metrics_file $ dataset_seed $ init_seed $ save_model)

let validate_cmd =
  let run dataset_seed init_seed =
    let p = pipeline dataset_seed init_seed in
    let r = p.p1 in
    Printf.printf "P1: %d/%d correct (%.2f%%)\n" r.Fannet.Validate.n_correct
      r.Fannet.Validate.n_total (100. *. r.Fannet.Validate.accuracy);
    List.iter
      (fun (i, predicted) ->
        let _, label = p.test_inputs.(i) in
        Printf.printf "  mismatch: test input %d, true L%d -> predicted L%d\n" i label predicted)
      r.Fannet.Validate.mismatches
  in
  let doc = "P1: validate the integer model on the test set without noise." in
  Cmd.v (Cmd.info "validate" ~doc ~exits) Term.(const run $ dataset_seed $ init_seed)

let translate_cmd =
  let run dataset_seed init_seed delta no_bias_noise input_index output =
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    if input_index < 0 || input_index >= Array.length inputs then
      failwith "input index out of range";
    let input, label = inputs.(input_index) in
    let prog =
      Smv.Translate.network_program p.qnet
        (Smv.Translate.symmetric ~delta ~bias_noise:(bias_flag no_bias_noise)
           ~samples:[ (input, label) ])
    in
    let text = Smv.Printer.program_to_string prog in
    match output with
    | None -> print_string text
    | Some path ->
        Smv.Printer.write_file path prog;
        Printf.printf "SMV model written to %s\n" path
  in
  let doc = "Translate the network + noise model to nuXmv-compatible SMV." in
  Cmd.v (Cmd.info "translate" ~doc ~exits)
    Term.(const run $ dataset_seed $ init_seed $ delta $ no_bias_noise $ input_index $ output_file)

let tolerance_cmd =
  let run metrics dataset_seed init_seed max_delta no_bias_noise backend jobs
      timeout max_mem retries checkpoint =
    with_metrics metrics @@ fun () ->
    with_clean_errors @@ fun () ->
    Util.Parallel.set_default_jobs jobs;
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    let bias_noise = bias_flag no_bias_noise in
    let tol =
      with_retries ~retries (budget_of timeout max_mem) (fun budget ->
          match checkpoint with
          | None ->
              Fannet.Tolerance.network_tolerance ?budget backend p.qnet
                ~bias_noise ~max_delta ~inputs
          | Some path ->
              Fannet.Tolerance.network_tolerance_ckpt ?budget ~checkpoint:path
                backend p.qnet ~bias_noise ~max_delta ~inputs)
    in
    Printf.printf "network noise tolerance: +-%d%% (probed up to +-%d%%, %d inputs)\n"
      tol max_delta (Array.length inputs)
  in
  let doc = "Compute the network noise tolerance (paper: +-11%)." in
  Cmd.v (Cmd.info "tolerance" ~doc ~exits)
    Term.(
      const run $ metrics_file $ dataset_seed $ init_seed $ max_delta $ no_bias_noise
      $ backend $ jobs $ timeout_arg $ max_mem_arg $ retries_arg $ checkpoint_arg)

let sweep_cmd =
  let run metrics dataset_seed init_seed no_bias_noise backend jobs timeout
      max_mem retries =
    with_metrics metrics @@ fun () ->
    with_clean_errors @@ fun () ->
    Util.Parallel.set_default_jobs jobs;
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    let bias_noise = bias_flag no_bias_noise in
    let deltas = [ 5; 10; 15; 20; 25; 30; 35; 40 ] in
    let sweep =
      with_retries ~retries (budget_of timeout max_mem) (fun budget ->
          Fannet.Tolerance.sweep ?budget backend p.qnet ~bias_noise ~deltas
            ~inputs)
    in
    let table = Util.Table.create ~header:[ "noise range"; "misclassified"; "of" ] in
    List.iter
      (fun (pt : Fannet.Tolerance.sweep_point) ->
        Util.Table.add_row table
          [
            Printf.sprintf "[-%d,+%d]%%" pt.delta pt.delta;
            string_of_int pt.n_misclassified;
            string_of_int (Array.length inputs);
          ])
      sweep;
    Util.Table.print table
  in
  let doc = "Misclassification counts per noise range (Fig. 4 left panel)." in
  Cmd.v (Cmd.info "sweep" ~doc ~exits)
    Term.(
      const run $ metrics_file $ dataset_seed $ init_seed $ no_bias_noise $ backend
      $ jobs $ timeout_arg $ max_mem_arg $ retries_arg)

let extract_cmd =
  let run metrics dataset_seed init_seed delta no_bias_noise input_index limit
      timeout max_mem retries checkpoint =
    with_metrics metrics @@ fun () ->
    with_clean_errors @@ fun () ->
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    if input_index < 0 || input_index >= Array.length inputs then
      failwith "input index out of range";
    let input, label = inputs.(input_index) in
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise:(bias_flag no_bias_noise) in
    (* Retries resume from the checkpoint (when given), so each attempt
       keeps the previous attempt's partial corpus. *)
    let rec attempt n budget =
      match
        Fannet.Extract.for_input ~limit ?budget ?checkpoint p.qnet spec ~input
          ~label ~input_index
      with
      | _, Fannet.Extract.Budget r when n < retries && Resil.Budget.retryable r
        ->
          Printf.eprintf
            "budget exhausted (%s); retrying with a doubled budget (attempt \
             %d/%d)\n%!"
            (Resil.Budget.reason_to_string r) (n + 1) retries;
          attempt (n + 1) (Option.map (Resil.Budget.scale ~by:2) budget)
      | result -> result
    in
    let cexs, status = attempt 0 (budget_of timeout max_mem) in
    (* The summary line always carries the enumeration status; incomplete
       corpora additionally drive the exit code (budget -> 2). *)
    Printf.printf "input %d (true L%d), noise +-%d%%: %d adversarial vectors (%s)\n"
      input_index label delta (List.length cexs)
      (Fannet.Extract.status_to_string status);
    List.iteri
      (fun k (c : Fannet.Extract.counterexample) ->
        if k < 20 then
          Printf.printf "  -> L%d with %s\n" c.predicted (Fannet.Noise.to_string c.vector))
      cexs;
    if List.length cexs > 20 then
      Printf.printf "  ... (%d more)\n" (List.length cexs - 20);
    match status with
    | Fannet.Extract.Budget r -> exit_exhausted r
    | Fannet.Extract.Complete | Fannet.Extract.Truncated -> ()
  in
  let doc = "P3: extract the adversarial noise vectors for one input." in
  Cmd.v (Cmd.info "extract" ~doc ~exits)
    Term.(
      const run $ metrics_file $ dataset_seed $ init_seed $ delta $ no_bias_noise
      $ input_index $ limit $ timeout_arg $ max_mem_arg $ retries_arg
      $ checkpoint_arg)

let sensitivity_cmd =
  let run metrics dataset_seed init_seed delta no_bias_noise limit jobs timeout
      max_mem retries =
    with_metrics metrics @@ fun () ->
    with_clean_errors @@ fun () ->
    Util.Parallel.set_default_jobs jobs;
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    let bias_noise = bias_flag no_bias_noise in
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
    let cexs, sides =
      with_retries ~retries (budget_of timeout max_mem) (fun budget ->
          let cexs = corpus ?budget ~limit p.qnet spec ~inputs in
          (cexs, Fannet.Sensitivity.formal_sidedness ?budget p.qnet spec ~inputs))
    in
    let stats = Fannet.Sensitivity.per_node spec ~n_inputs:5 cexs in
    Array.iter (fun s -> print_endline (Fannet.Sensitivity.stats_to_string s)) stats;
    Array.iter
      (fun (f : Fannet.Sensitivity.formal_side) ->
        Printf.printf "node %d: positive-side flips %b, negative-side flips %b\n"
          f.fs_node f.positive_flip f.negative_flip)
      sides
  in
  let doc = "Input-node sensitivity: corpus statistics and formal sidedness." in
  Cmd.v (Cmd.info "sensitivity" ~doc ~exits)
    Term.(
      const run $ metrics_file $ dataset_seed $ init_seed $ delta $ no_bias_noise
      $ limit $ jobs $ timeout_arg $ max_mem_arg $ retries_arg)

let boundary_cmd =
  let run metrics dataset_seed init_seed max_delta no_bias_noise backend jobs
      timeout max_mem retries =
    with_metrics metrics @@ fun () ->
    with_clean_errors @@ fun () ->
    Util.Parallel.set_default_jobs jobs;
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    let bias_noise = bias_flag no_bias_noise in
    let points =
      with_retries ~retries (budget_of timeout max_mem) (fun budget ->
          Fannet.Boundary.analyze ?budget backend p.qnet ~bias_noise ~max_delta
            ~inputs)
    in
    let table = Util.Table.create ~header:[ "input"; "true"; "min flip"; "margin" ] in
    Array.iter
      (fun (pt : Fannet.Boundary.point) ->
        Util.Table.add_row table
          [
            string_of_int pt.input_index;
            Printf.sprintf "L%d" pt.true_label;
            (match pt.min_flip_delta with
            | Some d -> Printf.sprintf "+-%d%%" d
            | None -> Printf.sprintf ">+-%d%%" max_delta);
            string_of_int pt.margin;
          ])
      points;
    Util.Table.print table;
    Printf.printf "margin/min-flip correlation: %.3f\n"
      (Fannet.Boundary.margin_flip_correlation points)
  in
  let doc = "Per-input minimal flipping noise (classification boundary)." in
  Cmd.v (Cmd.info "boundary" ~doc ~exits)
    Term.(
      const run $ metrics_file $ dataset_seed $ init_seed $ max_delta $ no_bias_noise
      $ backend $ jobs $ timeout_arg $ max_mem_arg $ retries_arg)

let bias_cmd =
  let run metrics dataset_seed init_seed delta no_bias_noise limit jobs timeout
      max_mem retries =
    with_metrics metrics @@ fun () ->
    with_clean_errors @@ fun () ->
    Util.Parallel.set_default_jobs jobs;
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise:(bias_flag no_bias_noise) in
    let cexs =
      with_retries ~retries (budget_of timeout max_mem) (fun budget ->
          corpus ?budget ~limit p.qnet spec ~inputs)
    in
    let report =
      Fannet.Bias.analyze ~n_classes:2
        ~training_labels:(Fannet.Pipeline.training_labels p)
        ~analysed_labels:(Array.map snd inputs) cexs
    in
    print_endline (Fannet.Bias.report_to_string report)
  in
  let doc = "Training-bias analysis over the counterexample corpus." in
  Cmd.v (Cmd.info "bias" ~doc ~exits)
    Term.(
      const run $ metrics_file $ dataset_seed $ init_seed $ delta $ no_bias_noise
      $ limit $ jobs $ timeout_arg $ max_mem_arg $ retries_arg)

let minflip_cmd =
  let run dataset_seed init_seed delta no_bias_noise timeout max_mem retries =
    with_clean_errors @@ fun () ->
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise:(bias_flag no_bias_noise) in
    let budget = budget_of timeout max_mem in
    let min_flip ~input ~label =
      with_retries ~retries budget (fun budget ->
          Fannet.Bnb.min_l1_flip ?budget p.qnet spec ~input ~label)
    in
    let table =
      Util.Table.create ~header:[ "input"; "true"; "min L1 noise"; "cheapest vector" ]
    in
    Array.iteri
      (fun i (input, label) ->
        match min_flip ~input ~label with
        | None ->
            Util.Table.add_row table
              [ string_of_int i; Printf.sprintf "L%d" label; "robust"; "-" ]
        | Some (v, norm) ->
            Util.Table.add_row table
              [
                string_of_int i;
                Printf.sprintf "L%d" label;
                string_of_int norm;
                Fannet.Noise.to_string v;
              ])
      inputs;
    Util.Table.print table
  in
  let doc = "Cheapest (minimum-L1) adversarial noise vector per input — the paper's (Δx)min." in
  Cmd.v (Cmd.info "minflip" ~doc ~exits)
    Term.(
      const run $ dataset_seed $ init_seed $ delta $ no_bias_noise $ timeout_arg
      $ max_mem_arg $ retries_arg)

let fsm_cmd =
  let run dataset_seed init_seed delta no_bias_noise input_index =
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    if input_index < 0 || input_index >= Array.length inputs then
      failwith "input index out of range";
    let input, label = inputs.(input_index) in
    let prog =
      Smv.Translate.network_program p.qnet
        (Smv.Translate.symmetric ~delta ~bias_noise:(bias_flag no_bias_noise)
           ~samples:[ (input, label) ])
    in
    match Smv.Fsm.explore ~state_limit:2_000_000 prog with
    | Ok o ->
        Printf.printf "states: %d, transitions: %d\n" o.stats.n_states o.stats.n_transitions;
        if o.violations = [] then print_endline "P2 holds: no misclassifying noise vector"
        else
          List.iter
            (fun (name, trace) ->
              Printf.printf "%s violated; counterexample trace length %d\n" name
                (List.length trace))
            o.violations
    | Error e -> Printf.printf "exploration failed: %s\n" (Smv.Fsm.error_to_string e)
  in
  let doc = "Explicit-state statistics of the SMV model (Fig. 3); keep DELTA small." in
  Cmd.v (Cmd.info "fsm" ~doc ~exits)
    Term.(const run $ dataset_seed $ init_seed $ delta $ no_bias_noise $ input_index)

let fuzz_cmd =
  let cases =
    let doc = "Number of random cases to generate and check." in
    Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Master seed; the same seed reproduces the identical corpus." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let replay =
    let doc = "Replay a persisted JSON corpus instead of generating cases." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let save =
    let doc = "Also persist the checked corpus as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let quiet =
    let doc = "Suppress progress lines (the final report still prints)." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let run cases seed replay save quiet =
    let log = if quiet then fun _ -> () else print_endline in
    let corpus_seed, corpus =
      match replay with
      | None ->
          (seed, Check.Gen.corpus ~seed ~cases ~max_explicit:Check.Gen.default_max_explicit)
      | Some path -> (
          (* Lenient load: malformed cases are skipped and counted, so a
             partially corrupted corpus still replays the rest. *)
          match Check.Case.load_corpus_lenient path with
          | Ok { Check.Case.corpus_seed; good; bad } ->
              List.iter
                (fun (_, err) -> Printf.eprintf "skipping malformed case: %s\n" err)
                bad;
              if bad <> [] then
                Printf.eprintf "skipped %d malformed case(s) in %s\n%!"
                  (List.length bad) path;
              log (Printf.sprintf "replaying %d cases from %s (seed %d)"
                     (List.length good) path corpus_seed);
              (corpus_seed, good)
          | Error msg ->
              Printf.eprintf "cannot load corpus %s: %s\n" path msg;
              exit 2)
    in
    (match save with
    | None -> ()
    | Some path ->
        Check.Case.save_corpus path ~seed:corpus_seed corpus;
        log (Printf.sprintf "corpus written to %s" path));
    let report = Check.Fuzz.run_cases ~log ~master_seed:corpus_seed corpus in
    print_string (Check.Fuzz.report_to_string report);
    if not (Check.Fuzz.report_ok report) then exit 1
  in
  let doc =
    "Differential fuzzing: random tractable cases, every backend against \
     the explicit enumerator (agreement, witness validity, interval \
     soundness, cascade lattice, parallel determinism); failures are \
     shrunk to minimal reproducers with their seeds."
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~exits)
    Term.(const run $ cases $ seed $ replay $ save $ quiet)

let certify_cmd =
  let bracket =
    let doc =
      "Certify a whole tolerance bracket (binary search up to \
       $(b,--max-delta)) instead of a single $(b,--delta) query: a DRUP \
       refutation at the largest robust range plus a checked witness at \
       the smallest flipping one."
    in
    Arg.(value & flag & info [ "bracket" ] ~doc)
  in
  let fast =
    let doc = "Use the small fast-config pipeline (64 genes) — smoke-test sized." in
    Arg.(value & flag & info [ "fast" ] ~doc)
  in
  let proof_file =
    let doc =
      "Write the DRUP refutation to $(docv) and the bit-blasted formula \
       (assumptions folded in as unit clauses) to $(docv).cnf, for external \
       checkers such as drat-trim."
    in
    Arg.(
      value
      & opt (some (writable_file "the proof")) None
      & info [ "proof" ] ~docv:"FILE" ~doc)
  in
  let run metrics dataset_seed init_seed delta max_delta no_bias_noise input_index
      bracket fast proof_file timeout max_mem retries =
    with_metrics metrics @@ fun () ->
    with_clean_errors @@ fun () ->
    let p =
      if fast then
        Fannet.Pipeline.run
          ~config:{ Fannet.Pipeline.fast_config with dataset_seed; init_seed }
          ()
      else pipeline dataset_seed init_seed
    in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    if input_index < 0 || input_index >= Array.length inputs then
      failwith "input index out of range";
    let input, label = inputs.(input_index) in
    let bias_noise = bias_flag no_bias_noise in
    let write_proof cert =
      match (proof_file, Cert.Verdict.to_drup cert) with
      | None, _ | _, None -> ()
      | Some path, Some drup ->
          let write p s =
            let oc = open_out p in
            output_string oc s;
            close_out oc
          in
          write path drup;
          write (path ^ ".cnf") (Cert.Verdict.to_dimacs cert);
          Printf.printf "DRUP proof written to %s (formula to %s.cnf)\n" path path
    in
    let fail_invalid e =
      Printf.eprintf "certificate check FAILED: %s\n" e;
      exit 2
    in
    let budget = budget_of timeout max_mem in
    if bracket then begin
      let b =
        with_retries ~retries budget (fun budget ->
            Fannet.Tolerance.certified_min_flip_delta ?budget p.qnet
              ~bias_noise ~max_delta ~input ~label)
      in
      (match
         Fannet.Tolerance.check_certified_bracket p.qnet ~bias_noise b ~input ~label
       with
      | Ok () -> ()
      | Error e -> fail_invalid e);
      (match b.Fannet.Tolerance.robust_cert with
      | None -> ()
      | Some (d, cert) ->
          Printf.printf "certified robust up to +-%d%% (input %d, true L%d)\n  %s\n"
            d input_index label (Cert.Verdict.describe cert);
          write_proof cert);
      match (b.Fannet.Tolerance.min_flip_delta, b.Fannet.Tolerance.flip_cert) with
      | None, _ ->
          Printf.printf "no noise vector up to +-%d%% flips input %d: certified\n"
            b.Fannet.Tolerance.max_delta input_index
      | Some m, Some (_, v, cert) ->
          Printf.printf
            "minimal flipping range +-%d%% with witness %s\n  %s\ncertificates checked\n"
            m (Fannet.Noise.to_string v) (Cert.Verdict.describe cert);
          exit 1
      | Some _, None -> fail_invalid "flip without certificate"
    end
    else begin
      let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
      let cv =
        with_retries ~retries budget (fun budget ->
            match
              Fannet.Backend.certified_exists_flip ?budget p.qnet spec ~input ~label
            with
            | { Fannet.Backend.cv_verdict = Fannet.Backend.Unknown r; _ } ->
                raise (Resil.Budget.Stopped r)
            | cv -> cv)
      in
      (match Fannet.Backend.check_certified p.qnet spec ~input ~label cv with
      | Ok () -> ()
      | Error e -> fail_invalid e);
      match (cv.Fannet.Backend.cv_verdict, cv.Fannet.Backend.cv_cert) with
      | Fannet.Backend.Robust, Some cert ->
          Printf.printf "certified robust at +-%d%% (input %d, true L%d)\n  %s\n"
            delta input_index label (Cert.Verdict.describe cert);
          write_proof cert
      | Fannet.Backend.Flip v, Some cert ->
          Printf.printf
            "noise %s flips input %d at +-%d%%: certificate checked\n  %s\n"
            (Fannet.Noise.to_string v) input_index delta (Cert.Verdict.describe cert);
          exit 1
      | _ -> fail_invalid "backend did not decide"
    end
  in
  let doc =
    "Certified robustness verdicts: the SMT backend with DRUP proof logging, \
     every answer re-checked by the independent $(b,lib/cert) checker \
     (exit 0 robust-certified, 1 flip found, 2 invalid certificate)."
  in
  Cmd.v (Cmd.info "certify" ~doc ~exits)
    Term.(
      const run $ metrics_file $ dataset_seed $ init_seed $ delta $ max_delta
      $ no_bias_noise $ input_index $ bracket $ fast $ proof_file $ timeout_arg
      $ max_mem_arg $ retries_arg)

let profile_cmd =
  let fast =
    let doc = "Use the small fast-config pipeline (64 genes) — smoke-test sized." in
    Arg.(value & flag & info [ "fast" ] ~doc)
  in
  (* A fixed two-layer toy network for the incremental-SMT stage: its
     bit-blast solves in milliseconds, so the solver counters populate
     even under --fast without paying a full-network SMT query. *)
  let toy_qnet () =
    Nn.Qnet.create
      [|
        {
          Nn.Qnet.weights =
            [| [| 31; -22 |]; [| -13; 41 |]; [| 17; 9 |]; [| -25; 14 |] |];
          bias = [| 55; -31; 12; -7 |];
          act = Nn.Qnet.Relu;
        };
        {
          Nn.Qnet.weights = [| [| 21; -33; 11; -9 |]; [| -20; 31; -12; 10 |] |];
          bias = [| 13; 0 |];
          act = Nn.Qnet.Identity;
        };
      |]
  in
  (* The written snapshot must be machine-usable, so re-read it and check
     the pieces the profile promises: the schema tag, solver counters, a
     per-backend latency histogram and at least one recorded span. *)
  let validate_snapshot path =
    match Util.Json.parse_file path with
    | Error e -> Error (Printf.sprintf "snapshot does not re-parse: %s" e)
    | Ok json ->
        if Util.Json.member "schema" json <> Some (Util.Json.String Obs.Report.schema)
        then Error (Printf.sprintf "missing or wrong schema (want %S)" Obs.Report.schema)
        else
          let metrics = Util.Json.member "metrics" json in
          let section name =
            match Option.bind metrics (Util.Json.member name) with
            | Some (Util.Json.Obj kvs) -> kvs
            | _ -> []
          in
          if not (List.mem_assoc "sat.conflicts" (section "counters")) then
            Error "no sat.conflicts counter"
          else if
            not
              (List.exists
                 (fun (k, _) ->
                   String.starts_with ~prefix:"backend." k
                   && String.ends_with ~suffix:".query_s" k)
                 (section "histograms"))
          then Error "no backend.*.query_s latency histogram"
          else
            match Util.Json.member "spans" json with
            | Some (Util.Json.List (_ :: _)) -> Ok ()
            | _ -> Error "no recorded spans"
  in
  let run dataset_seed init_seed max_delta no_bias_noise backend jobs fast output =
    Util.Parallel.set_default_jobs jobs;
    Obs.Report.enable ();
    let p =
      if fast then
        Fannet.Pipeline.run
          ~config:{ Fannet.Pipeline.fast_config with dataset_seed; init_seed }
          ()
      else pipeline dataset_seed init_seed
    in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    let tol =
      Fannet.Tolerance.network_tolerance backend p.qnet
        ~bias_noise:(bias_flag no_bias_noise) ~max_delta ~inputs
    in
    let qnet = toy_qnet () in
    let sinput = [| 112; 87 |] in
    let slabel = Nn.Qnet.predict qnet sinput in
    let _ : int option =
      Fannet.Tolerance.input_min_flip_delta Fannet.Backend.Smt qnet
        ~bias_noise:false ~max_delta:40 ~input:sinput ~label:slabel
    in
    Printf.printf "workload: pipeline + tolerance (backend %s, %d inputs, tolerance +-%d%%) + incremental SMT probe\n\n"
      (Fannet.Backend.to_string backend) (Array.length inputs) tol;
    print_string (Obs.Report.text ());
    match output with
    | None -> ()
    | Some path -> (
        Obs.Report.write path;
        match validate_snapshot path with
        | Ok () -> Printf.printf "metrics snapshot written to %s (validated)\n" path
        | Error e ->
            Printf.eprintf "metrics snapshot %s INVALID: %s\n" path e;
            exit 2)
  in
  let doc =
    "Run an instrumented workload (pipeline, noise-tolerance search, one \
     incremental SMT probe) and print the profile: metrics table plus span \
     tree. With $(b,-o) also write — and self-validate — the JSON snapshot."
  in
  Cmd.v (Cmd.info "profile" ~doc ~exits)
    Term.(
      const run $ dataset_seed $ init_seed $ max_delta $ no_bias_noise $ backend
      $ jobs $ fast $ output_file)

(* ---------- fannetd: serve + query ---------- *)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "TCP address of the daemon, $(b,HOST:PORT) (port 0 picks a free one)." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let resolve_addr socket tcp =
  match (socket, tcp) with
  | Some _, Some _ -> invalid_arg "--socket and --tcp are mutually exclusive"
  | Some p, None -> Serve.Daemon.Unix_path p
  | None, Some hp -> (
      match String.rindex_opt hp ':' with
      | None -> invalid_arg "--tcp wants HOST:PORT"
      | Some i -> (
          let host = String.sub hp 0 i in
          let port = String.sub hp (i + 1) (String.length hp - i - 1) in
          match int_of_string_opt port with
          | Some port when port >= 0 && port <= 65535 -> Serve.Daemon.Tcp (host, port)
          | Some _ -> invalid_arg "--tcp port must be in 0..65535"
          | None -> invalid_arg "--tcp wants HOST:PORT"))
  | None, None -> Serve.Daemon.Unix_path "fannetd.sock"

let serve_cmd =
  let workers_arg =
    let doc = "Resident worker domains (default: the machine's job count)." in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let cap_arg =
    let doc =
      "Admission cap: queries queued-or-executing at once before the daemon \
       answers $(b,overloaded) (default 4x workers)."
    in
    Arg.(value & opt (some int) None & info [ "cap" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc =
      "Verdict-cache budget in bytes (LRU, entries weighted by their \
       encoded answer size — certificates dominate); 0 disables caching."
    in
    Arg.(value & opt int (16 * 1024 * 1024) & info [ "cache" ] ~docv:"BYTES" ~doc)
  in
  let ceiling_arg =
    let doc = "Clamp client-requested budgets to at most $(docv) seconds." in
    Arg.(value & opt (some float) None & info [ "timeout-ceiling" ] ~docv:"SEC" ~doc)
  in
  let procs_arg =
    let doc =
      "Supervised worker processes (crash-only mode): fork the compute pool \
       into $(docv) processes sharded by network digest, restart crashed \
       workers with exponential backoff behind a restart-storm circuit \
       breaker. 0 keeps the in-process pool (the default)."
    in
    Arg.(value & opt int 0 & info [ "procs" ] ~docv:"N" ~doc)
  in
  let store_arg =
    let doc =
      "Persistent verdict journal (fannet-store/1) at $(docv): decided \
       answers are written through and recovered — bit-identical, \
       certificates re-validated — when the daemon restarts."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)
  in
  let run socket tcp workers cap cache ceiling procs store =
    with_clean_errors @@ fun () ->
    Obs.Report.enable ();
    let workers = Option.value workers ~default:(Util.Parallel.default_jobs ()) in
    let cfg =
      {
        Serve.Daemon.addr = resolve_addr socket tcp;
        workers;
        cap = Option.value cap ~default:(4 * workers);
        cache_cap_bytes = cache;
        timeout_ceiling_s = ceiling;
        procs;
        store_path = store;
      }
    in
    let d = Serve.Daemon.run cfg in
    let on_signal _ = ignore (Thread.create (fun () -> Serve.Daemon.stop d) ()) in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    (match Serve.Daemon.address d with
    | Serve.Daemon.Unix_path p -> Printf.printf "fannetd listening on unix:%s\n%!" p
    | Serve.Daemon.Tcp (h, p) -> Printf.printf "fannetd listening on %s:%d\n%!" h p);
    (* Poll instead of blocking in [Daemon.wait]: OCaml runs a signal
       handler only once some thread leaves its blocking call, and an
       idle daemon has none that would. *)
    while not (Serve.Daemon.stopped d) do
      Thread.delay 0.1
    done;
    let s = Serve.Daemon.stats d in
    Printf.printf "fannetd stopped: %d submitted, %d served, %d rejected, %d failed\n"
      s.Serve.Protocol.submitted s.served s.rejected s.failed
  in
  let doc =
    "Run $(b,fannetd), the verification daemon: fannet-wire/1 over a Unix or \
     TCP socket, an LRU verdict cache (optionally journaled to disk with \
     $(b,--store)), resident worker domains (optionally in supervised \
     worker processes with $(b,--procs)), typed overload rejections and an \
     HTTP-style $(b,GET /metrics) scrape on the same port. Stop with \
     SIGINT/SIGTERM or a client $(b,shutdown) request."
  in
  Cmd.v (Cmd.info "serve" ~doc ~exits)
    Term.(
      const run $ socket_arg $ tcp_arg $ workers_arg $ cap_arg $ cache_arg
      $ ceiling_arg $ procs_arg $ store_arg)

let query_cmd =
  let kind_arg =
    let doc =
      "What to ask: $(b,ping), $(b,exists-flip), $(b,tolerance), \
       $(b,sensitivity), $(b,certify), $(b,count), $(b,metrics) or \
       $(b,shutdown)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("ping", `Ping);
               ("exists-flip", `Exists);
               ("tolerance", `Tolerance);
               ("sensitivity", `Sensitivity);
               ("certify", `Certify);
               ("count", `Count);
               ("metrics", `Metrics);
               ("shutdown", `Shutdown);
             ])
          `Ping
      & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let model_arg =
    let doc = "Quantized model file ($(b,fannet train --save-model)) to upload." in
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"FILE" ~doc)
  in
  let input_vec_arg =
    let doc = "Input vector, comma-separated integers." in
    Arg.(value & opt (list int) [] & info [ "input" ] ~docv:"I1,I2,..." ~doc)
  in
  let label_arg =
    let doc = "True label of the input (default: the model's own prediction)." in
    Arg.(value & opt (some int) None & info [ "label" ] ~docv:"L" ~doc)
  in
  let retries_arg =
    let doc =
      "Resend a query up to $(docv) extra times (jittered exponential \
       backoff) while the daemon answers $(b,overloaded) or a transient \
       $(b,server-error) — e.g. a supervised worker restarting."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let run socket tcp kind model input_vec label_opt delta max_delta no_bias_noise
      backend timeout retries =
    with_clean_errors @@ fun () ->
    let c = Serve.Client.connect (resolve_addr socket tcp) in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    let orfail = function Ok v -> v | Error e -> failwith e in
    match kind with
    | `Ping ->
        orfail (Serve.Client.ping c);
        print_endline "pong"
    | `Shutdown ->
        orfail (Serve.Client.shutdown c);
        print_endline "daemon acknowledged shutdown"
    | `Metrics -> (
        match orfail (Serve.Client.rpc c Serve.Protocol.Metrics) with
        | Serve.Protocol.Metrics_reply { stats; obs } ->
            Printf.printf
              "submitted %d  served %d  rejected %d  failed %d\n\
               cache: %d hits, %d misses, %d entries; in flight %d; networks %d\n"
              stats.Serve.Protocol.submitted stats.served stats.rejected stats.failed
              stats.cache_hits stats.cache_misses stats.cache_len stats.in_flight
              stats.networks;
            print_endline (Util.Json.to_string obs)
        | _ -> failwith "metrics: wrong reply form")
    | (`Exists | `Tolerance | `Sensitivity | `Certify | `Count) as kind ->
        let model =
          match model with
          | None -> failwith "--model FILE is required for analysis queries"
          | Some f -> ( match Nn.Qnet.load f with Ok m -> m | Error e -> failwith e)
        in
        if input_vec = [] then failwith "--input I1,I2,... is required";
        let input = Array.of_list input_vec in
        let label =
          match label_opt with Some l -> l | None -> Nn.Qnet.predict model input
        in
        let bias_noise = bias_flag no_bias_noise in
        let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
        let digest = orfail (Serve.Client.load c model) in
        let query =
          match kind with
          | `Exists -> Serve.Protocol.Exists_flip { backend; spec; input; label }
          | `Tolerance ->
              Serve.Protocol.Tolerance { backend; bias_noise; max_delta; input; label }
          | `Sensitivity -> Serve.Protocol.Sensitivity { spec; input; label }
          | `Certify -> Serve.Protocol.Certify { spec; input; label }
          | `Count ->
              Serve.Protocol.Count { spec; input; label; certify = true }
        in
        let budget = { Serve.Protocol.timeout_s = timeout; conflicts = None } in
        (match orfail (Serve.Client.query ~budget ~retries c ~digest query) with
        | Serve.Protocol.Overloaded { in_flight; cap } ->
            Printf.eprintf "daemon overloaded (%d in flight, cap %d) — retry later\n%!"
              in_flight cap;
            exit 2
        | Serve.Protocol.Answer { cached; answer } -> (
            let tag = if cached then " (cached)" else "" in
            match answer with
            | Serve.Protocol.Verdict v -> (
                Printf.printf "%s%s\n" (Fannet.Backend.verdict_to_string v) tag;
                match v with
                | Fannet.Backend.Flip _ -> exit 1
                | Fannet.Backend.Unknown r -> exit_exhausted r
                | Fannet.Backend.Robust -> ())
            | Serve.Protocol.Min_flip (Ok (Some d)) ->
                Printf.printf "smallest flipping range: +-%d%%%s\n" d tag
            | Serve.Protocol.Min_flip (Ok None) ->
                Printf.printf "robust up to +-%d%%%s\n" max_delta tag
            | Serve.Protocol.Min_flip (Error r) -> exit_exhausted r
            | Serve.Protocol.Sidedness (Ok sides) ->
                Array.iter
                  (fun s ->
                    Printf.printf "node %d: positive_flip=%b negative_flip=%b\n"
                      s.Fannet.Sensitivity.fs_node s.positive_flip s.negative_flip)
                  sides;
                print_string tag
            | Serve.Protocol.Sidedness (Error r) -> exit_exhausted r
            | Serve.Protocol.Certified { verdict; cert } -> (
                (* The daemon's certificate must convince the local
                   independent checker, not just the daemon. *)
                match
                  Fannet.Backend.check_certified model spec ~input ~label
                    { Fannet.Backend.cv_verdict = verdict; cv_cert = cert }
                with
                | Error e ->
                    Printf.eprintf "certificate INVALID: %s\n%!" e;
                    exit 2
                | Ok () -> (
                    Printf.printf "%s%s: certificate checked\n"
                      (Fannet.Backend.verdict_to_string verdict)
                      tag;
                    match verdict with
                    | Fannet.Backend.Flip _ -> exit 1
                    | Fannet.Backend.Unknown r -> exit_exhausted r
                    | Fannet.Backend.Robust -> ()))
            | Serve.Protocol.Counted (Error r) -> exit_exhausted r
            | Serve.Protocol.Counted (Ok { flips; total; count_cert }) ->
                (match count_cert with
                | None -> ()
                | Some cert -> (
                    (* Like certify: the daemon's certificate must convince
                       the local independent checker. *)
                    match
                      Fannet.Robustness.check_certificate model spec ~input ~label cert
                    with
                    | Error e ->
                        Printf.eprintf "count certificate INVALID: %s\n%!" e;
                        exit 2
                    | Ok () -> Printf.printf "count certificate checked\n"));
                Printf.printf "flips %s of %s vectors (p = %.6g)%s\n"
                  (Util.Bigcount.to_string flips)
                  (Util.Bigcount.to_string total)
                  (Util.Bigcount.ratio flips total)
                  tag;
                if not (Util.Bigcount.is_zero flips) then exit 1)
        | Serve.Protocol.Protocol_error e | Serve.Protocol.Server_error e -> failwith e
        | _ -> failwith "unexpected reply form")
  in
  let doc =
    "One-shot client for a running $(b,fannet serve) daemon: upload a model, \
     ask one query (exists-flip / tolerance / sensitivity / certify — \
     certificates are re-checked locally), or ping / scrape / stop it."
  in
  Cmd.v (Cmd.info "query" ~doc ~exits)
    Term.(
      const run $ socket_arg $ tcp_arg $ kind_arg $ model_arg $ input_vec_arg
      $ label_arg $ delta $ max_delta $ no_bias_noise $ backend $ timeout_arg
      $ retries_arg)

(* ---------- count: quantitative robustness via model counting ---------- *)

let count_cmd =
  let certify_arg =
    let doc =
      "Count with the certified engine (cube-decomposition #SAT), attach a \
       $(b,fannet-count-cert/1) certificate to the exact count and re-check \
       it with the independent validator before reporting."
    in
    Arg.(value & flag & info [ "certify" ] ~doc)
  in
  let cert_out_arg =
    let doc =
      "Write the count certificate JSON to $(docv) (implies --certify). Its \
       directory must exist and be writable."
    in
    Arg.(
      value
      & opt (some (writable_file "the count certificate")) None
      & info [ "cert-out" ] ~docv:"FILE" ~doc)
  in
  let jobs =
    jobs_with
      "Worker domains for the training pipeline and for a certified count, \
       whose cubes fan out (the certificate bytes are identical at every \
       setting). A plain count is one sequential walk. Defaults to \
       $(b,FANNET_JOBS) or the machine's recommended domain count."
  in
  let checkpoint_arg =
    checkpoint_with
      "Persist the exact count's progress to $(docv) (fannet-ckpt/1 format, \
       atomic writes) and resume from it when it already exists, so a \
       killed or timed-out run continues where it stopped. A plain count \
       saves the walk's pending boxes and its mass (at most once a second \
       and when stopped), a certified count its decided cubes and their \
       proofs; neither resumes the other's file. \
       The file is removed when the count completes. Its directory must \
       exist and be writable."
  in
  let run metrics dataset_seed init_seed input_index delta no_bias_noise
      certify cert_out jobs timeout max_mem retries checkpoint =
    with_clean_errors @@ fun () ->
    with_metrics metrics @@ fun () ->
    Util.Parallel.set_default_jobs jobs;
    let p = pipeline dataset_seed init_seed in
    let inputs = Fannet.Pipeline.analysis_inputs p in
    if input_index < 0 || input_index >= Array.length inputs then
      failwith "input index out of range";
    let input, label = inputs.(input_index) in
    let bias_noise = bias_flag no_bias_noise in
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
    let mode =
      Fannet.Robustness.Exact_mode { certify = certify || cert_out <> None }
    in
    (* The checkpoint key ties the file to this exact query, so resuming
       under different flags is rejected instead of silently merged;
       [Robustness.probability] adds the network's digest, which the
       dataset and init seeds decide. *)
    let ckpt_key =
      Printf.sprintf "count input=%d delta=%d bias=%b" input_index delta
        bias_noise
    in
    (* Retries resume from the checkpoint (when given), so each attempt
       keeps the previous attempt's progress. *)
    let r =
      with_retries ~retries (budget_of timeout max_mem) (fun budget ->
          let r =
            Fannet.Robustness.probability ?budget ~mode ?jobs ?checkpoint
              ~ckpt_key p.qnet spec ~input ~label
          in
          match r.Fannet.Robustness.status with
          | Error reason -> raise (Resil.Budget.Stopped reason)
          | Ok () -> r)
    in
    (match r.Fannet.Robustness.certificate with
    | None -> ()
    | Some cert -> (
        (match
           Fannet.Robustness.check_certificate p.qnet spec ~input ~label cert
         with
        | Ok () -> Printf.printf "certificate checked (fannet-count-cert/1)\n"
        | Error e ->
            Printf.eprintf "certificate INVALID: %s\n%!" e;
            exit 2);
        match cert_out with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            output_string oc (Util.Json.to_string (Count.Certificate.to_json cert));
            output_char oc '\n';
            close_out oc;
            Printf.printf "certificate written to %s\n" file));
    Printf.printf "input %d (true L%d), noise +-%d%%: %s of %s vectors flip (p = %.6g)\n"
      input_index label delta
      (Util.Bigcount.to_string r.Fannet.Robustness.flips)
      (Util.Bigcount.to_string r.Fannet.Robustness.total)
      r.Fannet.Robustness.probability;
    if not (Util.Bigcount.is_zero r.Fannet.Robustness.flips) then exit 1
  in
  let doc =
    "Quantitative robustness: count the noise vectors that flip one input's \
     classification, exactly: one branch-and-bound walk over the noise \
     box, or with $(b,--certify) cube-decomposition #SAT with a \
     $(b,fannet-count-cert/1) certificate checked by the independent \
     validator. The flip count over the noise-space cardinality is the \
     misclassification probability under uniform noise."
  in
  Cmd.v (Cmd.info "count" ~doc ~exits)
    Term.(
      const run $ metrics_file $ dataset_seed $ init_seed $ input_index $ delta
      $ no_bias_noise $ certify_arg $ cert_out_arg $ jobs $ timeout_arg
      $ max_mem_arg $ retries_arg $ checkpoint_arg)

let () =
  let doc = "Formal analysis of noise tolerance, training bias and input sensitivity (FANNet, DATE 2020)" in
  let info = Cmd.info "fannet" ~version:"1.0.0" ~doc ~exits in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let group =
    Cmd.group ~default info
      [
        train_cmd;
        validate_cmd;
        translate_cmd;
        tolerance_cmd;
        sweep_cmd;
        extract_cmd;
        sensitivity_cmd;
        boundary_cmd;
        bias_cmd;
        minflip_cmd;
        fsm_cmd;
        fuzz_cmd;
        certify_cmd;
        count_cmd;
        profile_cmd;
        serve_cmd;
        query_cmd;
      ]
  in
  (* Exit-code contract (documented in [exits]): counterexample paths call
     [exit 1] themselves; everything Cmdliner reports as a usage or
     evaluation problem maps to 2. *)
  match Cmd.eval_value group with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term | `Exn) -> exit 2
