(* paper-batch: the paper's own questions on the Leukemia pipeline
   network, in process, with jobs = nproc on the production backend. One
   op is one full paper round. Bnb bound propagation and Util.Parallel
   do nearly all the work; there is no SAT, certificate, wire or cache. *)

open Common

let backend = Fannet.Pipeline.analysis_backend
let bias_noise = true
let sweep_deltas = [ 5; 10; 15; 20; 25; 30; 35; 40 ]
let sidedness_deltas = [ 10; 12; 15 ]

(* The four 64-input E22 rungs (seed 60, as in BENCH_ladder.json), each
   probed at its robust and its fragile input. *)
let rungs () =
  List.concat_map
    (fun family ->
      List.map
        (fun n_layers -> Nn.Ladder.rung ~family ~n_inputs:64 ~n_layers ~seed:60)
        [ 3; 4 ])
    Nn.Ladder.families

type setup = {
  pipeline : Fannet.Pipeline.t;
  inputs : Fannet.Validate.labelled array;
  rungs : Nn.Ladder.rung list;
  reference : string;  (** digest of a jobs=1 round *)
}

let layer = Trace.layer

(* One round. Its digest covers every answer, so rounds can be compared
   for identity. The seed permutes the inputs, so only answers that do
   not depend on input order enter it: per-input results as sorted
   multisets, sidedness as per-node tables. *)
let round ~jobs st =
  let qnet = st.pipeline.Fannet.Pipeline.qnet and inputs = st.inputs in
  let tolerance =
    layer "analysis.tolerance" (fun () ->
        Fannet.Tolerance.network_tolerance ~jobs backend qnet ~bias_noise ~max_delta:50 ~inputs)
  in
  let sweep =
    layer "analysis.sweep" (fun () ->
        Fannet.Tolerance.sweep ~jobs backend qnet ~bias_noise ~deltas:sweep_deltas ~inputs
        |> List.map (fun (p : Fannet.Tolerance.sweep_point) -> (p.delta, p.n_misclassified)))
  in
  let sides =
    layer "analysis.sidedness" (fun () ->
        List.map
          (fun delta ->
            Fannet.Sensitivity.formal_sidedness ~jobs qnet
              (Fannet.Noise.symmetric ~delta ~bias_noise) ~inputs)
          sidedness_deltas)
  in
  let boundary =
    layer "analysis.boundary" (fun () ->
        Fannet.Boundary.analyze ~jobs backend qnet ~bias_noise ~max_delta:50 ~inputs
        |> Array.map (fun (p : Fannet.Boundary.point) -> (p.true_label, p.min_flip_delta, p.margin))
        |> Array.to_list |> List.sort compare)
  in
  let bias =
    layer "analysis.extract" (fun () ->
        let corpus, status =
          Fannet.Extract.for_inputs ~jobs qnet (Fannet.Noise.symmetric ~delta:15 ~bias_noise)
            ~inputs
        in
        let report =
          Fannet.Bias.analyze ~n_classes:2
            ~training_labels:(Fannet.Pipeline.training_labels st.pipeline)
            ~analysed_labels:(Array.map snd inputs) corpus
        in
        (List.length corpus, Fannet.Extract.status_to_string status,
         Fannet.Bias.report_to_string report))
  in
  let ladder =
    layer "analysis.ladder" (fun () ->
        List.concat_map
          (fun (r : Nn.Ladder.rung) ->
            let spec = Fannet.Noise.symmetric ~delta:1 ~bias_noise:false in
            List.map
              (fun input ->
                let label = Nn.Qnet.predict r.qnet input in
                Fannet.Backend.verdict_to_string
                  (Fannet.Backend.exists_flip backend r.qnet spec ~input ~label))
              [ r.input; r.fragile ])
          st.rungs)
  in
  let answers = (tolerance, sweep, sides, boundary, bias, ladder) in
  (tolerance, Digest.to_hex (Digest.string (Marshal.to_string answers [])))

let setup ~seed () =
  let pipeline = Fannet.Pipeline.run () in
  let inputs = Array.copy (Fannet.Pipeline.analysis_inputs pipeline) in
  Util.Rng.shuffle (Util.Rng.create (0xba7c4 + seed)) inputs;
  let st = { pipeline; inputs; rungs = rungs (); reference = "" } in
  let _, reference = round ~jobs:1 st in
  { st with reference }

let run ~seed ~seconds ~trace =
  let jobs = nproc () in
  let st, setup_s = repeated_setup ~reps:3 ~discard:ignore (setup ~seed) in
  let n_inputs = Array.length st.inputs in
  let lat = ref [] and failed = ref 0 and headline = ref true in
  Fannet.Backend.reset_cascade_stats ();
  let t_start = now () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let rec loop i =
    if Int64.compare (now ()) deadline < 0 then begin
      let (tolerance, digest), ms =
        Trace.op ~traced:(trace && i mod 2 = 1) (fun () -> round ~jobs st)
      in
      (* At the pipeline's defaults the headline is +-9% over 32 inputs. *)
      if tolerance <> 9 || n_inputs <> 32 then headline := false;
      if digest <> st.reference || not !headline then incr failed;
      lat := ms :: !lat;
      loop (i + 1)
    end
  in
  loop 0;
  let wall = s_since t_start in
  let lat = Array.of_list (List.rev !lat) in
  let n = Array.length lat in
  let tail_ms, tail_p = tail lat in
  Printf.printf "paper-batch: %d rounds at jobs=%d over %d inputs in %.2f s; headline %s\n" n
    jobs n_inputs wall
    (if !headline then "+-9% over 32 inputs" else "MISMATCH");
  Printf.printf "op_tail_ms is p%.1f of n=%d\nfail_share %.4f share\n" tail_p n
    (float_of_int !failed /. float_of_int (max 1 n));
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int n /. wall);
        ("op_p50_ms", median lat);
        ("op_tail_ms", tail_ms);
        ("peak_rss_mb", peak_rss_mb None);
      ]
    else begin
      let layers =
        List.map
          (fun l -> ("analysis." ^ l ^ "_ms", Trace.self_ms ("analysis." ^ l)))
          [ "tolerance"; "sweep"; "sidedness"; "boundary"; "extract"; "ladder" ]
      in
      Trace.print_table ~title:"paper-batch" layers;
      (* The layer spans must account for at least 90% of the op. *)
      if Trace.coverage () < 0.9 then incr failed;
      let queries, query_s = Trace.backend_queries () in
      let hits = Fannet.Backend.cascade_stats () in
      layers @ Trace.parallel_metrics ()
      @ [
          ("trace.coverage", Trace.coverage ());
          ("trace.overhead_ms", Trace.overhead_ms ());
          ("bnb.queries", Trace.per_op (float_of_int queries));
          ("bnb.query_us", if queries > 0 then 1e6 *. query_s /. float_of_int queries else 0.);
          ("backend.cascade_hit_ratio", Fannet.Backend.cascade_hit_rate hits);
        ]
    end
  in
  { correct = !failed = 0; attempted = n; failed = !failed; metrics }
