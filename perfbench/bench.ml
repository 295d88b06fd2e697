(* The repository benchmark. One run measures one workload for a fixed
   time and prints, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Untraced runs report
   the end-to-end metrics of BENCHMARK.json, traced runs (--trace 1) its
   per-layer metrics. Usually started through perfbench/run.py, which
   builds this program and the fannet CLI first. *)

let usage =
  "bench --workload NAME --seed N --seconds S --trace 0|1 --spec BENCHMARK.json \
   --fannet PATH --work-dir DIR [--out FILE]"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt

type metric_spec = { name : string; unit_ : string }

let metric_specs json key =
  match Util.Json.member key json with
  | Some (Util.Json.List l) ->
      List.map
        (fun m ->
          match (Util.Json.member "name" m, Util.Json.member "unit" m) with
          | Some (Util.Json.String name), Some (Util.Json.String unit_) -> { name; unit_ }
          | _ -> die "malformed %s entry in the benchmark spec" key)
        l
  | _ -> die "benchmark spec lacks %s" key

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec = ref "BENCHMARK.json" and fannet = ref "" and work_dir = ref "" and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--spec", Arg.Set_string spec, "FILE");
      ("--fannet", Arg.Set_string fannet, "PATH");
      ("--work-dir", Arg.Set_string work_dir, "DIR");
      ("--out", Arg.Set_string out, "FILE");
    ]
    (fun a -> die "unexpected argument %S" a)
    usage;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then die "usage: %s" usage;
  let spec_json =
    match Util.Json.parse_file !spec with
    | Ok j -> j
    | Error e -> die "cannot read %s: %s" !spec e
  in
  let trace = !trace = 1 in
  let wanted = metric_specs spec_json (if trace then "per_layer" else "end_to_end") in
  let seed = !seed and seconds = float_of_int !seconds in
  let r =
    match !workload with
    | "paper-batch" -> Paper_batch.run ~seed ~seconds ~trace
    | "certify-cold" -> Certify_cold.run ~seed ~seconds ~trace
    | "serve-hot" ->
        Serve_load.run ~mode:Serve_load.Hot ~fannet:!fannet ~work_dir:!work_dir ~seed
          ~seconds ~trace
    | "serve-churn" ->
        Serve_load.run ~mode:Serve_load.Churn ~fannet:!fannet ~work_dir:!work_dir ~seed
          ~seconds ~trace
    | w -> die "unknown workload %S" w
  in
  (* Every metric the spec names, in its order; a layer this workload
     does not exercise reads 0. *)
  let metrics =
    List.map
      (fun { name; unit_ } ->
        let v = Option.value (List.assoc_opt name r.Common.metrics) ~default:0. in
        if (not trace) && not (Float.is_finite v && v > 0.) then
          die "end-to-end metric %s measured %g" name v;
        (* A layer statistic over no samples (say, too short a run). *)
        let v = if Float.is_finite v then v else 0. in
        Printf.printf "%-26s %14.4f %s\n" name v unit_;
        (name, Util.Json.Obj [ ("value", Util.Json.Float v); ("unit", Util.Json.String unit_) ]))
      wanted
  in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> m.name = name) wanted) then
        die "workload reported %s, which the spec does not list" name)
    r.metrics;
  let line =
    Util.Json.to_string
      (Util.Json.Obj
         [
           ("correct", Util.Json.Bool r.correct);
           ("attempted", Util.Json.Int r.attempted);
           ("failed", Util.Json.Int r.failed);
           ("metrics", Util.Json.Obj metrics);
         ])
  in
  if !out <> "" then
    Out_channel.with_open_text !out (fun oc ->
        Printf.fprintf oc
          "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"result\": %s}\n" !workload seed
          trace line);
  print_endline line
