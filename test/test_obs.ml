(* Tests for the observability library: clock monotonicity, the sharded
   metrics registry (including cross-domain merging), scoped spans and the
   disabled fast path (recording off must leave zero state behind and
   cost under 2% of an instrumented workload).

   The registry is process-wide, so every test starts from a clean slate
   and leaves recording disabled. *)

let with_clean_enabled f =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Span.reset ())
    f

(* ---------- clock ---------- *)

let test_clock_non_decreasing () =
  let prev = ref (Obs.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Obs.Clock.now_ns () in
    Alcotest.(check bool) "non-decreasing" true (Int64.compare t !prev >= 0);
    prev := t
  done

let test_clock_elapsed_positive () =
  let t0 = Obs.Clock.now_ns () in
  let acc = ref 0 in
  for i = 1 to 100_000 do
    acc := !acc + i
  done;
  Sys.opaque_identity !acc |> ignore;
  let dt = Obs.Clock.elapsed_s ~since:t0 in
  Alcotest.(check bool) "elapsed >= 0" true (dt >= 0.);
  Alcotest.(check bool) "elapsed < 10s" true (dt < 10.)

(* ---------- counters ---------- *)

let test_counter_basic () =
  with_clean_enabled @@ fun () ->
  let c = Obs.Metrics.counter "test.counter" in
  Alcotest.(check int) "starts at 0" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "same name, same counter" 43 (Obs.Metrics.counter_value c)

let test_counter_merges_across_domains () =
  with_clean_enabled @@ fun () ->
  let c = Obs.Metrics.counter "test.cross_domain" in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Obs.Metrics.incr c
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "4 domains x 1000" 4000 (Obs.Metrics.counter_value c)

let test_kind_mismatch_rejected () =
  with_clean_enabled @@ fun () ->
  ignore (Obs.Metrics.counter "test.kinded");
  Alcotest.(check bool) "gauge on a counter name raises" true
    (match Obs.Metrics.gauge "test.kinded" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- histograms ---------- *)

let test_histogram_buckets_and_stats () =
  with_clean_enabled @@ fun () ->
  let h = Obs.Metrics.histogram "test.hist" ~buckets:[| 1.; 10.; 100. |] in
  List.iter (Obs.Metrics.observe h) [ 0.5; 5.; 50.; 500. ];
  let v = Obs.Metrics.histogram_view h in
  Alcotest.(check int) "count" 4 v.Obs.Metrics.count;
  Alcotest.(check bool) "counts per bucket" true (v.Obs.Metrics.counts = [| 1; 1; 1 |]);
  Alcotest.(check int) "overflow" 1 v.Obs.Metrics.overflow;
  Alcotest.(check (float 1e-9)) "sum" 555.5 v.Obs.Metrics.sum;
  Alcotest.(check (float 0.)) "min" 0.5 v.Obs.Metrics.vmin;
  Alcotest.(check (float 0.)) "max" 500. v.Obs.Metrics.vmax

let test_histogram_nan_isolated () =
  with_clean_enabled @@ fun () ->
  let h = Obs.Metrics.histogram "test.hist_nan" ~buckets:[| 1. |] in
  Obs.Metrics.observe h Float.nan;
  Obs.Metrics.observe h 0.5;
  let v = Obs.Metrics.histogram_view h in
  Alcotest.(check int) "nan counted apart" 1 v.Obs.Metrics.nan_count;
  Alcotest.(check bool) "no bucket pollution" true (v.Obs.Metrics.counts = [| 1 |]);
  Alcotest.(check (float 1e-9)) "sum excludes nan" 0.5 v.Obs.Metrics.sum

let test_histogram_merges_across_domains () =
  with_clean_enabled @@ fun () ->
  let h = Obs.Metrics.histogram "test.hist_cross" ~buckets:[| 10.; 1000. |] in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 500 do
              Obs.Metrics.observe h (float_of_int d)
            done))
  in
  Array.iter Domain.join domains;
  let v = Obs.Metrics.histogram_view h in
  Alcotest.(check int) "all observations merged" 2000 v.Obs.Metrics.count;
  Alcotest.(check bool) "all in first bucket" true (v.Obs.Metrics.counts = [| 2000; 0 |])

(* ---------- spans ---------- *)

let test_span_nesting_and_order () =
  with_clean_enabled @@ fun () ->
  let r =
    Obs.Span.with_ "outer" (fun () ->
        Obs.Span.with_ "first" (fun () -> ());
        Obs.Span.with_ "second" (fun () -> ());
        17)
  in
  Alcotest.(check int) "value returned" 17 r;
  match Obs.Span.roots () with
  | [ root ] ->
      Alcotest.(check string) "root name" "outer" root.Obs.Span.name;
      Alcotest.(check (list string)) "children in start order"
        [ "first"; "second" ]
        (List.map (fun (s : Obs.Span.t) -> s.Obs.Span.name) (Obs.Span.children root));
      Alcotest.(check bool) "root covers children" true
        (Obs.Span.duration_s root
        >= List.fold_left
             (fun acc s -> acc +. Obs.Span.duration_s s)
             0. (Obs.Span.children root)
           -. 1e-9)
  | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots))

let test_span_closed_on_exception () =
  with_clean_enabled @@ fun () ->
  (try Obs.Span.with_ "dies" (fun () -> failwith "inner") with Failure _ -> ());
  match Obs.Span.roots () with
  | [ root ] ->
      Alcotest.(check string) "span recorded despite raise" "dies" root.Obs.Span.name;
      Alcotest.(check bool) "span closed" true (Obs.Span.duration_s root >= 0.)
  | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots))

(* ---------- snapshot ---------- *)

let test_snapshot_deterministic () =
  with_clean_enabled @@ fun () ->
  (* Register in non-alphabetical order; record some values. *)
  Obs.Metrics.incr (Obs.Metrics.counter "test.z");
  Obs.Metrics.observe (Obs.Metrics.histogram "test.m") 0.5;
  Obs.Metrics.set_gauge (Obs.Metrics.gauge "test.a") 1.5;
  let s1 = Obs.Metrics.snapshot () in
  let s2 = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "quiesced snapshots identical" true (s1 = s2);
  (* The snapshot must round-trip through the JSON printer/parser. *)
  match Util.Json.of_string (Util.Json.pretty s1) with
  | Ok v -> Alcotest.(check bool) "JSON roundtrip" true (v = s1)
  | Error e -> Alcotest.fail e

let test_report_snapshot_shape () =
  with_clean_enabled @@ fun () ->
  Obs.Metrics.incr (Obs.Metrics.counter "test.report");
  Obs.Span.with_ "test.span" (fun () -> ());
  let s = Obs.Report.snapshot () in
  Alcotest.(check bool) "schema tag" true
    (Util.Json.member "schema" s = Some (Util.Json.String Obs.Report.schema));
  Alcotest.(check bool) "has metrics" true (Util.Json.member "metrics" s <> None);
  (match Util.Json.member "spans" s with
  | Some (Util.Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "expected a non-empty spans list")

(* ---------- disabled fast path ---------- *)

let test_disabled_records_nothing () =
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  let c = Obs.Metrics.counter "test.disabled_c" in
  let g = Obs.Metrics.gauge "test.disabled_g" in
  let h = Obs.Metrics.histogram "test.disabled_h" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 100;
  Obs.Metrics.set_gauge g 3.5;
  Obs.Metrics.observe h 0.25;
  let r = Obs.Span.with_ "test.disabled_span" (fun () -> 23) in
  Alcotest.(check int) "with_ still returns the value" 23 r;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "gauge unset" true (Float.is_nan (Obs.Metrics.gauge_value g));
  Alcotest.(check int) "histogram empty" 0
    (Obs.Metrics.histogram_view h).Obs.Metrics.count;
  Alcotest.(check (list string)) "no spans recorded" []
    (List.map (fun (s : Obs.Span.t) -> s.Obs.Span.name) (Obs.Span.roots ()))

let test_reset_zeroes () =
  with_clean_enabled @@ fun () ->
  let c = Obs.Metrics.counter "test.reset_c" in
  let h = Obs.Metrics.histogram "test.reset_h" in
  Obs.Metrics.add c 7;
  Obs.Metrics.observe h 1.;
  Obs.Span.with_ "test.reset_span" (fun () -> ());
  Obs.Report.reset ();
  Alcotest.(check int) "counter zero" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "histogram empty" 0
    (Obs.Metrics.histogram_view h).Obs.Metrics.count;
  Alcotest.(check bool) "spans dropped" true (Obs.Span.roots () = [])

(* ---------- disabled-path overhead contract ---------- *)

(* Recording off must cost < 2% of a representative instrumented
   workload: cascade and SMT robustness queries plus one incremental
   min-flip search, the paths that carry every record site. Direct
   enabled-vs-disabled deltas drown in solver noise at this scale, so the
   bound multiplies the measured per-site branch cost by the number of
   record-site executions, counted with recording on. *)
let test_disabled_overhead_contract () =
  Fun.protect ~finally:(fun () ->
      Obs.Report.disable ();
      Obs.Report.reset ())
  @@ fun () ->
  let qnet = Fixture.small_qnet () in
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict qnet input in
  let workload () =
    List.iter
      (fun delta ->
        let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
        ignore
          (Fannet.Backend.exists_flip Fannet.Backend.default_cascade qnet spec ~input
             ~label);
        ignore (Fannet.Backend.exists_flip Fannet.Backend.Smt qnet spec ~input ~label))
      [ 5; 12 ];
    ignore
      (Fannet.Tolerance.input_min_flip_delta Fannet.Backend.Smt qnet ~bias_noise:false
         ~max_delta:40 ~input ~label)
  in
  let time f =
    let t0 = Obs.Clock.now_ns () in
    f ();
    Obs.Clock.elapsed_s ~since:t0
  in
  let reps = 3 in
  Obs.Report.disable ();
  Obs.Report.reset ();
  let t_disabled = List.fold_left min infinity (List.init reps (fun _ -> time workload)) in
  Obs.Report.enable ();
  Obs.Report.reset ();
  for _ = 1 to reps do
    workload ()
  done;
  let cval name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let hcount name =
    (Obs.Metrics.histogram_view (Obs.Metrics.histogram name)).Obs.Metrics.count
  in
  (* Record-site executions: each learnt clause checks the flag once; a
     solve pushes ~6 counter deltas + 1 histogram; a query records ~5
     metrics; a backend query ~2 (histogram + clock pair); a tolerance
     probe ~2 (counter + gauge). *)
  let events_total =
    hcount "sat.learnt_clause_len"
    + (6 * cval "sat.solves")
    + (5 * cval "smtlite.queries")
    + (2 * (hcount "backend.cascade(bnb).query_s" + hcount "backend.smt.query_s"))
    + (2 * cval "tolerance.probes")
  in
  let events_per_rep = float_of_int events_total /. float_of_int reps in
  Obs.Report.disable ();
  (* Disabled-branch unit cost: one counter incr = atomic load + branch. *)
  let iters = 2_000_000 in
  let c = Obs.Metrics.counter "test.disabled_probe" in
  let t_branch =
    time (fun () ->
        for _ = 1 to iters do
          Obs.Metrics.incr c
        done)
  in
  let branch_s = t_branch /. float_of_int iters in
  let overhead_pct = 100. *. events_per_rep *. branch_s /. t_disabled in
  if overhead_pct >= 2.0 then
    Alcotest.failf "disabled-path overhead %.3f%% breaches the 2%% contract" overhead_pct

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "non-decreasing" `Quick test_clock_non_decreasing;
          Alcotest.test_case "elapsed positive" `Quick test_clock_elapsed_positive;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basic;
          Alcotest.test_case "counter cross-domain merge" `Quick
            test_counter_merges_across_domains;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets_and_stats;
          Alcotest.test_case "histogram NaN isolated" `Quick test_histogram_nan_isolated;
          Alcotest.test_case "histogram cross-domain merge" `Quick
            test_histogram_merges_across_domains;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting_and_order;
          Alcotest.test_case "closed on exception" `Quick test_span_closed_on_exception;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "deterministic" `Quick test_snapshot_deterministic;
          Alcotest.test_case "report shape" `Quick test_report_snapshot_shape;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "reset zeroes" `Quick test_reset_zeroes;
          Alcotest.test_case "modelled overhead < 2%" `Quick
            test_disabled_overhead_contract;
        ] );
    ]
