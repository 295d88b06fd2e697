(* Tests for the differential fuzzing subsystem (lib/check): generator
   invariants, corpus determinism and persistence, a clean oracle run on
   the real backends, mutation testing (deliberately broken backends must
   be caught, shrunk and reported with their seeds), and the shrinker's
   termination/minimality guarantees. *)

module B = Fannet.Backend
module N = Fannet.Noise
module Case = Check.Case

(* Small ranges keep the per-case backend cost (Smt in particular) low. *)
let max_explicit = 300

let mk_corpus ?(cases = 40) ?(seed = 7) () =
  Check.Gen.corpus ~seed ~cases ~max_explicit

let explicit = B.Explicit { limit = B.default_explicit_limit }

let ground_truth (c : Case.t) =
  B.exists_flip explicit c.net c.spec ~input:c.input ~label:c.label

(* ---------- generators ---------- *)

let test_gen_invariants () =
  let corpus = mk_corpus ~cases:60 () in
  Alcotest.(check int) "corpus size" 60 (List.length corpus);
  List.iteri
    (fun i (c : Case.t) ->
      Alcotest.(check int) "ids are positions" i c.id;
      let n_in = Nn.Qnet.in_dim c.net in
      Alcotest.(check int) "input dimension" n_in (Array.length c.input);
      Array.iter
        (fun v ->
          Alcotest.(check bool) "input component in [1,60]" true (v >= 1 && v <= 60))
        c.input;
      Alcotest.(check int) "label is the noise-free prediction"
        (Nn.Qnet.predict c.net c.input) c.label;
      Alcotest.(check bool) "explicit enumeration tractable" true
        (N.spec_size c.spec ~n_inputs:n_in <= max_explicit);
      Alcotest.(check bool) "noise range spans zero" true
        (c.spec.N.delta_lo <= 0 && c.spec.N.delta_hi >= 0))
    corpus

let test_case_replayable_from_seed () =
  (* A case must be a pure function of its recorded per-case seed: that is
     what makes a failure report reproducible from two integers. *)
  List.iter
    (fun (c : Case.t) ->
      let replayed = Check.Gen.case ~seed:c.seed ~id:c.id ~max_explicit in
      Alcotest.(check bool) "replayed case identical" true (Case.equal c replayed))
    (mk_corpus ~cases:20 ())

let test_corpus_deterministic () =
  let a = mk_corpus () and b = mk_corpus () in
  Alcotest.(check bool) "same seed, same corpus" true
    (List.for_all2 Case.equal a b);
  let c = mk_corpus ~seed:8 () in
  Alcotest.(check bool) "different seed, different corpus" true
    (not (List.for_all2 Case.equal a c))

(* ---------- corpus persistence ---------- *)

let test_corpus_json_roundtrip () =
  let corpus = mk_corpus ~cases:12 () in
  let path = Filename.temp_file "fannet_corpus" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Case.save_corpus path ~seed:7 corpus;
      match Case.load_corpus path with
      | Error e -> Alcotest.fail e
      | Ok (seed, reloaded) ->
          Alcotest.(check int) "seed preserved" 7 seed;
          Alcotest.(check int) "case count" 12 (List.length reloaded);
          Alcotest.(check bool) "cases bit-identical" true
            (List.for_all2 Case.equal corpus reloaded))

let test_corpus_json_rejects_garbage () =
  (match Case.load_corpus "/nonexistent/fannet-corpus.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for missing file");
  let bad =
    Util.Json.(Obj [ ("format", String "something-else"); ("version", Int 1) ])
  in
  (match Case.corpus_of_json bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected format error");
  match Case.of_json (Util.Json.Obj [ ("id", Util.Json.Int 0) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected missing-field error"

(* ---------- clean differential run ---------- *)

let test_fuzz_clean_run () =
  let report = Check.Fuzz.run ~max_explicit ~cases:50 ~seed:42 () in
  Alcotest.(check bool) "no failures on real backends" true
    (Check.Fuzz.report_ok report);
  Alcotest.(check int) "all cases ran" 50 report.Check.Fuzz.cases_run;
  Alcotest.(check int) "every case decided"
    50 (report.Check.Fuzz.robust + report.Check.Fuzz.flipped)

(* ---------- mutation testing: injected bugs must be caught ---------- *)

(* Cases whose ground truth is a flip: forcing a complete backend to
   answer Robust on them is a guaranteed disagreement. *)
let flipped_cases =
  lazy
    (let flipped =
       List.filter
         (fun c -> match ground_truth c with B.Flip _ -> true | _ -> false)
         (mk_corpus ~cases:150 ())
     in
     Alcotest.(check bool) "corpus contains flipping cases" true (flipped <> []);
     flipped)

let test_mutation_unsound_bnb_caught () =
  let mutated backend net spec ~input ~label =
    match backend with
    | B.Bnb -> B.Robust (* injected bug: never finds the flip *)
    | b -> B.exists_flip b net spec ~input ~label
  in
  let cases = Lazy.force flipped_cases in
  let report = Check.Fuzz.run_cases ~run:mutated ~master_seed:7 cases in
  Alcotest.(check int) "every flipping case caught"
    (List.length cases)
    (List.length report.Check.Fuzz.case_failures);
  List.iter
    (fun (cf : Check.Fuzz.case_failure) ->
      Alcotest.(check bool) "agreement failure names bnb" true
        (List.exists
           (fun (f : Check.Oracle.failure) ->
             f.property = "complete-agreement" && f.backend = "bnb")
           cf.failures);
      (* The shrunk reproducer must still fail and must not be larger. *)
      Alcotest.(check bool) "shrunk case still fails" true
        (cf.shrunk_failures <> []);
      Alcotest.(check bool) "shrunk case no larger" true
        (Case.size cf.shrunk <= Case.size cf.case))
    report.Check.Fuzz.case_failures;
  (* The report must hand the user a replay line with the seeds. *)
  let text = Check.Fuzz.report_to_string report in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "report has replay line" true (contains text "replay:");
  let first = List.hd report.Check.Fuzz.case_failures in
  Alcotest.(check bool) "report names the case seed" true
    (contains text (string_of_int first.Check.Fuzz.case.Case.seed))

let test_mutation_unsound_interval_caught () =
  let mutated backend net spec ~input ~label =
    match backend with
    | B.Interval -> B.Robust (* claims robustness it cannot prove *)
    | b -> B.exists_flip b net spec ~input ~label
  in
  let case = List.hd (Lazy.force flipped_cases) in
  let result = Check.Oracle.check_case ~run:mutated ~check_parallel:false case in
  Alcotest.(check bool) "interval-sound violation reported" true
    (List.exists
       (fun (f : Check.Oracle.failure) -> f.property = "interval-sound")
       result.Check.Oracle.failures)

let test_mutation_bogus_witness_caught () =
  let mutated backend net spec ~input ~label =
    match backend with
    | B.Smt ->
        (* A witness outside the declared noise range. *)
        B.Flip
          {
            N.bias = 0;
            inputs = Array.map (fun _ -> spec.N.delta_hi + 1) input;
          }
    | b -> B.exists_flip b net spec ~input ~label
  in
  let case = List.hd (mk_corpus ~cases:1 ()) in
  let result = Check.Oracle.check_case ~run:mutated ~check_parallel:false case in
  Alcotest.(check bool) "witness-valid violation reported" true
    (List.exists
       (fun (f : Check.Oracle.failure) ->
         f.property = "witness-valid" && f.backend = "smt")
       result.Check.Oracle.failures)

let test_mutation_raising_backend_reported () =
  let mutated backend net spec ~input ~label =
    match backend with
    | B.Smt -> failwith "injected crash"
    | b -> B.exists_flip b net spec ~input ~label
  in
  let case = List.hd (mk_corpus ~cases:1 ()) in
  let result = Check.Oracle.check_case ~run:mutated ~check_parallel:false case in
  Alcotest.(check bool) "exception folded into a failure" true
    (List.exists
       (fun (f : Check.Oracle.failure) -> f.backend = "smt")
       result.Check.Oracle.failures)

let test_mutation_unsound_relaxation_caught () =
  (* A wrong triangle slope inside the engine itself: the unstable-ReLU
     upper relaxation loses its -lob offset, making the symbolic bounds
     unsound. The trigger needs coefficient cancellation across unstable
     neurons — h1 = relu(d), h2 = relu(-d) and the margin 1 - h1 - h2:
     the mutated upper forms d and -d cancel to the vacuous bound
     h1 + h2 <= 0, so the whole box is claimed Robust even though d = ±2
     flips (true h1 + h2 = |d|). Random fuzz corpora essentially never
     build this shape (0/400 in a seeded sweep), which is exactly why the
     mutation hook plus a directed case is the regression test. *)
  let net =
    Nn.Qnet.create
      [|
        {
          Nn.Qnet.weights = [| [| 1 |]; [| -1 |] |];
          bias = [| 0; 0 |];
          act = Nn.Qnet.Relu;
        };
        {
          Nn.Qnet.weights = [| [| -1; -1 |]; [| 0; 0 |] |];
          bias = [| 1; 0 |];
          act = Nn.Qnet.Identity;
        };
      |]
  in
  let spec = N.absolute ~delta:2 ~bias_noise:false in
  let case =
    {
      Case.id = 0;
      seed = 0;
      net;
      input = [| 0 |];
      label = Nn.Qnet.predict net [| 0 |];
      spec;
    }
  in
  let fails c =
    (Check.Oracle.check_case ~check_parallel:false ~check_certificate:false
       ~check_count:false c)
      .Check.Oracle.failures
    <> []
  in
  Alcotest.(check bool) "sound engine passes the trigger case" false (fails case);
  Fun.protect
    ~finally:(fun () -> Fannet.Bnb.unsound_relaxation_for_tests := false)
    (fun () ->
      Fannet.Bnb.unsound_relaxation_for_tests := true;
      let result =
        Check.Oracle.check_case ~check_parallel:false ~check_certificate:false
          ~check_count:false case
      in
      Alcotest.(check bool) "wrong slope caught" true
        (result.Check.Oracle.failures <> []);
      Alcotest.(check bool) "complete-agreement failure names bnb" true
        (List.exists
           (fun (f : Check.Oracle.failure) ->
             f.property = "complete-agreement" && f.backend = "bnb")
           result.Check.Oracle.failures);
      (* The fuzz driver end to end: the mutated engine must be reported
         with a shrunk reproducer that still fails under the mutation. *)
      let report = Check.Fuzz.run_cases ~master_seed:0 [ case ] in
      (match report.Check.Fuzz.case_failures with
      | [ cf ] ->
          Alcotest.(check bool) "shrunk case still fails" true
            (cf.shrunk_failures <> []);
          Alcotest.(check bool) "shrunk case no larger" true
            (Case.size cf.shrunk <= Case.size cf.case);
          Alcotest.(check bool) "shrunk reproducer still fails standalone" true
            (fails cf.shrunk)
      | l ->
          Alcotest.fail
            (Printf.sprintf "expected exactly one case failure, got %d"
               (List.length l))))

(* ---------- shrinking ---------- *)

let test_shrink_candidates_strictly_smaller () =
  List.iter
    (fun (c : Case.t) ->
      Seq.iter
        (fun (cand : Case.t) ->
          Alcotest.(check bool) "candidate strictly smaller" true
            (Case.size cand < Case.size c);
          Alcotest.(check int) "candidate label recomputed"
            (Nn.Qnet.predict cand.net cand.input)
            cand.label)
        (Check.Shrink.candidates c))
    (mk_corpus ~cases:15 ())

let test_shrink_reaches_fixpoint () =
  (* With an always-failing predicate, greedy shrinking must terminate at
     a case from which no candidate step exists: the minimal 1-1-2 network
     with all-zero parameters and the single-point noise range. *)
  let c = List.hd (mk_corpus ~cases:1 ()) in
  let result = Check.Shrink.shrink ~fails:(fun _ -> true) c in
  Alcotest.(check bool) "no further candidates" true
    (Seq.is_empty (Check.Shrink.candidates result));
  Alcotest.(check int) "single input" 1 (Array.length result.Case.input);
  Alcotest.(check bool) "point noise range" true
    (result.Case.spec.N.delta_lo = 0 && result.Case.spec.N.delta_hi = 0);
  Alcotest.(check bool) "bias noise dropped" false result.Case.spec.N.bias_noise;
  Alcotest.(check bool) "id and seed preserved" true
    (result.Case.id = c.Case.id && result.Case.seed = c.Case.seed)

let test_shrink_preserves_failure () =
  (* The shrunk case must still satisfy the failure predicate. *)
  let c =
    List.find
      (fun (c : Case.t) -> Array.length c.input >= 2)
      (mk_corpus ~cases:30 ())
  in
  let fails (c : Case.t) = Array.length c.Case.input >= 2 in
  let result = Check.Shrink.shrink ~fails c in
  Alcotest.(check bool) "still fails" true (fails result);
  Alcotest.(check int) "shrunk to the boundary of the predicate" 2
    (Array.length result.Case.input)

(* ---------- backend helpers exposed for the oracle ---------- *)

let test_backend_run_all_and_agree () =
  let c = List.hd (mk_corpus ~cases:1 ()) in
  let results =
    B.run_all c.Case.net c.Case.spec ~input:c.Case.input ~label:c.Case.label
  in
  Alcotest.(check int) "default backend set" 5 (List.length results);
  let gt = ground_truth c in
  List.iter
    (fun (b, v) ->
      match b with
      | B.Interval -> ()
      | _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s agrees with explicit" (B.to_string b))
            true (B.agree gt v))
    results;
  Alcotest.(check bool) "verdict_equal distinguishes decisions" false
    (B.verdict_equal B.Robust (B.Unknown Resil.Budget.Incomplete))

let () =
  Alcotest.run "check"
    [
      ( "gen",
        [
          Alcotest.test_case "invariants" `Quick test_gen_invariants;
          Alcotest.test_case "replayable from seed" `Quick test_case_replayable_from_seed;
          Alcotest.test_case "corpus deterministic" `Quick test_corpus_deterministic;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "json roundtrip" `Quick test_corpus_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_corpus_json_rejects_garbage;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean differential run" `Quick test_fuzz_clean_run;
          Alcotest.test_case "run_all/agree helpers" `Quick test_backend_run_all_and_agree;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "unsound bnb caught" `Quick test_mutation_unsound_bnb_caught;
          Alcotest.test_case "unsound interval caught" `Quick test_mutation_unsound_interval_caught;
          Alcotest.test_case "bogus witness caught" `Quick test_mutation_bogus_witness_caught;
          Alcotest.test_case "raising backend reported" `Quick test_mutation_raising_backend_reported;
          Alcotest.test_case "unsound relaxation caught" `Quick
            test_mutation_unsound_relaxation_caught;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "candidates strictly smaller" `Quick
            test_shrink_candidates_strictly_smaller;
          Alcotest.test_case "reaches fixpoint" `Quick test_shrink_reaches_fixpoint;
          Alcotest.test_case "preserves failure" `Quick test_shrink_preserves_failure;
        ] );
    ]
