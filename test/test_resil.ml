(* Tests for the resilience layer: budgets and cooperative cancellation,
   crash-safe checkpoints (fannet-ckpt/1), fault injection, kill-and-resume
   round-trips, and retry-with-escalation. Every fault in the matrix
   (sat.oom, worker.raise, ckpt.torn, corpus.corrupt, backend.unknown)
   must yield a typed partial result or a clean error — never a crash. *)

module R = Resil.Budget
module F = Resil.Faultpoint
module C = Resil.Ckpt
module J = Util.Json
module N = Fannet.Noise
module B = Fannet.Backend

let with_clean_faults f =
  F.clear ();
  Fun.protect ~finally:F.clear f

let tmp_file suffix =
  Filename.temp_file "fannet-test-resil" suffix

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let tiny_qnet () =
  Nn.Qnet.create
    [|
      { Nn.Qnet.weights = [| [| 3; -2 |]; [| -1; 2 |] |]; bias = [| 1; 0 |]; act = Nn.Qnet.Relu };
      { Nn.Qnet.weights = [| [| 2; -1 |]; [| -1; 2 |] |]; bias = [| 0; 1 |]; act = Nn.Qnet.Identity };
    |]

let labelled_inputs net raw =
  Array.map (fun input -> (input, Nn.Qnet.predict net input)) raw

(* ---------- budget basics ---------- *)

let test_budget_unlimited () =
  let b = R.unlimited () in
  Alcotest.(check bool) "no reason" true (R.check b = None);
  Alcotest.(check bool) "not exhausted" false (R.exhausted b);
  Alcotest.(check bool) "why none" true (R.why b = None)

let test_budget_deadline () =
  let b = R.create ~timeout_s:0.0 () in
  (* The deadline is in the past as soon as the budget exists. *)
  Alcotest.(check bool) "fires" true (R.check b = Some R.Deadline);
  (* Sticky: the reason persists on later checks. *)
  Alcotest.(check bool) "sticky" true (R.check b = Some R.Deadline);
  Alcotest.(check bool) "why" true (R.why b = Some R.Deadline);
  Alcotest.(check bool) "exhausted" true (R.exhausted b)

let test_budget_cancel () =
  let tok = R.token () in
  let b = R.create ~token:tok () in
  Alcotest.(check bool) "before" true (R.check b = None);
  R.cancel tok;
  Alcotest.(check bool) "token fired" true (R.cancelled tok);
  Alcotest.(check bool) "after" true (R.check b = Some R.Cancelled);
  (* cancel is idempotent *)
  R.cancel tok;
  Alcotest.(check bool) "still cancelled" true (R.check b = Some R.Cancelled)

let test_budget_record_first_wins () =
  let b = R.unlimited () in
  R.record b R.Conflicts;
  R.record b R.Memory;
  Alcotest.(check bool) "first recorded reason wins" true (R.why b = Some R.Conflicts)

let test_budget_scale () =
  let tok = R.token () in
  let b = R.create ~timeout_s:0.0001 ~conflicts:100 ~token:tok () in
  Unix.sleepf 0.002;
  Alcotest.(check bool) "exhausted before scale" true (R.check b <> None);
  let b2 = R.scale ~by:2 b in
  (* A large factor restarts the deadline far enough in the future that
     the scaled budget reads as inside-budget, proving the reason was
     cleared and the clock restarted. *)
  let b3 = R.scale ~by:1000000 b in
  Alcotest.(check bool) "scaled conflicts" true (R.conflicts b2 = Some 200);
  Alcotest.(check bool) "reason cleared" true (R.why b3 = None);
  Alcotest.(check bool) "inside scaled budget" true (R.check b3 = None);
  (* Same token: cancelling the original stops the retry too. *)
  R.cancel tok;
  Alcotest.(check bool) "shared token" true (R.check b3 = Some R.Cancelled)

let test_reason_strings () =
  let pairs =
    [ (R.Deadline, "deadline"); (R.Conflicts, "conflicts"); (R.Memory, "memory");
      (R.Cancelled, "cancelled"); (R.Incomplete, "incomplete") ]
  in
  List.iter
    (fun (r, s) -> Alcotest.(check string) s s (R.reason_to_string r))
    pairs;
  Alcotest.(check bool) "deadline retryable" true (R.retryable R.Deadline);
  Alcotest.(check bool) "conflicts retryable" true (R.retryable R.Conflicts);
  Alcotest.(check bool) "memory retryable" true (R.retryable R.Memory);
  Alcotest.(check bool) "cancelled not retryable" false (R.retryable R.Cancelled);
  Alcotest.(check bool) "incomplete not retryable" false (R.retryable R.Incomplete)

(* A budget generous enough never to fire must cost < 2% of the
   robustness queries every analysis issues. Timing a budgeted run
   against a plain one drowns in solver noise, so the bound multiplies
   the measured cost of one Budget.check by the polls per run: the SAT
   loop polls every 64 conflicts plus twice per solve, and
   branch-and-bound every 64 boxes, bounded by a fixed slack of 100 (the
   small network explores at most a few hundred boxes per query). *)
let test_budget_check_overhead_contract () =
  let net = Fixture.small_qnet () in
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  let workload budget =
    List.iter
      (fun delta ->
        let spec = N.symmetric ~delta ~bias_noise:false in
        ignore (B.exists_flip ?budget B.Bnb net spec ~input ~label);
        ignore (B.exists_flip ?budget B.Smt net spec ~input ~label))
      [ 5; 12 ]
  in
  let time f =
    let t0 = Obs.Clock.now_ns () in
    f ();
    Obs.Clock.elapsed_s ~since:t0
  in
  let generous () = R.create ~timeout_s:1e6 ~max_mem_mb:1_000_000 () in
  let t_plain =
    List.fold_left min infinity (List.init 3 (fun _ -> time (fun () -> workload None)))
  in
  let iters = 200_000 in
  let b = generous () in
  let t_checks =
    time (fun () ->
        for _ = 1 to iters do
          ignore (R.check b)
        done)
  in
  let check_s = t_checks /. float_of_int iters in
  let polls =
    Fun.protect ~finally:(fun () ->
        Obs.Report.disable ();
        Obs.Report.reset ())
    @@ fun () ->
    Obs.Report.enable ();
    Obs.Report.reset ();
    workload (Some (generous ()));
    let cval name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
    (cval "sat.conflicts" / 64) + (2 * cval "sat.solves") + 100
  in
  let overhead_pct = 100. *. float_of_int polls *. check_s /. t_plain in
  if overhead_pct >= 2.0 then
    Alcotest.failf "budget-check overhead %.3f%% breaches the 2%% contract" overhead_pct

(* ---------- faultpoint ---------- *)

let test_faultpoint_arming () =
  with_clean_faults (fun () ->
      Alcotest.(check bool) "inert when unarmed" false (F.hit "sat.oom");
      F.arm "sat.oom,ckpt.torn";
      Alcotest.(check (list string)) "armed list" [ "ckpt.torn"; "sat.oom" ] (F.armed ());
      Alcotest.(check bool) "fires" true (F.hit "sat.oom");
      Alcotest.(check bool) "fires every hit" true (F.hit "sat.oom");
      Alcotest.(check bool) "other sites inert" false (F.hit "worker.raise");
      F.clear ();
      Alcotest.(check bool) "cleared" false (F.hit "sat.oom");
      Alcotest.(check (list string)) "empty after clear" [] (F.armed ()))

let test_faultpoint_nth_hit () =
  with_clean_faults (fun () ->
      F.arm "ckpt.torn@3";
      Alcotest.(check bool) "hit 1" false (F.hit "ckpt.torn");
      Alcotest.(check bool) "hit 2" false (F.hit "ckpt.torn");
      Alcotest.(check bool) "hit 3 fires" true (F.hit "ckpt.torn");
      Alcotest.(check bool) "hit 4" false (F.hit "ckpt.torn"))

let test_faultpoint_every_hit () =
  with_clean_faults (fun () ->
      F.arm "serve.worker.kill%3";
      let fired =
        List.init 9 (fun _ -> F.hit "serve.worker.kill")
      in
      Alcotest.(check (list bool))
        "fires on every 3rd hit"
        [ false; false; true; false; false; true; false; false; true ]
        fired;
      (* bad specs are rejected, not silently ignored *)
      Alcotest.(check bool) "bad spec rejected" true
        (try
           F.arm "serve.worker.kill%0";
           false
         with Invalid_argument _ -> true))

let test_faultpoint_guard () =
  with_clean_faults (fun () ->
      F.guard "worker.raise" (Failure "should not fire");
      F.arm "worker.raise";
      Alcotest.check_raises "guard raises when armed" (Failure "boom")
        (fun () -> F.guard "worker.raise" (Failure "boom")))

(* ---------- checkpoints ---------- *)

let test_ckpt_roundtrip () =
  let path = tmp_file ".ckpt" in
  let payload = J.Obj [ ("cursor", J.Int 42); ("found", J.List [ J.Int 1; J.Int 2 ]) ] in
  C.save ~kind:"extract" ~path payload;
  (match C.load_with ~kind:"extract" ~path J.Cursor.value with
  | Ok data -> Alcotest.(check bool) "payload round-trips" true (data = payload)
  | Error e -> Alcotest.fail ("load: " ^ e));
  Sys.remove path

let test_ckpt_kind_mismatch () =
  let path = tmp_file ".ckpt" in
  C.save ~kind:"extract" ~path (J.Int 1);
  (match C.load_with ~kind:"tolerance" ~path J.Cursor.value with
  | Ok _ -> Alcotest.fail "kind mismatch accepted"
  | Error e ->
      Alcotest.(check bool) "mentions path" true
        (String.length e >= String.length path));
  Sys.remove path

let test_ckpt_torn_write_detected () =
  with_clean_faults (fun () ->
      let path = tmp_file ".ckpt" in
      F.arm "ckpt.torn";
      C.save ~kind:"extract" ~path (J.Obj [ ("big", J.String (String.make 256 'x')) ]);
      F.clear ();
      (match C.load_with ~kind:"extract" ~path J.Cursor.value with
      | Ok _ -> Alcotest.fail "torn checkpoint accepted"
      | Error _ -> ());
      if Sys.file_exists path then Sys.remove path)

let test_ckpt_garbage_rejected () =
  let path = tmp_file ".ckpt" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "not a checkpoint at all\n");
  (match C.load_with ~kind:"extract" ~path J.Cursor.value with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* Valid footer syntax but corrupted checksum must also be rejected. *)
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{}\nfannet-ckpt/1 2 deadbeefdeadbeef\n");
  (match C.load_with ~kind:"extract" ~path J.Cursor.value with
  | Ok _ -> Alcotest.fail "bad checksum accepted"
  | Error _ -> ());
  Sys.remove path

let test_ckpt_missing_file () =
  match
    C.load_with ~kind:"extract" ~path:"/nonexistent/fannet-nope.ckpt"
      J.Cursor.value
  with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

let test_fnv1a64 () =
  (* Published FNV-1a 64-bit test vectors. *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (C.fnv1a64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (C.fnv1a64 "a")

(* ---------- solver: cancellation and session reuse ---------- *)

(* A small pigeonhole-style CNF with enough conflicts to observe budget
   polling: n+1 pigeons, n holes. *)
let pigeonhole s n =
  let module S = Sat.Solver in
  let v = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> S.new_var s)) in
  for p = 0 to n do
    S.add_clause s (List.init n (fun h -> Sat.Lit.make v.(p).(h) true))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        S.add_clause s
          [ Sat.Lit.make v.(p1).(h) false; Sat.Lit.make v.(p2).(h) false ]
      done
    done
  done

let test_solver_cancelled_session_reusable () =
  let module S = Sat.Solver in
  let s = S.create () in
  pigeonhole s 7;
  let tok = R.token () in
  R.cancel tok;
  let b = R.create ~token:tok () in
  (match S.solve ~budget:b s with
  | S.Unknown ->
      Alcotest.(check bool) "interrupt reason" true
        (S.last_interrupt s = Some R.Cancelled)
  | S.Sat | S.Unsat -> Alcotest.fail "cancelled solve decided");
  (* Same session, no budget: the query must still decide correctly. *)
  (match S.solve s with
  | S.Unsat -> ()
  | S.Sat -> Alcotest.fail "pigeonhole is unsat"
  | S.Unknown -> Alcotest.fail "unbudgeted solve returned unknown");
  Alcotest.(check bool) "interrupt cleared" true (S.last_interrupt s = None)

let test_solver_conflict_budget_then_reuse () =
  let module S = Sat.Solver in
  let s = S.create () in
  pigeonhole s 7;
  let b = R.create ~conflicts:5 () in
  (match S.solve ~budget:b s with
  | S.Unknown ->
      Alcotest.(check bool) "conflicts reason" true
        (S.last_interrupt s = Some R.Conflicts)
  | S.Sat -> Alcotest.fail "pigeonhole sat?"
  | S.Unsat -> Alcotest.fail "5 conflicts cannot close php(8,7)");
  Alcotest.(check bool) "budget recorded" true (R.why b = Some R.Conflicts);
  match S.solve s with
  | S.Unsat -> ()
  | S.Sat | S.Unknown -> Alcotest.fail "session unusable after budget stop"

let test_solver_oom_fault_typed () =
  with_clean_faults (fun () ->
      let module S = Sat.Solver in
      let s = S.create () in
      pigeonhole s 5;
      F.arm "sat.oom";
      let b = R.unlimited () in
      (match S.solve ~budget:b s with
      | S.Unknown ->
          Alcotest.(check bool) "memory reason" true
            (S.last_interrupt s = Some R.Memory);
          Alcotest.(check bool) "budget sees memory" true (R.why b = Some R.Memory)
      | S.Sat | S.Unsat -> Alcotest.fail "oom fault ignored");
      F.clear ();
      (* The injected OOM must leave the session reusable. *)
      match S.solve s with
      | S.Unsat -> ()
      | S.Sat | S.Unknown -> Alcotest.fail "session unusable after oom")

(* ---------- backends under budget and faults ---------- *)

let spec3 = N.symmetric ~delta:3 ~bias_noise:false

let test_backend_cancelled_unknown () =
  let net = tiny_qnet () in
  let input = [| 7; 11 |] in
  let label = Nn.Qnet.predict net input in
  let tok = R.token () in
  R.cancel tok;
  let b = R.create ~token:tok () in
  (* delta 25 gives the explicit enumerator 51^2 = 2601 vectors, past its
     per-1024-vector poll cadence, so every backend observes the token. *)
  let spec = N.symmetric ~delta:25 ~bias_noise:false in
  List.iter
    (fun backend ->
      match B.exists_flip ~budget:b backend net spec ~input ~label with
      | B.Unknown r ->
          Alcotest.(check bool)
            (B.to_string backend ^ " cancelled") true (r = R.Cancelled)
      | B.Robust | B.Flip _ ->
          Alcotest.fail (B.to_string backend ^ ": decided under cancelled budget"))
    [ B.Bnb; B.Smt; B.Explicit { limit = 1_000_000 }; B.Cascade B.Bnb ]

let test_backend_unknown_fault () =
  with_clean_faults (fun () ->
      let net = tiny_qnet () in
      let input = [| 7; 11 |] in
      let label = Nn.Qnet.predict net input in
      F.arm "backend.unknown";
      (match B.exists_flip B.Bnb net spec3 ~input ~label with
      | B.Unknown r -> Alcotest.(check bool) "incomplete" true (r = R.Incomplete)
      | B.Robust | B.Flip _ -> Alcotest.fail "fault ignored");
      F.clear ();
      match B.exists_flip B.Bnb net spec3 ~input ~label with
      | B.Unknown _ -> Alcotest.fail "unknown after clearing the fault"
      | B.Robust | B.Flip _ -> ())

let test_escalation_decides () =
  let net = tiny_qnet () in
  let input = [| 7; 11 |] in
  let label = Nn.Qnet.predict net input in
  (* At delta 40 a flip exists, so the interval backend is genuinely
     Incomplete (it can prove robustness but never produce a witness);
     escalation to branch-and-bound must then decide. *)
  let spec = N.symmetric ~delta:40 ~bias_noise:false in
  (match B.exists_flip B.Interval net spec ~input ~label with
  | B.Unknown r -> Alcotest.(check bool) "interval incomplete" true (r = R.Incomplete)
  | B.Robust | B.Flip _ -> Alcotest.fail "fixture: interval decided");
  match B.exists_flip_escalating ~attempts:1 B.Interval net spec ~input ~label with
  | B.Flip _ -> ()
  | B.Robust -> Alcotest.fail "escalated to a wrong verdict"
  | B.Unknown _ -> Alcotest.fail "escalation did not decide"

let test_escalation_never_retries_cancelled () =
  let net = tiny_qnet () in
  let input = [| 7; 11 |] in
  let label = Nn.Qnet.predict net input in
  let tok = R.token () in
  R.cancel tok;
  let b = R.create ~token:tok () in
  match B.exists_flip_escalating ~attempts:5 ~budget:b B.Bnb net spec3 ~input ~label with
  | B.Unknown r -> Alcotest.(check bool) "stays cancelled" true (r = R.Cancelled)
  | B.Robust | B.Flip _ -> Alcotest.fail "decided under cancelled budget"

(* ---------- analyses under a budget: one typed stop ---------- *)

let analysis_inputs net =
  labelled_inputs net [| [| 7; 11 |]; [| 20; 5 |]; [| 3; 30 |] |]

let cancelled_budget () =
  let tok = R.token () in
  R.cancel tok;
  R.create ~token:tok ()

(* One row per budget-aware analysis. [run ?jobs ?budget ()] answers a
   fixed query on [tiny_qnet]; sequential analyses ignore [jobs]. *)
type analysis =
  | Analysis : string * (?jobs:int -> ?budget:R.t -> unit -> 'a) -> analysis

let analyses () =
  let net = tiny_qnet () in
  let inputs = analysis_inputs net in
  let input, label = inputs.(0) in
  let spec = N.symmetric ~delta:10 ~bias_noise:false in
  [
    Analysis
      ( "misclassified_at",
        fun ?jobs ?budget () ->
          Fannet.Tolerance.misclassified_at ?jobs ?budget B.Bnb net
            ~bias_noise:false ~delta:20 ~inputs );
    Analysis
      ( "sweep",
        fun ?jobs ?budget () ->
          Fannet.Tolerance.sweep ?jobs ?budget B.Bnb net ~bias_noise:false
            ~deltas:[ 2; 10; 20 ] ~inputs );
    Analysis
      ( "network_tolerance",
        fun ?jobs ?budget () ->
          Fannet.Tolerance.network_tolerance ?jobs ?budget B.Bnb net
            ~bias_noise:false ~max_delta:20 ~inputs );
    Analysis
      ( "network_tolerance_ckpt",
        fun ?jobs:_ ?budget () ->
          let checkpoint = tmp_file ".ckpt" in
          Sys.remove checkpoint;
          Fun.protect
            ~finally:(fun () ->
              if Sys.file_exists checkpoint then Sys.remove checkpoint)
            (fun () ->
              Fannet.Tolerance.network_tolerance_ckpt ?budget ~checkpoint B.Bnb
                net ~bias_noise:false ~max_delta:20 ~inputs) );
    Analysis
      ( "certified_min_flip_delta",
        fun ?jobs:_ ?budget () ->
          Fannet.Tolerance.certified_min_flip_delta ?budget net
            ~bias_noise:false ~max_delta:4 ~input ~label );
    Analysis
      ( "input_min_flip_delta",
        fun ?jobs:_ ?budget () ->
          Fannet.Tolerance.input_min_flip_delta ?budget B.Bnb net
            ~bias_noise:false ~max_delta:20 ~input ~label );
    Analysis
      ( "input_min_flip_delta smt",
        fun ?jobs:_ ?budget () ->
          Fannet.Tolerance.input_min_flip_delta ?budget B.Smt net
            ~bias_noise:false ~max_delta:30 ~input ~label );
    Analysis
      ( "formal_sidedness",
        fun ?jobs ?budget () ->
          Fannet.Sensitivity.formal_sidedness ?jobs ?budget net spec ~inputs );
    Analysis
      ( "Boundary.analyze",
        fun ?jobs ?budget () ->
          Fannet.Boundary.analyze ?jobs ?budget B.Bnb net ~bias_noise:false
            ~max_delta:20 ~inputs );
    Analysis
      ( "Bnb.min_l1_flip",
        fun ?jobs:_ ?budget () ->
          Fannet.Bnb.min_l1_flip ?budget net spec ~input ~label );
  ]

let test_analyses_one_stop () =
  List.iter
    (fun (Analysis (name, run)) ->
      let plain = run () in
      Alcotest.(check bool)
        (name ^ ": no budget = unlimited budget") true
        (plain = run ~budget:(R.unlimited ()) ());
      Alcotest.(check bool)
        (name ^ ": jobs 1 = jobs 2") true
        (run ~jobs:1 () = run ~jobs:2 ());
      match run ~budget:(cancelled_budget ()) () with
      | exception R.Stopped r ->
          Alcotest.(check string) (name ^ ": stop reason") "cancelled"
            (R.reason_to_string r)
      | _ -> Alcotest.fail (name ^ ": decided under a cancelled budget"))
    (analyses ())

let test_tolerance_b_cancelled () =
  let net = tiny_qnet () in
  let inputs = analysis_inputs net in
  let tolerance ?budget () =
    Fannet.Tolerance.network_tolerance ?budget B.Bnb net ~bias_noise:false
      ~max_delta:20 ~inputs
  in
  (match tolerance ~budget:(cancelled_budget ()) () with
  | exception R.Stopped R.Cancelled -> ()
  | exception R.Stopped r -> Alcotest.fail ("wrong reason: " ^ R.reason_to_string r)
  | _ -> Alcotest.fail "tolerance decided under cancelled budget");
  match tolerance ~budget:(R.unlimited ()) () with
  | t -> Alcotest.(check int) "budgeted = unbudgeted" (tolerance ()) t
  | exception R.Stopped r ->
      Alcotest.fail ("unlimited budget exhausted: " ^ R.reason_to_string r)

let test_boundary_b_matches_legacy () =
  let net = tiny_qnet () in
  let inputs = analysis_inputs net in
  let analyze ?budget () =
    Fannet.Boundary.analyze ?budget B.Bnb net ~bias_noise:false ~max_delta:10
      ~inputs
  in
  let plain = analyze () in
  match analyze ~budget:(R.unlimited ()) () with
  | pts ->
      Alcotest.(check int) "same length" (Array.length plain) (Array.length pts);
      Array.iteri
        (fun i (p : Fannet.Boundary.point) ->
          Alcotest.(check bool) "same min flip" true
            (p.Fannet.Boundary.min_flip_delta
            = plain.(i).Fannet.Boundary.min_flip_delta))
        pts
  | exception R.Stopped r ->
      Alcotest.fail ("budgeted analyze failed: " ^ R.reason_to_string r)

(* A solver out of memory stops an unbudgeted analysis with the one
   public exception: never a module-private one, never a silent "no
   flip". *)
let test_oom_without_budget_is_typed () =
  with_clean_faults (fun () ->
      let net = tiny_qnet () in
      let inputs = analysis_inputs net in
      F.arm "sat.oom";
      let expect_memory name f =
        match f () with
        | exception R.Stopped r ->
            Alcotest.(check string) name "memory" (R.reason_to_string r)
        | _ -> Alcotest.fail (name ^ ": the injected OOM was not reported")
      in
      (* The first probe (±30) is satisfiable: a formula that is unsat
         at level 0 answers before the solver looks at the fault. *)
      let input, label = inputs.(0) in
      let search backend =
        Fannet.Tolerance.input_min_flip_delta backend net ~bias_noise:false
          ~max_delta:30 ~input ~label
      in
      Alcotest.(check bool) "±30 flips" true (search B.Bnb <> None);
      expect_memory "input_min_flip_delta smt" (fun () -> ignore (search B.Smt));
      expect_memory "sweep smt" (fun () ->
          ignore
            (Fannet.Tolerance.sweep B.Smt net ~bias_noise:false
               ~deltas:[ 5; 10 ] ~inputs)))

let test_worker_raise_is_clean () =
  with_clean_faults (fun () ->
      let net = tiny_qnet () in
      let inputs = analysis_inputs net in
      let tolerance () =
        Fannet.Tolerance.network_tolerance ~jobs:2 B.Bnb net ~bias_noise:false
          ~max_delta:10 ~inputs
      in
      let expected = tolerance () in
      F.arm "worker.raise";
      (match tolerance () with
      | exception Failure msg ->
          Alcotest.(check bool) "names the injected fault" true
            (contains msg "injected fault")
      | _ -> Alcotest.fail "the injected worker fault did not surface");
      F.clear ();
      (* The pool must still work after a worker raised. *)
      Alcotest.(check int) "pool works after the fault" expected (tolerance ()))

(* ---------- kill-and-resume round-trips ---------- *)

let cex_list_equal (a : Fannet.Extract.counterexample list)
    (b : Fannet.Extract.counterexample list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Fannet.Extract.counterexample) (y : Fannet.Extract.counterexample) ->
         x.Fannet.Extract.input_index = y.Fannet.Extract.input_index
         && x.Fannet.Extract.true_label = y.Fannet.Extract.true_label
         && x.Fannet.Extract.predicted = y.Fannet.Extract.predicted
         && x.Fannet.Extract.vector.N.bias = y.Fannet.Extract.vector.N.bias
         && x.Fannet.Extract.vector.N.inputs = y.Fannet.Extract.vector.N.inputs)
       a b

let test_extract_checkpoint_resume_equals_uninterrupted () =
  let net = tiny_qnet () in
  let input = [| 7; 11 |] in
  let label = Nn.Qnet.predict net input in
  let spec = N.symmetric ~delta:40 ~bias_noise:false in
  let uninterrupted, status =
    Fannet.Extract.for_input net spec ~input ~label ~input_index:0
  in
  Alcotest.(check bool) "baseline complete" true (status = Fannet.Extract.Complete);
  Alcotest.(check bool) "workload is non-trivial" true (List.length uninterrupted > 10);
  let path = tmp_file ".ckpt" in
  Sys.remove path;
  (* Simulate a run that keeps getting killed: every attempt gets an
     already-expired deadline except for a slowly growing slice, until
     one attempt completes from the checkpoint. The final corpus must be
     bit-identical to the uninterrupted one. *)
  let finished = ref None in
  let attempts = ref 0 in
  while !finished = None && !attempts < 500 do
    incr attempts;
    let budget = R.create ~timeout_s:(0.0005 *. float_of_int !attempts) () in
    let cexs, status =
      Fannet.Extract.for_input ~budget ~checkpoint:path net spec ~input ~label
        ~input_index:0
    in
    match status with
    | Fannet.Extract.Complete -> finished := Some cexs
    | Fannet.Extract.Truncated -> Alcotest.fail "unexpected truncation"
    | Fannet.Extract.Budget _ -> ()
  done;
  (match !finished with
  | None -> Alcotest.fail "never completed under repeated kills"
  | Some resumed ->
      Alcotest.(check int) "same count" (List.length uninterrupted)
        (List.length resumed);
      Alcotest.(check bool) "identical corpus, identical order" true
        (cex_list_equal uninterrupted resumed));
  Alcotest.(check bool) "checkpoint removed on completion" false
    (Sys.file_exists path)

(* The pipeline's input 19 at +-15 %: a 10,000-vector corpus over a
   walk of thousands of boxes. Short deadlines stop it many times, each
   stop saves the cursor and the corpus so far, and the run that
   finishes must hand back the uninterrupted corpus. *)
let test_extract_pipeline_resume_under_deadlines () =
  let p = Fannet.Pipeline.run () in
  let input, label = (Fannet.Pipeline.analysis_inputs p).(19) in
  let net = p.Fannet.Pipeline.qnet in
  let spec = N.symmetric ~delta:15 ~bias_noise:true in
  let uninterrupted, status =
    Fannet.Extract.for_input net spec ~input ~label ~input_index:19
  in
  Alcotest.(check bool) "baseline truncated at the limit" true
    (status = Fannet.Extract.Truncated);
  let path = tmp_file ".ckpt" in
  Sys.remove path;
  let finished = ref None and stops = ref 0 in
  while !finished = None && !stops < 2_000 do
    let budget = R.create ~timeout_s:(0.0002 *. float_of_int (!stops + 1)) () in
    match
      Fannet.Extract.for_input ~budget ~checkpoint:path net spec ~input ~label
        ~input_index:19
    with
    | cexs, Fannet.Extract.Truncated -> finished := Some cexs
    | _, Fannet.Extract.Complete -> Alcotest.fail "unexpected completion"
    | _, Fannet.Extract.Budget _ -> incr stops
  done;
  (match !finished with
  | None -> Alcotest.fail "never finished under repeated deadlines"
  | Some resumed ->
      Alcotest.(check bool) "stopped and resumed several times" true (!stops >= 2);
      Alcotest.(check bool) "identical corpus, identical order" true
        (cex_list_equal uninterrupted resumed));
  Alcotest.(check bool) "checkpoint removed on completion" false
    (Sys.file_exists path)

let test_extract_checkpoint_survives_torn_write () =
  with_clean_faults (fun () ->
      let net = tiny_qnet () in
      let input = [| 7; 11 |] in
      let label = Nn.Qnet.predict net input in
      let spec = N.symmetric ~delta:30 ~bias_noise:false in
      let uninterrupted, _ =
        Fannet.Extract.for_input net spec ~input ~label ~input_index:0
      in
      let path = tmp_file ".ckpt" in
      Sys.remove path;
      (* First checkpoint write is torn; the next run must detect the
         damage, warn, start fresh, and still converge to the same
         corpus. *)
      F.arm "ckpt.torn@1";
      let budget = R.create ~timeout_s:0.0 () in
      let _, status =
        Fannet.Extract.for_input ~budget ~checkpoint:path net spec ~input ~label
          ~input_index:0
      in
      Alcotest.(check bool) "first run stopped" true
        (match status with Fannet.Extract.Budget _ -> true | _ -> false);
      F.clear ();
      let resumed, status =
        Fannet.Extract.for_input ~checkpoint:path net spec ~input ~label
          ~input_index:0
      in
      Alcotest.(check bool) "completes despite torn checkpoint" true
        (status = Fannet.Extract.Complete);
      Alcotest.(check bool) "corpus identical" true
        (cex_list_equal uninterrupted resumed);
      if Sys.file_exists path then Sys.remove path)

let test_extract_checkpoint_query_mismatch () =
  let net = tiny_qnet () in
  let input = [| 7; 11 |] in
  let label = Nn.Qnet.predict net input in
  let spec = N.symmetric ~delta:8 ~bias_noise:false in
  let path = tmp_file ".ckpt" in
  Sys.remove path;
  let budget = R.create ~timeout_s:0.0 () in
  let _ =
    Fannet.Extract.for_input ~budget ~checkpoint:path net spec ~input ~label
      ~input_index:0
  in
  Alcotest.(check bool) "checkpoint persisted on budget stop" true
    (Sys.file_exists path);
  let other_spec = N.symmetric ~delta:9 ~bias_noise:false in
  Alcotest.(check bool) "different query rejected" true
    (match
       Fannet.Extract.for_input ~checkpoint:path net other_spec ~input ~label
         ~input_index:0
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Sys.remove path

let test_tolerance_checkpoint_resume () =
  let net = tiny_qnet () in
  let inputs = analysis_inputs net in
  let legacy =
    Fannet.Tolerance.network_tolerance B.Bnb net ~bias_noise:false ~max_delta:25
      ~inputs
  in
  let path = tmp_file ".ckpt" in
  Sys.remove path;
  let finished = ref None in
  let attempts = ref 0 in
  while !finished = None && !attempts < 500 do
    incr attempts;
    let budget = R.create ~timeout_s:(0.0005 *. float_of_int !attempts) () in
    match
      Fannet.Tolerance.network_tolerance_ckpt ~budget ~checkpoint:path B.Bnb net
        ~bias_noise:false ~max_delta:25 ~inputs
    with
    | t -> finished := Some t
    | exception R.Stopped _ -> ()
  done;
  (match !finished with
  | None -> Alcotest.fail "tolerance never completed under repeated kills"
  | Some t -> Alcotest.(check int) "resumed = uninterrupted" legacy t);
  Alcotest.(check bool) "checkpoint removed" false (Sys.file_exists path)

(* Runs [f] with stderr sent to a file; returns its result and what it
   wrote there. *)
let with_stderr_captured f =
  let path = tmp_file ".err" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (r, text)

let test_tolerance_checkpoint_malformed_ignored () =
  (* A checkpoint whose footer checks out but whose payload is not a
     tolerance state is warned about and the run starts over. *)
  let net = tiny_qnet () in
  let inputs = analysis_inputs net in
  let legacy =
    Fannet.Tolerance.network_tolerance B.Bnb net ~bias_noise:false ~max_delta:25
      ~inputs
  in
  List.iter
    (fun (what, data) ->
      let path = tmp_file ".ckpt" in
      C.save_string ~kind:"tolerance" ~path data;
      let t, err =
        with_stderr_captured (fun () ->
            Fannet.Tolerance.network_tolerance_ckpt ~checkpoint:path B.Bnb net
              ~bias_noise:false ~max_delta:25 ~inputs)
      in
      Alcotest.(check int) (what ^ ": answer as without a checkpoint") legacy t;
      Alcotest.(check bool) (what ^ ": warned") true
        (contains err "malformed tolerance checkpoint payload"
        && contains err "ignoring the checkpoint");
      Alcotest.(check bool) (what ^ ": checkpoint removed") false
        (Sys.file_exists path))
    [
      ("lo > hi", {|{"key":"k","results":[],"cur":{"lo":9,"hi":2}}|});
      ("non-integer result", {|{"key":"k","results":[3,1.5],"cur":null}|});
    ]

(* ---------- lenient corpus loading ---------- *)

let mini_corpus_cases () =
  let net = tiny_qnet () in
  let input = [| 7; 11 |] in
  let label = Nn.Qnet.predict net input in
  [
    { Check.Case.id = 0; seed = 101; net; input; label;
      spec = N.symmetric ~delta:1 ~bias_noise:false };
    { Check.Case.id = 1; seed = 102; net; input; label;
      spec = N.symmetric ~delta:2 ~bias_noise:false };
  ]

let test_lenient_load_good_corpus () =
  let path = tmp_file ".json" in
  Check.Case.save_corpus path ~seed:7 (mini_corpus_cases ());
  (match Check.Case.load_corpus_lenient path with
  | Ok { Check.Case.corpus_seed; good; bad } ->
      Alcotest.(check int) "seed" 7 corpus_seed;
      Alcotest.(check int) "all good" 2 (List.length good);
      Alcotest.(check int) "no bad" 0 (List.length bad)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_lenient_load_skips_bad_cases () =
  let path = tmp_file ".json" in
  let cases = mini_corpus_cases () in
  (* Hand-build an envelope whose middle case is malformed. *)
  let json =
    J.Obj
      [
        ("format", J.String "fannet-fuzz-corpus");
        ("version", J.Int 1);
        ("seed", J.Int 7);
        ( "cases",
          J.List
            [
              Check.Case.to_json (List.nth cases 0);
              J.Obj [ ("id", J.Int 1) ];
              Check.Case.to_json (List.nth cases 1);
            ] );
      ]
  in
  J.write_file path json;
  (match Check.Case.load_corpus_lenient path with
  | Ok { Check.Case.good; bad; _ } ->
      Alcotest.(check int) "two good" 2 (List.length good);
      Alcotest.(check int) "one bad" 1 (List.length bad);
      let idx, msg = List.hd bad in
      Alcotest.(check int) "bad index" 1 idx;
      Alcotest.(check bool) "message names the file" true (contains msg path)
  | Error e -> Alcotest.fail e);
  (* The strict loader must refuse the same file. *)
  (match Check.Case.load_corpus path with
  | Ok _ -> Alcotest.fail "strict loader accepted a damaged corpus"
  | Error _ -> ());
  Sys.remove path

let test_lenient_load_corrupt_fault () =
  with_clean_faults (fun () ->
      let path = tmp_file ".json" in
      Check.Case.save_corpus path ~seed:7 (mini_corpus_cases ());
      F.arm "corpus.corrupt";
      (match Check.Case.load_corpus_lenient path with
      | Ok _ -> Alcotest.fail "truncated corpus accepted"
      | Error e ->
          Alcotest.(check bool) "error names the file" true (contains e path);
          Alcotest.(check bool) "error reports a byte offset" true (contains e "byte"));
      F.clear ();
      (match Check.Case.load_corpus_lenient path with
      | Ok { Check.Case.good; _ } -> Alcotest.(check int) "intact again" 2 (List.length good)
      | Error e -> Alcotest.fail e);
      Sys.remove path)

(* ---------- parallel map_until ---------- *)

let test_map_until_complete_matches_map () =
  let xs = Array.init 50 (fun i -> i) in
  match Util.Parallel.map_until ~jobs:4 ~stop:(fun () -> false) (fun _ x -> x * x) xs with
  | Ok ys -> Alcotest.(check (array int)) "squares" (Array.map (fun x -> x * x) xs) ys
  | Error () -> Alcotest.fail "stopped without a stop signal"

let test_map_until_stops () =
  let xs = Array.init 1000 (fun i -> i) in
  match Util.Parallel.map_until ~jobs:4 ~stop:(fun () -> true) (fun _ x -> x) xs with
  | Ok _ -> Alcotest.fail "ignored the stop signal"
  | Error () -> ()

(* ---------- no leaked domains ---------- *)

let test_no_leaked_domains () =
  (* After everything above — cancelled solves, injected faults, killed
     checkpointed runs — re-running a parallel analysis must still work,
     which it cannot if worker domains leaked or the pool wedged. *)
  let net = tiny_qnet () in
  let inputs = analysis_inputs net in
  let t1 =
    Fannet.Tolerance.network_tolerance ~jobs:4 B.Bnb net ~bias_noise:false
      ~max_delta:10 ~inputs
  in
  let t2 =
    Fannet.Tolerance.network_tolerance ~jobs:4 B.Bnb net ~bias_noise:false
      ~max_delta:10 ~inputs
  in
  Alcotest.(check int) "deterministic across pools" t1 t2

let () =
  Alcotest.run "resil"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "cancel" `Quick test_budget_cancel;
          Alcotest.test_case "first reason wins" `Quick test_budget_record_first_wins;
          Alcotest.test_case "scale" `Quick test_budget_scale;
          Alcotest.test_case "reason vocabulary" `Quick test_reason_strings;
          Alcotest.test_case "modelled check overhead < 2%" `Quick
            test_budget_check_overhead_contract;
        ] );
      ( "faultpoint",
        [
          Alcotest.test_case "arming" `Quick test_faultpoint_arming;
          Alcotest.test_case "nth hit" `Quick test_faultpoint_nth_hit;
          Alcotest.test_case "every kth hit" `Quick test_faultpoint_every_hit;
          Alcotest.test_case "guard" `Quick test_faultpoint_guard;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_ckpt_roundtrip;
          Alcotest.test_case "kind mismatch" `Quick test_ckpt_kind_mismatch;
          Alcotest.test_case "torn write detected" `Quick test_ckpt_torn_write_detected;
          Alcotest.test_case "garbage rejected" `Quick test_ckpt_garbage_rejected;
          Alcotest.test_case "missing file" `Quick test_ckpt_missing_file;
          Alcotest.test_case "fnv1a64 vectors" `Quick test_fnv1a64;
        ] );
      ( "solver",
        [
          Alcotest.test_case "cancelled session reusable" `Quick
            test_solver_cancelled_session_reusable;
          Alcotest.test_case "conflict budget then reuse" `Quick
            test_solver_conflict_budget_then_reuse;
          Alcotest.test_case "oom fault typed" `Quick test_solver_oom_fault_typed;
        ] );
      ( "backend",
        [
          Alcotest.test_case "cancelled -> Unknown" `Quick test_backend_cancelled_unknown;
          Alcotest.test_case "backend.unknown fault" `Quick test_backend_unknown_fault;
          Alcotest.test_case "escalation decides" `Quick test_escalation_decides;
          Alcotest.test_case "cancelled never retried" `Quick
            test_escalation_never_retries_cancelled;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "one stop per analysis" `Quick test_analyses_one_stop;
          Alcotest.test_case "oom without budget is typed" `Quick
            test_oom_without_budget_is_typed;
          Alcotest.test_case "tolerance_b cancelled" `Quick test_tolerance_b_cancelled;
          Alcotest.test_case "worker.raise is clean" `Quick test_worker_raise_is_clean;
          Alcotest.test_case "boundary_b = legacy" `Quick test_boundary_b_matches_legacy;
        ] );
      ( "resume",
        [
          Alcotest.test_case "extract kill-and-resume" `Quick
            test_extract_checkpoint_resume_equals_uninterrupted;
          Alcotest.test_case "extract pipeline resume under deadlines" `Quick
            test_extract_pipeline_resume_under_deadlines;
          Alcotest.test_case "extract torn checkpoint" `Quick
            test_extract_checkpoint_survives_torn_write;
          Alcotest.test_case "extract query mismatch" `Quick
            test_extract_checkpoint_query_mismatch;
          Alcotest.test_case "tolerance kill-and-resume" `Quick
            test_tolerance_checkpoint_resume;
          Alcotest.test_case "tolerance malformed checkpoint ignored" `Quick
            test_tolerance_checkpoint_malformed_ignored;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "lenient good" `Quick test_lenient_load_good_corpus;
          Alcotest.test_case "lenient skips bad" `Quick test_lenient_load_skips_bad_cases;
          Alcotest.test_case "corpus.corrupt fault" `Quick test_lenient_load_corrupt_fault;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map_until complete" `Quick test_map_until_complete_matches_map;
          Alcotest.test_case "map_until stops" `Quick test_map_until_stops;
          Alcotest.test_case "no leaked domains" `Quick test_no_leaked_domains;
        ] );
    ]
