(* Tests for lib/count: exact cube-decomposition counting against brute
   force, certificate validation and tamper rejection, free-variable
   factoring, overflow-safe huge spaces, plain = certified counts on a
   network, the (ε, δ) envelope of the approximate counter and its
   tight-ε exact short-circuit, the root-first decomposition (a robust
   root is one refutation, a small root one enumeration, a large mixed
   root the fixed top split), jobs determinism (including certificate
   bytes), and checkpoint interrupt/resume. *)

module T = Smtlite.Term
module B = Util.Bigcount
module N = Fannet.Noise

let bigcount = Alcotest.testable (Fmt.of_to_string B.to_string) B.equal

(* ---------- brute force ---------- *)

(* Count assignments of [vars] satisfying [f] by explicit enumeration. *)
let brute f vars =
  let rec go asn = function
    | [] -> if T.eval_formula asn f then 1 else 0
    | (v : T.var) :: rest ->
        let acc = ref 0 in
        for x = v.T.lo to v.T.hi do
          acc := !acc + go ((v, x) :: asn) rest
        done;
        !acc
  in
  go [] vars

(* Brute-force flip count for a fuzz case. *)
let brute_flips (c : Check.Case.t) =
  let n = ref 0 in
  N.iter_vectors c.spec ~n_inputs:(Array.length c.input) (fun v ->
      if N.predict c.net c.spec ~input:c.input v <> c.label then incr n);
  !n

let cases ~n ~seed = Check.Gen.corpus ~seed ~cases:n ~max_explicit:300

(* ---------- exact counting ---------- *)

let test_exact_vs_brute () =
  List.iter
    (fun (c : Check.Case.t) ->
      let r =
        Fannet.Robustness.probability c.net c.spec ~input:c.input
          ~label:c.label
      in
      Alcotest.check bigcount
        (Printf.sprintf "case %d flip count" c.id)
        (B.of_int (brute_flips c)) r.Fannet.Robustness.flips;
      Alcotest.check bigcount
        (Printf.sprintf "case %d total" c.id)
        (N.spec_count c.spec ~n_inputs:(Array.length c.input))
        r.Fannet.Robustness.total;
      Alcotest.(check bool) "decided" true (r.Fannet.Robustness.status = Ok ()))
    (cases ~n:12 ~seed:41)

let test_exact_synthetic () =
  (* Structured formulas where the truth is arithmetic, not enumeration. *)
  let x = T.var ~name:"x" ~lo:0 ~hi:63 in
  let y = T.var ~name:"y" ~lo:0 ~hi:63 in
  let f = T.le (T.of_var x) (T.of_var y) in
  let r = Count.Exact.count f ~project:[ x; y ] in
  Alcotest.check bigcount "x<=y over 64x64" (B.of_int (64 * 65 / 2))
    r.Count.Exact.count;
  Alcotest.check bigcount "total" (B.of_int (64 * 64)) r.Count.Exact.total;
  let g = T.and_ [ T.le (T.const 10) (T.of_var x); T.le (T.of_var x) (T.const 20) ] in
  let r = Count.Exact.count g ~project:[ x ] in
  Alcotest.check bigcount "interval" (B.of_int 11) r.Count.Exact.count

let test_free_variable_factoring () =
  (* y never occurs in the formula: it must be factored out, not split. *)
  let x = T.var ~name:"x" ~lo:0 ~hi:9 in
  let y = T.var ~name:"y" ~lo:(-5) ~hi:6 in
  let f = T.le (T.of_var x) (T.const 3) in
  let r = Count.Exact.count f ~project:[ x; y ] in
  Alcotest.check bigcount "4 * 12 free width" (B.of_int (4 * 12))
    r.Count.Exact.count;
  Alcotest.(check int) "brute agrees" (4 * 12) (brute f [ x; y ]);
  match r.Count.Exact.certificate with
  | None -> Alcotest.fail "certificate missing"
  | Some cert ->
      Alcotest.(check (result unit string))
        "factored certificate validates" (Ok ())
        (Count.Certificate.check f ~project:[ x; y ] cert)

let test_huge_space () =
  (* Five free variables of width 100_000: 10^25 points, beyond int. *)
  let vars =
    List.init 5 (fun i ->
        T.var ~name:(Printf.sprintf "h%d" i) ~lo:1 ~hi:100_000)
  in
  let r = Count.Exact.count T.tru ~project:vars in
  (match r.Count.Exact.count with
  | B.Huge l ->
      Alcotest.(check bool)
        "log2 near 25 * log2(1e5)" true
        (abs_float (l -. (5.0 *. (log (1e5) /. log 2.0))) < 0.01)
  | B.Exact _ -> Alcotest.fail "expected a saturated count");
  Alcotest.check bigcount "tru counts the whole space" r.Count.Exact.total
    r.Count.Exact.count;
  (match r.Count.Exact.certificate with
  | None -> Alcotest.fail "certificate missing"
  | Some cert ->
      Alcotest.(check (result unit string))
        "huge certificate validates" (Ok ())
        (Count.Certificate.check T.tru ~project:vars cert));
  let r = Count.Exact.count T.fls ~project:vars in
  Alcotest.check bigcount "fls counts nothing" B.zero r.Count.Exact.count;
  match r.Count.Exact.certificate with
  | None -> Alcotest.fail "certificate missing"
  | Some cert ->
      Alcotest.(check (result unit string))
        "empty certificate validates" (Ok ())
        (Count.Certificate.check T.fls ~project:vars cert)

(* ---------- certificates ---------- *)

let certified_case () =
  let c = List.nth (cases ~n:8 ~seed:43) 5 in
  let r =
    Fannet.Robustness.probability
      ~mode:(Fannet.Robustness.Exact_mode { certify = true })
      c.net c.spec ~input:c.input ~label:c.label
  in
  (c, r)

let test_certificate_validates () =
  let c, r = certified_case () in
  match r.Fannet.Robustness.certificate with
  | None -> Alcotest.fail "certificate missing"
  | Some cert ->
      Alcotest.(check (result unit string))
        "re-validates against the query" (Ok ())
        (Fannet.Robustness.check_certificate c.net c.spec ~input:c.input
           ~label:c.label cert)

let test_certificate_roundtrip_deterministic () =
  let c, r = certified_case () in
  match r.Fannet.Robustness.certificate with
  | None -> Alcotest.fail "certificate missing"
  | Some cert -> (
      let bytes = Util.Json.to_string (Count.Certificate.to_json cert) in
      match Count.Certificate.of_string bytes with
      | Error e -> Alcotest.fail ("roundtrip: " ^ e)
      | Ok cert' ->
          Alcotest.(check string)
            "re-encoding is byte-identical" bytes
            (Util.Json.to_string (Count.Certificate.to_json cert'));
          Alcotest.(check (result unit string))
            "roundtripped certificate validates" (Ok ())
            (Fannet.Robustness.check_certificate c.net c.spec ~input:c.input
               ~label:c.label cert'))

let test_certificate_tamper_rejected () =
  let c, r = certified_case () in
  match r.Fannet.Robustness.certificate with
  | None -> Alcotest.fail "certificate missing"
  | Some cert ->
      let check cert =
        Fannet.Robustness.check_certificate c.net c.spec ~input:c.input
          ~label:c.label cert
      in
      (* Lie about the total. *)
      let lied =
        { cert with Count.Certificate.count = B.add cert.Count.Certificate.count B.one }
      in
      (match check lied with
      | Ok () -> Alcotest.fail "inflated count accepted"
      | Error _ -> ());
      (* Drop a cube: the partition no longer covers the space. *)
      (match cert.Count.Certificate.entries with
      | [] -> ()  (* zero-dim certificate; nothing to drop *)
      | _ :: rest -> (
          match check { cert with Count.Certificate.entries = rest } with
          | Ok () -> Alcotest.fail "missing cube accepted"
          | Error _ -> ()))

(* Counts the flips of the shared small network at input (112, 87). *)
let count_small_net ~delta mode =
  let net = Fixture.small_qnet () in
  let input = [| 112; 87 |] in
  Fannet.Robustness.probability ~mode net
    (N.symmetric ~delta ~bias_noise:false)
    ~input ~label:(Nn.Qnet.predict net input)

(* (unsat, full, enumerated, witnesses) cube tallies of a certificate. *)
let cube_kinds (cert : Count.Certificate.t) =
  List.fold_left
    (fun (u, f, e, w) (en : Count.Certificate.entry) ->
      match en.Count.Certificate.proof with
      | Count.Certificate.Unsat_cube _ -> (u + 1, f, e, w)
      | Count.Certificate.Full_cube _ -> (u, f + 1, e, w)
      | Count.Certificate.Enum_cube { witnesses; _ } ->
          (u, f, e + 1, w + List.length witnesses))
    (0, 0, 0, 0) cert.Count.Certificate.entries

let kinds = Alcotest.(pair (pair int int) (pair int int))

let check_kinds what (u, f, e, w) cert =
  let u', f', e', w' = cube_kinds cert in
  Alcotest.check kinds what ((u, f), (e, w)) ((u', f'), (e', w'))

let certificate_of what (r : Fannet.Robustness.report) =
  match r.Fannet.Robustness.certificate with
  | Some c -> c
  | None -> Alcotest.failf "%s: certificate missing" what

let test_robust_root_one_refutation () =
  (* (50, 50) is robust at ±1: the root cube is UNSAT, so the certified
     count is the single refutation a certified decision would make. *)
  let net = Fixture.small_qnet () in
  let input = [| 50; 50 |] in
  let spec = N.symmetric ~delta:1 ~bias_noise:false in
  let label = Nn.Qnet.predict net input in
  let r =
    Fannet.Robustness.probability
      ~mode:(Fannet.Robustness.Exact_mode { certify = true })
      net spec ~input ~label
  in
  Alcotest.check bigcount "no flips" B.zero r.Fannet.Robustness.flips;
  Alcotest.(check int) "one solver call" 1 r.Fannet.Robustness.solver_calls;
  let cert = certificate_of "robust root" r in
  check_kinds "one unsat cube" (1, 0, 0, 0) cert;
  Alcotest.(check (result unit string))
    "certificate validates" (Ok ())
    (Fannet.Robustness.check_certificate net spec ~input ~label cert)

let test_small_root_enumerated () =
  (* The ±1 space at (112, 87) has 9 points, fewer than the enumeration
     limit: the root is enumerated whole instead of split into points. *)
  let r =
    count_small_net ~delta:1 (Fannet.Robustness.Exact_mode { certify = true })
  in
  Alcotest.check bigcount "one flip" B.one r.Fannet.Robustness.flips;
  check_kinds "one enumerated cube" (0, 0, 1, 1)
    (certificate_of "small root" r)

let test_network_plain_equals_certified () =
  List.iter
    (fun delta ->
      let count = count_small_net ~delta in
      let plain = count (Fannet.Robustness.Exact_mode { certify = false }) in
      let certified = count (Fannet.Robustness.Exact_mode { certify = true }) in
      Alcotest.check bigcount
        (Printf.sprintf "delta %d: certified = plain" delta)
        plain.Fannet.Robustness.flips certified.Fannet.Robustness.flips;
      Alcotest.(check bool)
        (Printf.sprintf "delta %d: certificate produced" delta)
        true
        (certified.Fannet.Robustness.certificate <> None))
    [ 3; 5 ]

(* ---------- approximate counting ---------- *)

let test_approx_tight_epsilon_network () =
  (* Tight ε must short-circuit to the exact flip count. *)
  let count = count_small_net ~delta:3 in
  let exact = count (Fannet.Robustness.Exact_mode { certify = false }) in
  let tight =
    count (Fannet.Robustness.Approx_mode { epsilon = 0.1; delta = 0.2; seed = 1 })
  in
  Alcotest.check bigcount "tight-ε approx = exact" exact.Fannet.Robustness.flips
    tight.Fannet.Robustness.flips

let test_approx_pinned_seed_envelope () =
  (* 2080 models out of 4096 force XOR rounds at ε = 0.8; seed 3 is
     pinned, so this is a deterministic regression gate on the (ε, δ)
     guarantee, not a statistical check. *)
  let x = T.var ~name:"bx" ~lo:0 ~hi:63 in
  let y = T.var ~name:"by" ~lo:0 ~hi:63 in
  let f = T.le (T.of_var x) (T.of_var y) in
  let truth = float_of_int (64 * 65 / 2) and epsilon = 0.8 in
  let a = Count.Approx.count ~epsilon ~delta:0.2 ~seed:3 f ~project:[ x; y ] in
  let est = B.ratio a.Count.Approx.estimate B.one in
  if est < truth /. (1. +. epsilon) || est > truth *. (1. +. epsilon) then
    Alcotest.failf "estimate %.0f outside the (0.80, 0.20) envelope of %.0f" est truth

let test_approx_exact_shortcut () =
  (* Space no bigger than the pivot: the counter must short-circuit to a
     deterministic exact answer, whatever the seed. *)
  let x = T.var ~name:"x" ~lo:0 ~hi:29 in
  let f = T.le (T.of_var x) (T.const 17) in
  List.iter
    (fun seed ->
      let r = Count.Approx.count ~seed f ~project:[ x ] in
      Alcotest.(check bool) "exact shortcut" true r.Count.Approx.exact;
      Alcotest.check bigcount "exact value" (B.of_int 18)
        r.Count.Approx.estimate)
    [ 0; 1; 42 ]

let test_approx_envelope () =
  (* 528 models out of 1024 — well above the ε=0.8 pivot of 50, so the
     XOR path is exercised. With δ=0.2 each seed fails with probability
     at most 0.2; 9 failures in 20 pinned seeds would be a ~3-sigma
     excursion. The seeds are pinned, so this is deterministic in CI. *)
  let x = T.var ~name:"x" ~lo:0 ~hi:31 in
  let y = T.var ~name:"y" ~lo:0 ~hi:31 in
  let f = T.le (T.of_var x) (T.of_var y) in
  let truth = float_of_int (brute f [ x; y ]) in
  let epsilon = 0.8 in
  let failures = ref 0 and rounds_seen = ref 0 in
  for seed = 0 to 19 do
    let r = Count.Approx.count ~epsilon ~delta:0.2 ~seed f ~project:[ x; y ] in
    Alcotest.(check bool) "not the shortcut" false r.Count.Approx.exact;
    Alcotest.(check bool) "decided" true (r.Count.Approx.status = Count.Exact.Decided);
    rounds_seen := !rounds_seen + r.Count.Approx.rounds;
    let est =
      match r.Count.Approx.estimate with
      | B.Exact n -> float_of_int n
      | B.Huge l -> 2.0 ** l
    in
    if est < truth /. (1.0 +. epsilon) || est > truth *. (1.0 +. epsilon) then
      incr failures
  done;
  Alcotest.(check bool)
    (Printf.sprintf "within (1+ε) on >= 11/20 seeds (failed %d)" !failures)
    true (!failures <= 9);
  Alcotest.(check bool) "rounds actually ran" true (!rounds_seen > 0)

let test_approx_deterministic_per_seed () =
  let x = T.var ~name:"x" ~lo:0 ~hi:31 in
  let y = T.var ~name:"y" ~lo:0 ~hi:31 in
  let f = T.le (T.of_var x) (T.of_var y) in
  let run seed = (Count.Approx.count ~seed f ~project:[ x; y ]).Count.Approx.estimate in
  Alcotest.check bigcount "same seed, same estimate" (run 3) (run 3)

let test_approx_rejects_bad_parameters () =
  (* ε = 0, negative, or NaN and δ outside (0, 1) must be rejected up
     front with a typed Invalid_argument — not fed into the XOR round
     computation, where ε = 0 divides by zero and a NaN δ silently
     passes positive-form comparisons. *)
  let x = T.var ~name:"x" ~lo:0 ~hi:7 in
  let f = T.ge (T.of_var x) (T.const 0) in
  let expect_invalid name run =
    match run () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  List.iter
    (fun epsilon ->
      expect_invalid
        (Printf.sprintf "epsilon %f" epsilon)
        (fun () -> Count.Approx.count ~epsilon f ~project:[ x ]))
    [ 0.0; -1.0; Float.nan ];
  List.iter
    (fun delta ->
      expect_invalid
        (Printf.sprintf "delta %f" delta)
        (fun () -> Count.Approx.count ~delta f ~project:[ x ]))
    [ 0.0; 1.0; -0.5; 1.5; Float.nan ];
  (* The boundary-legal parameters still work. *)
  let r = Count.Approx.count ~epsilon:0.1 ~delta:0.99 f ~project:[ x ] in
  Alcotest.(check bool) "legal parameters accepted" true
    (r.Count.Approx.status = Count.Exact.Decided)

(* ---------- parallel determinism ---------- *)

let test_jobs_determinism () =
  let c = List.nth (cases ~n:8 ~seed:47) 2 in
  let run jobs =
    Fannet.Robustness.probability
      ~mode:(Fannet.Robustness.Exact_mode { certify = true })
      ~jobs c.net c.spec ~input:c.input ~label:c.label
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.check bigcount "same count" r1.Fannet.Robustness.flips
    r4.Fannet.Robustness.flips;
  match (r1.Fannet.Robustness.certificate, r4.Fannet.Robustness.certificate) with
  | Some c1, Some c4 ->
      Alcotest.(check string) "certificate bytes identical across jobs"
        (Util.Json.to_string (Count.Certificate.to_json c1))
        (Util.Json.to_string (Count.Certificate.to_json c4))
  | _ -> Alcotest.fail "certificate missing"

let test_mixed_root_top_split () =
  (* binarized/6x2 at ±1: 362 of 729 vectors flip, so the root is mixed
     and too large to enumerate; it is replaced by the fixed 16-way top
     split, whose partition does not depend on jobs. *)
  let rung =
    Nn.Ladder.rung ~family:Nn.Ladder.Binarized ~n_inputs:6 ~n_layers:2 ~seed:60
  in
  let net = rung.Nn.Ladder.qnet and input = rung.Nn.Ladder.fragile in
  let spec = N.symmetric ~delta:1 ~bias_noise:false in
  let label = Nn.Qnet.predict net input in
  let run jobs =
    Fannet.Robustness.probability
      ~mode:(Fannet.Robustness.Exact_mode { certify = true })
      ~jobs net spec ~input ~label
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.check bigcount "362 flips" (B.of_int 362) r1.Fannet.Robustness.flips;
  let c1 = certificate_of "jobs=1" r1 and c4 = certificate_of "jobs=4" r4 in
  check_kinds "18 cubes: 1 unsat, 17 enumerated" (1, 0, 17, 362) c1;
  (* Each cube is decided once: one call per witness and per closing
     refutation, two per split, so well below two per cube and witness. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d solver calls < 2 x (362 + 18)"
       r1.Fannet.Robustness.solver_calls)
    true
    (r1.Fannet.Robustness.solver_calls < 2 * (362 + 18));
  Alcotest.(check string) "certificate bytes identical across jobs"
    (Util.Json.to_string (Count.Certificate.to_json c1))
    (Util.Json.to_string (Count.Certificate.to_json c4))

(* ---------- budgets and checkpoints ---------- *)

let test_budget_exhaustion_typed () =
  let x = T.var ~name:"x" ~lo:0 ~hi:2000 in
  let y = T.var ~name:"y" ~lo:0 ~hi:2000 in
  let f = T.le (T.of_var x) (T.of_var y) in
  let budget = Resil.Budget.create ~timeout_s:0.0 () in
  let r = Count.Exact.count ~budget f ~project:[ x; y ] in
  match r.Count.Exact.status with
  | Count.Exact.Exhausted _ ->
      Alcotest.(check bool) "no certificate when exhausted" true
        (r.Count.Exact.certificate = None)
  | Count.Exact.Decided -> Alcotest.fail "expected exhaustion"

let test_checkpoint_resume () =
  let dir = Filename.temp_file "fannet_count" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "count.ckpt" in
  let x = T.var ~name:"x" ~lo:0 ~hi:127 in
  let y = T.var ~name:"y" ~lo:0 ~hi:127 in
  let f = T.le (T.of_var x) (T.of_var y) in
  let key = "test-count-query" in
  (* Drive with growing deadlines until a run completes (the first few
     exhaust mid-count and persist their frontier); the result must match
     a clean uninterrupted run. Every run loads and re-saves all decided
     cubes with their proofs, so a checkpoint that costs more than linear
     time per cube runs out of attempts. *)
  let stops = ref 0 in
  let rec drive attempts =
    if attempts > 60 then Alcotest.fail "checkpointed run never finished";
    let budget =
      Resil.Budget.create ~timeout_s:(0.001 *. float_of_int attempts) ()
    in
    let r =
      Count.Exact.count ~budget ~checkpoint:path ~ckpt_key:key ~ckpt_every:1 f
        ~project:[ x; y ]
    in
    match r.Count.Exact.status with
    | Count.Exact.Decided -> r
    | Count.Exact.Exhausted _ ->
        incr stops;
        drive (attempts + 1)
  in
  let resumed = drive 0 in
  let clean = Count.Exact.count f ~project:[ x; y ] in
  Alcotest.(check bool)
    (Printf.sprintf "stopped and resumed at least 10 times (%d)" !stops)
    true (!stops >= 10);
  Alcotest.check bigcount "resumed count equals clean count"
    clean.Count.Exact.count resumed.Count.Exact.count;
  Alcotest.(check bool) "a completed run leaves no file" false
    (Sys.file_exists path);
  (* A different key must refuse an interrupted run's file. *)
  let stopped =
    Count.Exact.count
      ~budget:(Resil.Budget.create ~timeout_s:0.0 ())
      ~checkpoint:path ~ckpt_key:key f ~project:[ x; y ]
  in
  Alcotest.(check bool) "interrupted run keeps its file" true
    (stopped.Count.Exact.status <> Count.Exact.Decided && Sys.file_exists path);
  (match
     Count.Exact.count ~checkpoint:path ~ckpt_key:"other-query" f
       ~project:[ x; y ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign checkpoint accepted");
  Sys.remove path;
  Unix.rmdir dir

(* A finished count must not answer for another network: the file is
   gone once a count completes, and an interrupted count's file carries
   its network's digest in the key. *)
let test_checkpoint_other_network () =
  let dir = Filename.temp_file "fannet_count" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "count.ckpt" in
  let input = [| 112; 87 |] in
  let spec = N.symmetric ~delta:1 ~bias_noise:false in
  let count ?budget ?checkpoint net =
    Fannet.Robustness.probability ?budget ?checkpoint ~ckpt_key:"k" net spec
      ~input ~label:(Nn.Qnet.predict net input)
  in
  let a = Fixture.small_qnet () in
  (* The same net with the second output's bias raised: (112, 87) keeps
     its label and no ±1 vector flips it. *)
  let b =
    let layers = a.Nn.Qnet.layers in
    let out = layers.(1) in
    Nn.Qnet.create
      [| layers.(0); { out with Nn.Qnet.bias = [| 13; 2000 |] } |]
  in
  let flips r = r.Fannet.Robustness.flips in
  let direct_a = count a and direct_b = count b in
  Alcotest.(check bool) "the two nets count differently" false
    (B.equal (flips direct_a) (flips direct_b));
  Alcotest.check bigcount "checkpointed count of a" (flips direct_a)
    (flips (count ~checkpoint:path a));
  Alcotest.(check bool) "a completed run leaves no file" false
    (Sys.file_exists path);
  Alcotest.check bigcount "same file and key, other net: its own count"
    (flips direct_b)
    (flips (count ~checkpoint:path b));
  let stopped =
    count ~budget:(Resil.Budget.create ~timeout_s:0.0 ()) ~checkpoint:path a
  in
  Alcotest.(check bool) "interrupted run keeps its file" true
    (stopped.Fannet.Robustness.status <> Ok () && Sys.file_exists path);
  (match count ~checkpoint:path b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "another network's checkpoint accepted");
  Sys.remove path;
  Unix.rmdir dir

let test_certified_checkpoint_matches_direct () =
  (* Certificates persisted through a checkpoint must equal the
     uninterrupted run's bytes. *)
  let dir = Filename.temp_file "fannet_count" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "count.ckpt" in
  let x = T.var ~name:"x" ~lo:0 ~hi:63 in
  let f = T.le (T.const 20) (T.of_var x) in
  let key = "certified" in
  let rec drive attempts =
    if attempts > 60 then Alcotest.fail "never finished";
    let budget =
      Resil.Budget.create ~timeout_s:(0.0003 *. float_of_int attempts) ()
    in
    let r =
      Count.Exact.count ~budget ~checkpoint:path ~ckpt_key:key
        ~ckpt_every:1 f ~project:[ x ]
    in
    match r.Count.Exact.status with
    | Count.Exact.Decided -> r
    | Count.Exact.Exhausted _ -> drive (attempts + 1)
  in
  let resumed = drive 0 in
  let direct = Count.Exact.count f ~project:[ x ] in
  let cert_bytes what (r : Count.Exact.result) =
    match r.Count.Exact.certificate with
    | Some c -> Util.Json.to_string (Count.Certificate.to_json c)
    | None -> Alcotest.failf "%s: certificate missing" what
  in
  Alcotest.(check string) "certificate bytes survive resume"
    (cert_bytes "direct" direct) (cert_bytes "resumed" resumed);
  if Sys.file_exists path then Sys.remove path;
  (* A budget that runs out while the root itself is being decided:
     the root of this 16x16 space is enumerated whole (136 witnesses,
     enum_limit 256), so a deadline of a few milliseconds stops it after
     some solver calls and before any cube is decided. The checkpoint
     then holds the root as its frontier. *)
  let x = T.var ~name:"x" ~lo:0 ~hi:15 and y = T.var ~name:"y" ~lo:0 ~hi:15 in
  let f = T.le (T.of_var x) (T.of_var y) in
  let count ?budget () =
    Count.Exact.count ?budget ~enum_limit:256 ~checkpoint:path
      ~ckpt_key:"root" f ~project:[ x; y ]
  in
  let interrupted timeout_s =
    if Sys.file_exists path then Sys.remove path;
    let r = count ~budget:(Resil.Budget.create ~timeout_s ()) () in
    r.Count.Exact.status <> Count.Exact.Decided
    && r.Count.Exact.cubes = 0
    && r.Count.Exact.solver_calls > 0
  in
  if not (List.exists interrupted [ 0.001; 0.002; 0.004; 0.008; 0.016; 0.032 ])
  then Alcotest.fail "no deadline stopped the root mid-decision";
  (match Resil.Ckpt.load_with ~kind:"count" ~path Util.Json.Cursor.value with
  | Ok data ->
      Alcotest.(check (option string))
        "the persisted frontier is the root"
        (Some "[[[0,15],[0,15]]]")
        (Option.map Util.Json.to_string (Util.Json.member "frontier" data))
  | Error e -> Alcotest.fail e);
  let resumed = count () in
  Alcotest.(check bool) "resumed run decided" true
    (resumed.Count.Exact.status = Count.Exact.Decided);
  let direct = Count.Exact.count ~enum_limit:256 f ~project:[ x; y ] in
  Alcotest.(check string) "root interrupted mid-decision: bytes survive resume"
    (cert_bytes "direct" direct) (cert_bytes "resumed" resumed);
  if Sys.file_exists path then Sys.remove path;
  Unix.rmdir dir

(* ---------- the plain walk ---------- *)

(* The default pipeline's Leukemia network and its analysed inputs. *)
let leukemia =
  lazy
    (let p = Fannet.Pipeline.run () in
     (p.Fannet.Pipeline.qnet, Fannet.Pipeline.analysis_inputs p))

let test_walk_budget () =
  (* Input 0 at ±50 is a walk of minutes; a 0.2 s budget must stop it
     promptly with the partial mass, not run on. *)
  let net, inputs = Lazy.force leukemia in
  let input, label = inputs.(0) in
  let spec = N.symmetric ~delta:50 ~bias_noise:true in
  let t0 = Unix.gettimeofday () in
  let r =
    Fannet.Robustness.probability
      ~budget:(Resil.Budget.create ~timeout_s:0.2 ())
      net spec ~input ~label
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "stopped by the budget" true
    (r.Fannet.Robustness.status <> Ok ());
  Alcotest.(check bool)
    (Printf.sprintf "stopped within 1 s (took %.3f s)" elapsed)
    true (elapsed < 1.0);
  Alcotest.(check int) "no solver call" 0 r.Fannet.Robustness.solver_calls

let test_count_flips_limit () =
  (* Input 19 at ±15 is a walk of seconds over 887,503,681 vectors; a
     limit of 1000 must end it at the 1000th flip. *)
  let net, inputs = Lazy.force leukemia in
  let input, label = inputs.(19) in
  let spec = N.symmetric ~delta:15 ~bias_noise:true in
  let t0 = Unix.gettimeofday () in
  let count, status = Fannet.Bnb.count_flips ~limit:1000 net spec ~input ~label in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "the limit" 1000 count;
  Alcotest.(check bool) "truncated" true (status = `Truncated);
  Alcotest.(check bool)
    (Printf.sprintf "stopped within 1 s (took %.3f s)" elapsed)
    true (elapsed < 1.0)

let with_ckpt_dir f =
  let dir = Filename.temp_file "fannet_count" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "count.ckpt" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      Unix.rmdir dir)
    (fun () -> f path)

let test_walk_checkpoint_resume () =
  (* Input 19 at ±12 has 66,713 flipping vectors over a walk of a few
     hundred milliseconds: growing deadlines stop it several times, each
     run resuming from the saved boxes and mass. *)
  let net, inputs = Lazy.force leukemia in
  let input, label = inputs.(19) in
  let spec = N.symmetric ~delta:12 ~bias_noise:true in
  with_ckpt_dir @@ fun path ->
  let stops = ref 0 in
  let rec drive attempts =
    if attempts > 60 then Alcotest.fail "checkpointed walk never finished";
    let budget =
      Resil.Budget.create ~timeout_s:(0.01 *. float_of_int attempts) ()
    in
    let r =
      Fannet.Robustness.probability ~budget ~checkpoint:path ~ckpt_key:"walk"
        net spec ~input ~label
    in
    match r.Fannet.Robustness.status with
    | Ok () -> r
    | Error _ ->
        Alcotest.(check bool) "a stopped walk keeps its file" true
          (Sys.file_exists path);
        incr stops;
        drive (attempts + 1)
  in
  let resumed = drive 0 in
  let clean = Fannet.Robustness.probability net spec ~input ~label in
  Alcotest.(check bool) "the walk was stopped at least twice" true
    (!stops >= 2);
  Alcotest.check bigcount "resumed count equals the uninterrupted count"
    clean.Fannet.Robustness.flips resumed.Fannet.Robustness.flips;
  Alcotest.check bigcount "66713 flips" (B.of_int 66713)
    clean.Fannet.Robustness.flips;
  Alcotest.(check bool) "a completed walk leaves no file" false
    (Sys.file_exists path)

let test_walk_whole_huge_box () =
  (* With its label flipped, every one of the 3^64 vectors of this rung
     flips: the walk counts the whole box exactly, where the int view
     saturates. *)
  let r =
    Nn.Ladder.rung ~family:Nn.Ladder.Relu_quantized ~n_inputs:64 ~n_layers:3
      ~seed:60
  in
  let input = r.Nn.Ladder.input in
  let label = 1 - Nn.Qnet.predict r.Nn.Ladder.qnet input in
  let spec = N.symmetric ~delta:1 ~bias_noise:false in
  let rep = Fannet.Robustness.probability r.Nn.Ladder.qnet spec ~input ~label in
  Alcotest.(check bool) "complete" true (rep.Fannet.Robustness.status = Ok ());
  Alcotest.check bigcount "3^64 flips" (N.spec_count spec ~n_inputs:64)
    rep.Fannet.Robustness.flips;
  Alcotest.check bigcount "total" (N.spec_count spec ~n_inputs:64)
    rep.Fannet.Robustness.total

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let test_checkpoint_kinds_refuse_each_other () =
  (* A plain count's file holds Bnb boxes and a mass, a certified count's
     file decided cubes with proofs: neither engine may resume the
     other's, whatever the key says. *)
  let net = Fixture.small_qnet () in
  let input = [| 112; 87 |] in
  let spec = N.symmetric ~delta:3 ~bias_noise:false in
  let label = Nn.Qnet.predict net input in
  with_ckpt_dir @@ fun path ->
  let count ?budget certify =
    Fannet.Robustness.probability ?budget
      ~mode:(Fannet.Robustness.Exact_mode { certify })
      ~checkpoint:path ~ckpt_key:"same key" net spec ~input ~label
  in
  List.iter
    (fun (writer, reader) ->
      let what =
        Printf.sprintf "certify=%b file read with certify=%b" writer reader
      in
      if Sys.file_exists path then Sys.remove path;
      let stopped =
        count ~budget:(Resil.Budget.create ~timeout_s:0.0 ()) writer
      in
      Alcotest.(check bool) (what ^ ": the stopped count keeps its file") true
        (stopped.Fannet.Robustness.status <> Ok () && Sys.file_exists path);
      match count reader with
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: the error names the file (%s)" what msg)
            true (contains ~sub:path msg)
      | _ -> Alcotest.failf "%s: resumed the other engine's checkpoint" what)
    [ (false, true); (true, false) ]

(* Hidden-layer shape of a network: every hidden layer Sign, two layers,
   or deeper. *)
type family = Two_layer | Deep | Binarized

let family_of (net : Nn.Qnet.t) =
  let layers = net.Nn.Qnet.layers in
  let hidden = Array.sub layers 0 (Array.length layers - 1) in
  let sign (l : Nn.Qnet.qlayer) = l.Nn.Qnet.act = Nn.Qnet.Sign in
  if Array.for_all sign hidden then Binarized
  else if Array.length layers = 2 then Two_layer
  else Deep

(* A fuzz-generator network that [keep] accepts, drawn from [rng]. *)
let rec draw_net rng keep =
  let net = Check.Gen.network rng in
  if keep net then net else draw_net rng keep

let brute_spec net spec ~input ~label =
  let n = ref 0 in
  N.iter_vectors spec ~n_inputs:(Array.length input) (fun v ->
      if N.predict net spec ~input v <> label then incr n);
  !n

(* Every (family, noise kind, bias noise) combination on fresh networks
   from [seed], at the widest noise of at most ~125 vectors and at an
   input that some vector flips when one of twenty draws has one: for
   every class as the label, the plain count must equal brute force and
   the certified count. *)
let prop_plain_equals_brute_and_certified =
  QCheck.Test.make ~name:"plain count = brute force = certified count"
    ~count:4
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      List.for_all
        (fun (family, noise, bias_noise) ->
          let net = draw_net rng (fun n -> family_of n = family) in
          let n_inputs = Nn.Qnet.in_dim net in
          let delta =
            match n_inputs + Bool.to_int bias_noise with
            | 1 -> 20
            | 2 -> 5
            | 3 -> 2
            | _ -> 1
          in
          let spec = noise ~delta ~bias_noise in
          let probe () =
            let input = Check.Gen.input rng ~n:n_inputs in
            let label = Nn.Qnet.predict net input in
            (input, label, brute_spec net spec ~input ~label)
          in
          let rec pick k =
            let (_, _, b) as c = probe () in
            if b > 0 || k = 0 then c else pick (k - 1)
          in
          let input, _, _ = pick 19 in
          (* Every class as the label: the prediction's count, and the
             other classes' (mixed or whole-space) counts. *)
          List.for_all
            (fun label ->
              let brute = brute_spec net spec ~input ~label in
              let count certify =
                Fannet.Robustness.probability
                  ~mode:(Fannet.Robustness.Exact_mode { certify })
                  net spec ~input ~label
              in
              let plain = count false and certified = count true in
              plain.Fannet.Robustness.status = Ok ()
              && B.equal plain.Fannet.Robustness.flips (B.of_int brute)
              && B.equal certified.Fannet.Robustness.flips (B.of_int brute)
              && B.equal plain.Fannet.Robustness.total
                   certified.Fannet.Robustness.total)
            (List.init (Nn.Qnet.out_dim net) Fun.id))
        (List.concat_map
           (fun family ->
             List.concat_map
               (fun bias_noise ->
                 [
                   (family, N.symmetric, bias_noise);
                   (family, N.absolute, bias_noise);
                 ])
               [ false; true ])
           [ Two_layer; Deep; Binarized ]))

(* Flip masses by class on three-output networks must match a
   brute-force tally of [Noise.predict] per (from, to) pair. *)
let prop_flip_mass_equals_brute =
  QCheck.Test.make ~name:"flip_mass_by_class = brute-force tally" ~count:40
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      let net = draw_net rng (fun n -> Nn.Qnet.out_dim n = 3) in
      let noise = if Util.Rng.bool rng then N.absolute else N.symmetric in
      let spec = noise ~delta:3 ~bias_noise:(Util.Rng.bool rng) in
      (* Labels are drawn, not predicted, so the mass moved to the
         prediction is never empty. *)
      let inputs =
        Array.init 2 (fun _ ->
            (Check.Gen.input rng ~n:(Nn.Qnet.in_dim net), Util.Rng.int rng 3))
      in
      let table = Hashtbl.create 8 in
      Array.iter
        (fun (input, label) ->
          N.iter_vectors spec ~n_inputs:(Array.length input) (fun v ->
              let key = (label, N.predict net spec ~input v) in
              if snd key <> label then
                Hashtbl.replace table key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt table key))))
        inputs;
      let brute =
        List.sort compare
          (Hashtbl.fold (fun (f, t) n acc -> (f, t, n) :: acc) table [])
      in
      match Fannet.Bias.flip_mass_by_class ~n_classes:3 net spec ~inputs with
      | Error _ -> false
      | Ok masses ->
          let counted =
            List.sort compare
              (List.map
                 (fun (m : Fannet.Bias.mass) ->
                   match m.Fannet.Bias.mass with
                   | B.Exact n -> (m.Fannet.Bias.from, m.Fannet.Bias.to_, n)
                   | B.Huge _ -> (m.Fannet.Bias.from, m.Fannet.Bias.to_, -1))
                 masses)
          in
          counted = brute)

(* ---------- core surfaces ---------- *)

let test_density_and_bias_mass () =
  let c = List.nth (cases ~n:6 ~seed:53) 1 in
  let inputs = [| (c.input, c.label) |] in
  let d = Fannet.Density.adversarial ~jobs:2 c.net c.spec ~inputs in
  Alcotest.(check int) "one report per input" 1
    (Array.length d.Fannet.Density.per_input);
  let r = d.Fannet.Density.per_input.(0) in
  Alcotest.(check bool) "mean is the single probability" true
    (abs_float (d.Fannet.Density.mean_probability -. r.Fannet.Robustness.probability)
     < 1e-12);
  Alcotest.(check int) "worst points at the only input" 0 d.Fannet.Density.worst;
  (* Flip masses by class must sum to the flip count. *)
  match
    Fannet.Bias.flip_mass_by_class ~n_classes:(Nn.Qnet.out_dim c.net) c.net
      c.spec ~inputs
  with
  | Error _ -> Alcotest.fail "unexpected exhaustion"
  | Ok masses ->
      let total =
        List.fold_left
          (fun acc (m : Fannet.Bias.mass) ->
            Alcotest.(check int) "from is the true label" c.label
              m.Fannet.Bias.from;
            B.add acc m.Fannet.Bias.mass)
          B.zero masses
      in
      Alcotest.check bigcount "masses sum to the flip count"
        r.Fannet.Robustness.flips total

let () =
  Alcotest.run "count"
    [
      ( "exact",
        [
          Alcotest.test_case "vs brute force" `Quick test_exact_vs_brute;
          Alcotest.test_case "synthetic" `Quick test_exact_synthetic;
          Alcotest.test_case "free variables" `Quick test_free_variable_factoring;
          Alcotest.test_case "huge space" `Quick test_huge_space;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "validates" `Quick test_certificate_validates;
          Alcotest.test_case "roundtrip deterministic" `Quick
            test_certificate_roundtrip_deterministic;
          Alcotest.test_case "tamper rejected" `Quick
            test_certificate_tamper_rejected;
          Alcotest.test_case "network: plain = certified" `Quick
            test_network_plain_equals_certified;
          Alcotest.test_case "robust root: one refutation" `Quick
            test_robust_root_one_refutation;
          Alcotest.test_case "small root: one enumeration" `Quick
            test_small_root_enumerated;
        ] );
      ( "approx",
        [
          Alcotest.test_case "exact shortcut" `Quick test_approx_exact_shortcut;
          Alcotest.test_case "(eps,delta) envelope" `Quick test_approx_envelope;
          Alcotest.test_case "pinned-seed envelope" `Quick test_approx_pinned_seed_envelope;
          Alcotest.test_case "tight ε on the network = exact" `Quick
            test_approx_tight_epsilon_network;
          Alcotest.test_case "rejects bad parameters" `Quick
            test_approx_rejects_bad_parameters;
          Alcotest.test_case "deterministic per seed" `Quick
            test_approx_deterministic_per_seed;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "mixed root: top split" `Quick
            test_mixed_root_top_split;
          Alcotest.test_case "typed exhaustion" `Quick
            test_budget_exhaustion_typed;
          Alcotest.test_case "checkpoint resume" `Quick test_checkpoint_resume;
          Alcotest.test_case "checkpoint of another network" `Quick
            test_checkpoint_other_network;
          Alcotest.test_case "certified resume" `Quick
            test_certified_checkpoint_matches_direct;
        ] );
      ( "walk",
        [
          Alcotest.test_case "budget stops a heavy walk" `Quick
            test_walk_budget;
          Alcotest.test_case "checkpoint resume" `Quick
            test_walk_checkpoint_resume;
          Alcotest.test_case "count_flips stops at its limit" `Quick
            test_count_flips_limit;
          Alcotest.test_case "whole 3^64 box" `Quick test_walk_whole_huge_box;
          Alcotest.test_case "plain and certified files refuse each other"
            `Quick test_checkpoint_kinds_refuse_each_other;
          QCheck_alcotest.to_alcotest prop_plain_equals_brute_and_certified;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "density and bias mass" `Quick
            test_density_and_bias_mass;
          QCheck_alcotest.to_alcotest prop_flip_mass_equals_brute;
        ] );
    ]
