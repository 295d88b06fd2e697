module B = Fannet.Backend
module N = Fannet.Noise

type runner =
  B.t -> Nn.Qnet.t -> N.spec -> input:int array -> label:int -> B.verdict

type failure = { property : string; backend : string; detail : string }

type result = { failures : failure list; ground_truth : B.verdict }

let failure_to_string f =
  Printf.sprintf "[%s] %s: %s" f.property f.backend f.detail

let explicit = B.Explicit { limit = B.default_explicit_limit }

let complete_backends = [ B.Bnb; B.Smt; B.Cascade B.Bnb; B.Cascade B.Smt ]

let backends_under_test = (explicit :: complete_backends) @ [ B.Interval ]

(* A backend that raises must not abort the whole fuzz run: fold the
   exception into a distinguishable verdict-with-error. *)
type outcome = Verdict of B.verdict | Raised of string

let outcome_equal a b =
  match (a, b) with
  | Verdict va, Verdict vb -> B.verdict_equal va vb
  | Raised ma, Raised mb -> ma = mb
  | Verdict _, Raised _ | Raised _, Verdict _ -> false

let outcome_to_string = function
  | Verdict v -> B.verdict_to_string v
  | Raised msg -> "exception: " ^ msg

let check_case ?(run : runner = fun b -> B.exists_flip b) ?(check_parallel = true)
    ?(check_certificate = true) ?(check_count = true)
    (case : Case.t) =
  let { Case.net; input; label; spec; _ } = case in
  let run_one backend =
    match run backend net spec ~input ~label with
    | v -> Verdict v
    | exception e -> Raised (Printexc.to_string e)
  in
  let all = Array.of_list backends_under_test in
  (* The jobs=1 vector is what every property below is checked on; the
     parallel-determinism property re-runs it on a multi-worker pool.
     That doubles the backend cost, so the driver samples it rather than
     paying it on every case. *)
  let verdicts = Util.Parallel.map ~jobs:1 run_one all in
  let failures = ref [] in
  let fail property backend detail =
    failures := { property; backend = B.to_string backend; detail } :: !failures
  in
  if check_parallel then begin
    let verdicts_pooled = Util.Parallel.map ~jobs:4 run_one all in
    Array.iteri
      (fun i backend ->
        if not (outcome_equal verdicts.(i) verdicts_pooled.(i)) then
          fail "parallel-determinism" backend
            (Printf.sprintf "jobs=1 gave %s but jobs=4 gave %s"
               (outcome_to_string verdicts.(i))
               (outcome_to_string verdicts_pooled.(i))))
      all
  end;
  let outcome_of backend =
    let rec index i =
      if i = Array.length all then
        invalid_arg "Oracle: backend not under test"
      else if all.(i) = backend then verdicts.(i)
      else index (i + 1)
    in
    index 0
  in
  (* Ground truth. *)
  let ground_truth =
    match outcome_of explicit with
    | Verdict v -> v
    | Raised msg ->
        fail "explicit-oracle" explicit msg;
        (* The oracle itself could not decide: undecidable-by-construction. *)
        B.Unknown Resil.Budget.Incomplete
  in
  (* Witness validity, for every backend that produced one. *)
  Array.iteri
    (fun i backend ->
      match verdicts.(i) with
      | Verdict (B.Flip v) ->
          if not (N.in_range spec v) then
            fail "witness-valid" backend
              (Printf.sprintf "witness %s outside the noise range" (N.to_string v))
          else if N.predict net spec ~input v = label then
            fail "witness-valid" backend
              (Printf.sprintf "witness %s does not flip the prediction"
                 (N.to_string v))
      | Verdict (B.Robust | B.Unknown _) | Raised _ -> ())
    all;
  (* Complete backends agree with the enumerator. *)
  List.iter
    (fun backend ->
      match outcome_of backend with
      | Raised msg -> fail "complete-agreement" backend msg
      | Verdict (B.Unknown _) ->
          fail "complete-agreement" backend "complete backend answered unknown"
      | Verdict v -> (
          match (ground_truth, v) with
          | B.Robust, B.Robust | B.Flip _, B.Flip _ -> ()
          | B.Unknown _, _ -> () (* explicit already failed above *)
          | B.Robust, B.Flip w ->
              fail "complete-agreement" backend
                (Printf.sprintf
                   "claims flip %s but the enumerator proves the range robust"
                   (N.to_string w))
          | B.Flip w, B.Robust ->
              fail "complete-agreement" backend
                (Printf.sprintf
                   "claims robust but the enumerator found flip %s"
                   (N.to_string w))
          | _, B.Unknown _ -> assert false))
    complete_backends;
  (* Interval soundness. *)
  (match outcome_of B.Interval with
  | Raised msg -> fail "interval-sound" B.Interval msg
  | Verdict (B.Flip v) ->
      fail "interval-sound" B.Interval
        (Printf.sprintf "interval propagation cannot produce witnesses, got %s"
           (N.to_string v))
  | Verdict B.Robust -> (
      match ground_truth with
      | B.Flip w ->
          fail "interval-sound" B.Interval
            (Printf.sprintf "claims robust but the enumerator found flip %s"
               (N.to_string w))
      | B.Robust | B.Unknown _ -> ())
  | Verdict (B.Unknown _) -> ());
  (* Certificate validity: the certified SMT path must agree with the
     enumerator, produce a certificate, and that certificate must pass the
     independent lib/cert checker. Run sequentially (it is one more SMT
     solve plus a proof check), and sampled by the driver like the
     parallel-determinism re-run. *)
  if check_certificate then begin
    match B.certified_exists_flip net spec ~input ~label with
    | exception e -> fail "certificate-valid" B.Smt (Printexc.to_string e)
    | cv -> (
        (match (ground_truth, cv.B.cv_verdict) with
        | B.Robust, B.Robust | B.Flip _, B.Flip _ | B.Unknown _, _ -> ()
        | (B.Robust | B.Flip _), v ->
            fail "certificate-valid" B.Smt
              (Printf.sprintf
                 "certified verdict %s disagrees with the enumerator's %s"
                 (B.verdict_to_string v)
                 (B.verdict_to_string ground_truth)));
        (match (cv.B.cv_verdict, cv.B.cv_cert) with
        | (B.Robust | B.Flip _), None ->
            fail "certificate-valid" B.Smt "decided verdict without a certificate"
        | _ -> ());
        match B.check_certified net spec ~input ~label cv with
        | Ok () -> ()
        | Error e -> fail "certificate-valid" B.Smt e)
  end;
  (* Counting agreement: the exact counter, plain (one Bnb walk) and
     certified (SAT cube decomposition), must reproduce the brute-force
     flip count, its certificate must pass the independent checker, and
     jobs must not change a byte of the answer. Enumerates the whole
     noise space, so sampled by the driver like the re-runs above. *)
  if check_count then begin
    let n_inputs = Array.length input in
    let space = N.spec_size spec ~n_inputs in
    if space <= 100_000 then begin
      let brute = ref 0 in
      N.iter_vectors spec ~n_inputs (fun v ->
          if N.predict net spec ~input v <> label then incr brute);
      let brute = Util.Bigcount.of_int !brute in
      (match Fannet.Robustness.probability net spec ~input ~label with
      | exception e -> fail "count-exact" explicit (Printexc.to_string e)
      | r ->
          if r.Fannet.Robustness.status <> Ok () then
            fail "count-exact" explicit "unbudgeted plain count not decided"
          else if not (Util.Bigcount.equal r.Fannet.Robustness.flips brute) then
            fail "count-exact" explicit
              (Printf.sprintf "plain count %s flips but enumeration finds %s"
                 (Util.Bigcount.to_string r.Fannet.Robustness.flips)
                 (Util.Bigcount.to_string brute)));
      let certified_probability ~jobs =
        Fannet.Robustness.probability
          ~mode:(Fannet.Robustness.Exact_mode { certify = true })
          ~jobs net spec ~input ~label
      in
      match certified_probability ~jobs:1 with
      | exception e -> fail "count-exact" explicit (Printexc.to_string e)
      | r ->
          (if r.Fannet.Robustness.status <> Ok () then
             fail "count-exact" explicit "unbudgeted count not decided"
           else if not (Util.Bigcount.equal r.Fannet.Robustness.flips brute) then
             fail "count-exact" explicit
               (Printf.sprintf "counted %s flips but enumeration finds %s"
                  (Util.Bigcount.to_string r.Fannet.Robustness.flips)
                  (Util.Bigcount.to_string brute)));
          (match (ground_truth, Util.Bigcount.is_zero r.Fannet.Robustness.flips) with
          | B.Robust, false ->
              fail "count-exact" explicit
                "nonzero flip count on a range the enumerator proves robust"
          | B.Flip _, true ->
              fail "count-exact" explicit
                "zero flip count but the enumerator found a flip"
          | _ -> ());
          (match r.Fannet.Robustness.certificate with
          | None ->
              fail "count-certificate" explicit "decided count without a certificate"
          | Some cert -> (
              match
                Fannet.Robustness.check_certificate net spec ~input ~label cert
              with
              | Ok () -> ()
              | Error e -> fail "count-certificate" explicit e));
          match certified_probability ~jobs:4 with
          | exception e -> fail "count-jobs" explicit (Printexc.to_string e)
          | r4 ->
              let cert_bytes r =
                match r.Fannet.Robustness.certificate with
                | Some c -> Util.Json.to_string (Count.Certificate.to_json c)
                | None -> ""
              in
              if
                (not
                   (Util.Bigcount.equal r.Fannet.Robustness.flips
                      r4.Fannet.Robustness.flips))
                || cert_bytes r <> cert_bytes r4
              then
                fail "count-jobs" explicit
                  "jobs=1 and jobs=4 disagree (count or certificate bytes)"
    end
  end;
  (* Cascade lattice: a decided interval verdict forces the cascade. *)
  (match outcome_of B.Interval with
  | Verdict B.Robust ->
      List.iter
        (fun backend ->
          match backend with
          | B.Cascade _ -> (
              match outcome_of backend with
              | Verdict B.Robust -> ()
              | Verdict v ->
                  fail "cascade-lattice" backend
                    (Printf.sprintf
                       "interval proved robust but the cascade answered %s"
                       (B.verdict_to_string v))
              | Raised msg -> fail "cascade-lattice" backend msg)
          | _ -> ())
        complete_backends
  | Verdict (B.Unknown _ | B.Flip _) | Raised _ -> ());
  { failures = List.rev !failures; ground_truth }
