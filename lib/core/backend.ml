module T = Smtlite.Term
module I = Smtlite.Interval

type t = Bnb | Smt | Explicit of { limit : int } | Interval | Cascade of t

type verdict = Robust | Flip of Noise.vector | Unknown of Resil.Budget.reason

let default_explicit_limit = 2_000_000

let default_cascade = Cascade Bnb

(* Cascade instrumentation, aggregated across all worker domains: how many
   queries the interval prefilter settled vs escalated to the complete
   engine. The whole pair lives in ONE atomic cell so that readers always
   observe a consistent snapshot: with two independent atomics a reader
   racing a [reset] could combine hits from one epoch with escalations
   from another (the torn pair {hits=old; escalations=0}). Updates go
   through a CAS loop — contention is negligible next to the per-query
   verification work. *)
type cascade_stats = { interval_hits : int; escalations : int }

let cascade_counts : cascade_stats Atomic.t =
  Atomic.make { interval_hits = 0; escalations = 0 }

let rec bump_cascade f =
  let seen = Atomic.get cascade_counts in
  if not (Atomic.compare_and_set cascade_counts seen (f seen)) then bump_cascade f

let note_interval_hit () =
  bump_cascade (fun s -> { s with interval_hits = s.interval_hits + 1 })

let note_escalation () =
  bump_cascade (fun s -> { s with escalations = s.escalations + 1 })

let reset_cascade_stats () =
  Atomic.set cascade_counts { interval_hits = 0; escalations = 0 }

let cascade_stats () = Atomic.get cascade_counts

(* Registry mirrors of the cascade pair, plus per-backend query latency.
   [cascade_hit_rate (cascade_stats ())] stays the always-on API; the
   registry copies exist so [--metrics] snapshots carry them too. *)
let m_cascade_hits = Obs.Metrics.counter "backend.cascade.interval_hits"

let m_cascade_escalations = Obs.Metrics.counter "backend.cascade.escalations"

let cascade_hit_rate { interval_hits; escalations } =
  let total = interval_hits + escalations in
  if total = 0 then 0. else float_of_int interval_hits /. float_of_int total

let validate_flip net spec ~input ~label v =
  if not (Noise.in_range spec v) then
    failwith "Backend: witness outside the noise range";
  if Noise.predict net spec ~input v = label then
    failwith "Backend: witness does not actually misclassify";
  Flip v

let smt_exists_flip ?budget net spec ~input ~label =
  let enc = Encode.encode net ~input spec in
  match Smtlite.Solve.check ?budget (Encode.misclassified enc ~true_label:label) with
  | Smtlite.Solve.Sat model ->
      validate_flip net spec ~input ~label (Encode.vector_of_model enc model)
  | Smtlite.Solve.Unsat -> Robust
  | Smtlite.Solve.Unknown r -> Unknown r

exception Found of Noise.vector

let explicit_exists_flip ~limit ?budget net spec ~input ~label =
  let size = Noise.spec_size spec ~n_inputs:(Array.length input) in
  if size > limit then
    invalid_arg
      (Printf.sprintf "Backend.Explicit: %d vectors exceed limit %d" size limit);
  let count = ref 0 in
  try
    Noise.iter_vectors spec ~n_inputs:(Array.length input) (fun v ->
        incr count;
        if !count land 1023 = 0 then Resil.Budget.poll budget;
        if Noise.predict net spec ~input v <> label then raise (Found v));
    Robust
  with
  | Found v -> validate_flip net spec ~input ~label v
  | Resil.Budget.Stopped r -> Unknown r

(* Interval propagation through all layers at the spec's running scale
   (reset to 1 after a Sign layer, whose outputs are scale-free ±1 —
   mirrors Noise.apply). Only the input layer's bias node is noisy. *)
let output_bounds (net : Nn.Qnet.t) (spec : Noise.spec) ~input =
  let scale = Noise.scale_of spec in
  let delta = I.make spec.Noise.delta_lo spec.Noise.delta_hi in
  let noisy =
    match spec.Noise.kind with
    | Noise.Relative ->
        let factor = I.add (I.point scale) delta in
        Array.map (fun x -> I.mulc x factor) input
    | Noise.Absolute -> Array.map (fun x -> I.add (I.point x) delta) input
  in
  let cur = ref noisy in
  let running = ref scale in
  Array.iteri
    (fun li (l : Nn.Qnet.qlayer) ->
      let x = !cur in
      let bias_factor =
        if li = 0 && spec.Noise.bias_noise then I.add (I.point !running) delta
        else I.point !running
      in
      let outs =
        Array.mapi
          (fun k row ->
            let acc = ref (I.mulc l.Nn.Qnet.bias.(k) bias_factor) in
            Array.iteri (fun i w -> acc := I.add !acc (I.mulc w x.(i))) row;
            match l.Nn.Qnet.act with
            | Nn.Qnet.Relu -> I.relu !acc
            | Nn.Qnet.Sign -> I.sign_ !acc
            | Nn.Qnet.Identity -> !acc)
          l.Nn.Qnet.weights
      in
      cur := outs;
      if l.Nn.Qnet.act = Nn.Qnet.Sign then running := 1)
    net.Nn.Qnet.layers;
  Array.map (fun (iv : I.t) -> (iv.I.lo, iv.I.hi)) !cur

let interval_exists_flip net spec ~input ~label =
  let bounds = output_bounds net spec ~input in
  let lo_label, _ = bounds.(label) in
  let provably_wins =
    Array.for_all Fun.id
      (Array.mapi
         (fun j (_, hi_j) ->
           if j = label then true
           else if j > label then lo_label >= hi_j
           else lo_label > hi_j)
         bounds)
  in
  if provably_wins then Robust
  else
    (* Not a resource cap: interval propagation can never produce a
       counterexample, so an undecided query is [Incomplete] by
       construction. *)
    Unknown Resil.Budget.Incomplete

let rec dispatch ?budget backend net spec ~input ~label =
  match backend with
  | Bnb -> (
      match Bnb.exists_flip ?budget net spec ~input ~label with
      | Bnb.Robust -> Robust
      | Bnb.Flip v -> validate_flip net spec ~input ~label v
      | Bnb.Unknown r -> Unknown r)
  | Smt -> smt_exists_flip ?budget net spec ~input ~label
  | Explicit { limit } -> explicit_exists_flip ~limit ?budget net spec ~input ~label
  | Interval -> interval_exists_flip net spec ~input ~label
  | Cascade inner -> (
      (* Robust samples are the common case on tolerance sweeps; the
         interval pass proves most of them without touching a solver. *)
      match interval_exists_flip net spec ~input ~label with
      | Robust ->
          note_interval_hit ();
          Obs.Metrics.incr m_cascade_hits;
          Robust
      | Unknown _ | Flip _ ->
          note_escalation ();
          Obs.Metrics.incr m_cascade_escalations;
          dispatch ?budget inner net spec ~input ~label)

let rec to_string = function
  | Bnb -> "bnb"
  | Smt -> "smt"
  | Explicit _ -> "explicit"
  | Interval -> "interval"
  | Cascade inner -> Printf.sprintf "cascade(%s)" (to_string inner)

let exists_flip ?budget backend net spec ~input ~label =
  if Array.length input <> Nn.Qnet.in_dim net then
    invalid_arg "Backend.exists_flip: input size mismatch";
  if label < 0 || label >= Nn.Qnet.out_dim net then
    invalid_arg "Backend.exists_flip: label out of range";
  if Resil.Faultpoint.hit "backend.unknown" then Unknown Resil.Budget.Incomplete
  else if not (Obs.Metrics.enabled ()) then
    dispatch ?budget backend net spec ~input ~label
  else begin
    (* Per-backend latency: one histogram per top-level backend shape
       (cascade queries time the whole cascade, not each leg). The
       get-or-create lookup per query is a mutex + hash probe — fine at
       solver-query granularity, and only paid when metrics are on. *)
    let h =
      Obs.Metrics.histogram (Printf.sprintf "backend.%s.query_s" (to_string backend))
    in
    let t0 = Obs.Clock.now_ns () in
    let v = dispatch ?budget backend net spec ~input ~label in
    Obs.Metrics.observe h (Obs.Clock.elapsed_s ~since:t0);
    v
  end

(* Retry-with-escalation: where an exhausted query goes next. A cascade
   drops its prefilter (the wrapped engine sees the retry directly), the
   incomplete interval backend escalates to the complete Bnb engine, and
   a complete backend retries as itself — with the budget doubled each
   attempt ({!Resil.Budget.scale} restarts the deadline). *)
let next_tier = function Cascade inner -> inner | Interval -> Bnb | b -> b

let m_retries = Obs.Metrics.counter "backend.retries"

let exists_flip_escalating ?(attempts = 0) ?budget backend net spec ~input
    ~label =
  let rec go n backend budget =
    match exists_flip ?budget backend net spec ~input ~label with
    | Unknown r
      when n < attempts
           && (Resil.Budget.retryable r
              || (r = Resil.Budget.Incomplete && next_tier backend <> backend))
      ->
        Obs.Metrics.incr m_retries;
        go (n + 1) (next_tier backend)
          (Option.map (Resil.Budget.scale ~by:2) budget)
    | v -> v
  in
  go 0 backend budget

type certified_verdict = {
  cv_verdict : verdict;
  cv_cert : Cert.Verdict.t option;
}

let certified_exists_flip ?budget net spec ~input ~label =
  if Array.length input <> Nn.Qnet.in_dim net then
    invalid_arg "Backend.certified_exists_flip: input size mismatch";
  if label < 0 || label >= Nn.Qnet.out_dim net then
    invalid_arg "Backend.certified_exists_flip: label out of range";
  let enc = Encode.encode net ~input spec in
  let trace = Cert.Proof.create () in
  let session =
    Smtlite.Solve.open_session ~trace (Encode.misclassified enc ~true_label:label)
  in
  let outcome, cert = Smtlite.Solve.solve_certified ?budget session in
  let v =
    match outcome with
    | Smtlite.Solve.Sat model ->
        validate_flip net spec ~input ~label (Encode.vector_of_model enc model)
    | Smtlite.Solve.Unsat -> Robust
    | Smtlite.Solve.Unknown r -> Unknown r
  in
  { cv_verdict = v; cv_cert = cert }

let check_certified net spec ~input ~label { cv_verdict; cv_cert } =
  match cv_verdict with
  | Unknown _ -> Ok ()
  | Robust | Flip _ -> (
      match (cv_verdict, cv_cert) with
      | _, None -> Error "decided verdict carries no certificate"
      | Robust, Some (Cert.Verdict.Model _) ->
          Error "Robust verdict with a model certificate"
      | Flip _, Some (Cert.Verdict.Refutation _) ->
          Error "Flip verdict with a refutation certificate"
      | Flip v, Some cert -> (
          (* The certificate ties the SAT answer to the CNF; the witness
             re-validation ties the claim to the concrete network, so the
             encoding itself is not in the trusted base for Flip. *)
          if Array.length v.Noise.inputs <> Array.length input then
            Error "witness arity does not match the input"
          else if not (Noise.in_range spec v) then
            Error "witness outside the noise range"
          else if Noise.predict net spec ~input v = label then
            Error "witness does not misclassify under Noise.predict"
          else
            match Cert.Verdict.check cert with
            | Ok () -> Ok ()
            | Error e -> Error ("model certificate rejected: " ^ e))
      | Robust, Some cert -> (
          match Cert.Verdict.check cert with
          | Ok () -> Ok ()
          | Error e -> Error ("refutation certificate rejected: " ^ e))
      | Unknown _, Some _ -> Ok ())

(* Unknown reasons are diagnostic, not semantic: two Unknowns are the
   same (non-)decision whatever stopped them, so equality and agreement
   ignore the reason — the differential fuzzer's determinism checks stay
   meaningful across backends with different stopping conditions. *)
let verdict_equal a b =
  match (a, b) with
  | Robust, Robust | Unknown _, Unknown _ -> true
  | Flip va, Flip vb -> Noise.equal va vb
  | (Robust | Flip _ | Unknown _), _ -> false

let agree a b =
  match (a, b) with
  | Robust, Robust | Flip _, Flip _ | Unknown _, Unknown _ -> true
  | (Robust | Flip _ | Unknown _), _ -> false

let run_all ?(backends = [ Bnb; Smt; Explicit { limit = default_explicit_limit }; Interval; Cascade Bnb ])
    net spec ~input ~label =
  List.map (fun b -> (b, exists_flip b net spec ~input ~label)) backends

let verdict_to_string = function
  | Robust -> "robust"
  | Flip v -> "flip " ^ Noise.to_string v
  | Unknown Resil.Budget.Incomplete -> "unknown"
  | Unknown r -> "unknown (" ^ Resil.Budget.reason_to_string r ^ ")"
