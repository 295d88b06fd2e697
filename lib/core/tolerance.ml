module T = Smtlite.Term

type flip = { input_index : int; vector : Noise.vector; predicted : int }

type sweep_point = {
  delta : int;
  n_misclassified : int;
  flips : flip list;
}

(* Per-delta search progress: every probed range bumps a counter and
   notes the most recent delta, so a [--metrics] snapshot shows how far a
   sweep or binary search has come. *)
let m_probes = Obs.Metrics.counter "tolerance.probes"

let g_last_delta = Obs.Metrics.gauge "tolerance.last_probe_delta"

let note_probe delta =
  Obs.Metrics.incr m_probes;
  Obs.Metrics.set_gauge g_last_delta (float_of_int delta)

let misclassified_at ?jobs ?budget backend net ~bias_noise ~delta ~inputs =
  let spec = Noise.symmetric ~delta ~bias_noise in
  Obs.Span.with_ (Printf.sprintf "tolerance.misclassified_at ±%d%%" delta) (fun () ->
      note_probe delta;
      Resil.Budget.parallel_filter_mapi ?jobs ?budget
        (fun input_index (input, label) ->
          match Backend.exists_flip ?budget backend net spec ~input ~label with
          | Backend.Flip vector ->
              let predicted = Noise.predict net spec ~input vector in
              Some { input_index; vector; predicted }
          | Backend.Robust | Backend.Unknown Resil.Budget.Incomplete -> None
          | Backend.Unknown r -> raise (Resil.Budget.Stopped r))
        inputs)

let sweep ?jobs ?budget backend net ~bias_noise ~deltas ~inputs =
  Obs.Span.with_ "tolerance.sweep" (fun () ->
      List.map
        (fun delta ->
          let flips =
            misclassified_at ?jobs ?budget backend net ~bias_noise ~delta ~inputs
          in
          { delta; n_misclassified = List.length flips; flips })
        deltas)

let flips_at ?budget backend net ~bias_noise ~delta ~input ~label =
  let spec = Noise.symmetric ~delta ~bias_noise in
  note_probe delta;
  match Backend.exists_flip ?budget backend net spec ~input ~label with
  | Backend.Flip _ -> true
  | Backend.Robust -> false
  | Backend.Unknown Resil.Budget.Incomplete ->
      failwith "Tolerance: backend cannot decide; use a complete backend"
  | Backend.Unknown r -> raise (Resil.Budget.Stopped r)

(* Shared monotone binary search: [flips lo = false], [flips hi = true];
   returns the smallest delta that flips. *)
let rec bisect flips lo hi =
  if hi - lo <= 1 then hi
  else
    let mid = (lo + hi) / 2 in
    if flips mid then bisect flips lo mid else bisect flips mid hi

(* Incremental bit-blasted search over one warm solver session. The
   session comes from the per-domain {!Warm} pool keyed by
   (net, input, label, bias_noise, max_delta): the network is
   Tseitin-encoded once at the widest range [±max_delta], each probe
   ±delta is the memoised assumption "every noise variable lies in
   [-delta, +delta]", and — because the pool outlives this call — a later
   search or sweep probe about the same input skips the encoding
   entirely. With [prefilter], the interval pass runs first per probe and
   the solver is only consulted when it cannot prove robustness. *)
let smt_min_flip_delta ?budget ~prefilter net ~bias_noise ~max_delta ~input
    ~label =
  let solver_flips delta =
    match
      Obs.Span.with_ (Printf.sprintf "tolerance.smt_probe ±%d%%" delta) (fun () ->
          Warm.probe_delta ?budget net ~bias_noise ~cover:max_delta ~delta
            ~input ~label)
    with
    | Ok flips -> flips
    | Error r ->
        (* No conflict cap is passed, so an unknown is always a typed
           stop: the budget, or the solver out of memory. *)
        raise (Resil.Budget.Stopped r)
  in
  let flips delta =
    note_probe delta;
    if
      prefilter
      && Backend.exists_flip Backend.Interval net
           (Noise.symmetric ~delta ~bias_noise) ~input ~label
         = Backend.Robust
    then false
    else solver_flips delta
  in
  if not (flips max_delta) then None
  else if flips 0 then Some 0
  else Some (bisect flips 0 max_delta)

type certified_bracket = {
  max_delta : int;
  min_flip_delta : int option;
  flip_cert : (int * Noise.vector * Cert.Verdict.t) option;
  robust_cert : (int * Cert.Verdict.t) option;
}

(* Certified variant of [smt_min_flip_delta]: same warm session and
   assumption literals, but with a DRUP trace attached and a certificate
   snapshotted at every probe. No interval prefilter — a prefilter answer
   carries no proof, and the bracket must be certified at both ends. *)
let certified_min_flip_delta ?budget net ~bias_noise ~max_delta ~input ~label =
  if max_delta < 0 then invalid_arg "Tolerance: negative max_delta";
  let spec = Noise.symmetric ~delta:max_delta ~bias_noise in
  let enc = Encode.encode net ~input spec in
  let trace = Cert.Proof.create () in
  let session =
    Smtlite.Solve.open_session ~trace (Encode.misclassified enc ~true_label:label)
  in
  let vars = Encode.noise_vars enc in
  let range_assumptions = Hashtbl.create 8 in
  let assumption_for delta =
    match Hashtbl.find_opt range_assumptions delta with
    | Some a -> a
    | None ->
        let bounded v =
          let d = T.of_var v in
          T.and_ [ T.ge d (T.const (-delta)); T.le d (T.const delta) ]
        in
        let a = Smtlite.Solve.assume session (T.and_ (List.map bounded vars)) in
        Hashtbl.add range_assumptions delta a;
        a
  in
  let probe delta =
    note_probe delta;
    let assumptions = if delta = max_delta then [] else [ assumption_for delta ] in
    let outcome, cert =
      Obs.Span.with_ (Printf.sprintf "tolerance.certified_probe ±%d%%" delta)
        (fun () -> Smtlite.Solve.solve_certified ~assumptions ?budget session)
    in
    match outcome with
    | Smtlite.Solve.Unknown r -> raise (Resil.Budget.Stopped r)
    | (Smtlite.Solve.Unsat | Smtlite.Solve.Sat _) as outcome -> (
        let cert =
          match cert with
          | Some c -> c
          | None -> failwith "Tolerance: certified probe produced no certificate"
        in
        match outcome with
        | Smtlite.Solve.Unknown _ -> assert false
        | Smtlite.Solve.Unsat -> `Robust cert
            | Smtlite.Solve.Sat model ->
            let v = Encode.vector_of_model enc model in
            let probe_spec = Noise.symmetric ~delta ~bias_noise in
            if not (Noise.in_range probe_spec v) then
              failwith "Tolerance: incremental witness outside the probe range";
            if Noise.predict net probe_spec ~input v = label then
              failwith "Tolerance: incremental witness does not misclassify";
            `Flip (v, cert))
  in
  match probe max_delta with
  | `Robust cert ->
      {
        max_delta;
        min_flip_delta = None;
        flip_cert = None;
        robust_cert = Some (max_delta, cert);
      }
  | `Flip (v, cert) -> (
      if max_delta = 0 then
        {
          max_delta;
          min_flip_delta = Some 0;
          flip_cert = Some (0, v, cert);
          robust_cert = None;
        }
      else
        match probe 0 with
        | `Flip (v0, c0) ->
            {
              max_delta;
              min_flip_delta = Some 0;
              flip_cert = Some (0, v0, c0);
              robust_cert = None;
            }
        | `Robust c0 ->
            (* Invariant: lo provably robust, hi provably flipping. *)
            let rec go (lo, lo_c) (hi, hi_v, hi_c) =
              if hi - lo <= 1 then
                {
                  max_delta;
                  min_flip_delta = Some hi;
                  flip_cert = Some (hi, hi_v, hi_c);
                  robust_cert = Some (lo, lo_c);
                }
              else
                let mid = (lo + hi) / 2 in
                match probe mid with
                | `Flip (v, c) -> go (lo, lo_c) (mid, v, c)
                | `Robust c -> go (mid, c) (hi, hi_v, hi_c)
            in
            go (0, c0) (max_delta, v, cert))

let check_certified_bracket net ~bias_noise bracket ~input ~label =
  let check_refutation (delta, cert) =
    ignore delta;
    match cert with
    | Cert.Verdict.Model _ ->
        Error "robust end of the bracket carries a model certificate"
    | Cert.Verdict.Refutation _ -> (
        match Cert.Verdict.check cert with
        | Ok () -> Ok ()
        | Error e -> Error ("robust-end certificate rejected: " ^ e))
  in
  let check_flip (delta, v, cert) =
    let spec = Noise.symmetric ~delta ~bias_noise in
    if Array.length v.Noise.inputs <> Array.length input then
      Error "flip witness arity does not match the input"
    else if not (Noise.in_range spec v) then
      Error "flip witness outside its probe range"
    else if Noise.predict net spec ~input v = label then
      Error "flip witness does not misclassify under Noise.predict"
    else
      match cert with
      | Cert.Verdict.Refutation _ ->
          Error "flip end of the bracket carries a refutation certificate"
      | Cert.Verdict.Model _ -> (
          match Cert.Verdict.check cert with
          | Ok () -> Ok ()
          | Error e -> Error ("flip-end certificate rejected: " ^ e))
  in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  match (bracket.min_flip_delta, bracket.flip_cert, bracket.robust_cert) with
  | None, None, Some ((d, _) as rc) ->
      if d <> bracket.max_delta then
        Error "robust certificate does not cover the full range"
      else check_refutation rc
  | Some 0, Some ((0, _, _) as fc), None -> check_flip fc
  | Some m, Some ((fd, _, _) as fc), Some ((rd, _) as rc) ->
      if fd <> m then Error "flip certificate is not at the minimal delta"
      else if rd <> m - 1 then
        Error "robust certificate is not adjacent to the minimal delta"
      else
        let* () = check_flip fc in
        check_refutation rc
  | _ -> Error "bracket shape is inconsistent"

let input_min_flip_delta ?budget backend net ~bias_noise ~max_delta ~input
    ~label =
  if max_delta < 0 then invalid_arg "Tolerance: negative max_delta";
  match backend with
  | Backend.Smt ->
      smt_min_flip_delta ?budget ~prefilter:false net ~bias_noise ~max_delta
        ~input ~label
  | Backend.Cascade Backend.Smt ->
      smt_min_flip_delta ?budget ~prefilter:true net ~bias_noise ~max_delta
        ~input ~label
  | _ ->
      let flips delta =
        flips_at ?budget backend net ~bias_noise ~delta ~input ~label
      in
      if not (flips max_delta) then None
      else if flips 0 then
        (* Misclassified even without noise. *)
        Some 0
      else
        (* Monotone in delta: binary search for the smallest flipping
           range (delta 0 never flips a correctly classified input). *)
        Some (bisect flips 0 max_delta)

let certified_accuracy ?jobs backend net ~bias_noise ~delta ~inputs =
  if Array.length inputs = 0 then invalid_arg "Tolerance.certified_accuracy: empty";
  let spec = Noise.symmetric ~delta ~bias_noise in
  let certified =
    Util.Parallel.map ?jobs
      (fun (input, label) ->
        Nn.Qnet.predict net input = label
        &&
        match Backend.exists_flip backend net spec ~input ~label with
        | Backend.Robust -> true
        | Backend.Flip _ | Backend.Unknown _ -> false)
      inputs
    |> Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0
  in
  float_of_int certified /. float_of_int (Array.length inputs)

let paper_iterative_tolerance ?jobs backend net ~bias_noise ~max_delta ~inputs =
  if max_delta < 0 then invalid_arg "Tolerance: negative max_delta";
  let any_flip delta =
    Util.Parallel.exists ?jobs
      (fun (input, label) -> flips_at backend net ~bias_noise ~delta ~input ~label)
      inputs
  in
  let rec reduce delta =
    if delta = 0 then 0
    else if any_flip delta then reduce (delta - 1)
    else delta
  in
  reduce max_delta

let network_tolerance ?jobs ?budget backend net ~bias_noise ~max_delta ~inputs =
  Obs.Span.with_ "tolerance.network_tolerance" (fun () ->
      Resil.Budget.parallel_mapi ?jobs ?budget
        (fun _ (input, label) ->
          input_min_flip_delta ?budget backend net ~bias_noise ~max_delta ~input
            ~label)
        inputs
      |> Array.fold_left
           (fun acc -> function None -> acc | Some d -> min acc (d - 1))
           max_delta)

(* ------------------------------------------------------------------ *)
(* Checkpointed network tolerance (format fannet-ckpt/1, kind          *)
(* "tolerance"): per-input minimum-flip deltas already decided, plus    *)
(* the bisection bracket of the input in flight, persisted after every  *)
(* probe so a killed run repeats at most two probes on resume. The      *)
(* search is sequential (checkpointing a parallel bisection would need  *)
(* a merge protocol for no benefit — each input is a handful of         *)
(* probes) and probes each delta afresh, so any backend works.          *)
(* ------------------------------------------------------------------ *)

let tol_ckpt_key backend net ~bias_noise ~max_delta ~inputs =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (backend, net, bias_noise, max_delta, inputs) []))

type bisect_state = Start | Bracket of int * int

let tol_ckpt_to_json ~key results cur =
  Util.Json.Obj
    [
      ("key", Util.Json.String key);
      ( "results",
        Util.Json.List
          (List.map
             (function None -> Util.Json.Null | Some d -> Util.Json.Int d)
             results) );
      ( "cur",
        match cur with
        | Start -> Util.Json.Null
        | Bracket (lo, hi) ->
            Util.Json.Obj [ ("lo", Util.Json.Int lo); ("hi", Util.Json.Int hi) ]
      );
    ]

(* The payload read straight from the checkpoint's bytes. [None] when it
   is well-formed JSON of the wrong shape; the leaves are read as values
   so a wrong type is reported as a malformed payload, not a parse
   error. *)
let read_tol_ckpt c =
  let module C = Util.Json.Cursor in
  let result c =
    match C.value c with
    | Util.Json.Null -> Some None
    | Util.Json.Int d -> Some (Some d)
    | _ -> None
  in
  let cur c =
    if C.null c then Some Start
    else
      C.obj
        (fun f ->
          match (C.field_opt f "lo" C.value, C.field_opt f "hi" C.value) with
          | Some (Util.Json.Int lo), Some (Util.Json.Int hi) when lo <= hi ->
              Some (Bracket (lo, hi))
          | _ -> None)
        c
  in
  C.obj
    (fun f ->
      match
        ( C.field_opt f "key" C.value,
          C.field_opt f "results" (C.list result),
          Option.join (C.field_opt f "cur" cur) )
      with
      | Some (Util.Json.String key), Some rs, Some cur
        when List.for_all Option.is_some rs ->
          Some (key, List.map Option.get rs, cur)
      | _ -> None)
    c

let load_tol_ckpt ~key ~path ~n_inputs =
  if not (Sys.file_exists path) then `Fresh
  else
    match Resil.Ckpt.load_with ~kind:"tolerance" ~path read_tol_ckpt with
    | Error msg -> `Damaged msg
    | Ok None -> `Damaged (path ^ ": malformed tolerance checkpoint payload")
    | Ok (Some (k, results, cur)) ->
        if k <> key then
          `Mismatch
            (path
           ^ ": checkpoint belongs to a different tolerance run \
              (backend/network/inputs/range changed)")
        else if List.length results > n_inputs then
          `Damaged (path ^ ": tolerance checkpoint has too many results")
        else `Resume (results, cur)

let network_tolerance_ckpt ?budget ~checkpoint backend net ~bias_noise
    ~max_delta ~inputs =
  if max_delta < 0 then invalid_arg "Tolerance: negative max_delta";
  let key = tol_ckpt_key backend net ~bias_noise ~max_delta ~inputs in
  let results, cur0 =
    match load_tol_ckpt ~key ~path:checkpoint ~n_inputs:(Array.length inputs) with
    | `Fresh -> ([], Start)
    | `Resume (results, cur) -> (results, cur)
    | `Damaged msg ->
        Printf.eprintf
          "warning: %s — ignoring the checkpoint and starting over\n%!" msg;
        ([], Start)
    | `Mismatch msg -> invalid_arg msg
  in
  let done_rev = ref (List.rev results) in
  let cur = ref cur0 in
  let i = ref (List.length results) in
  let save () =
    Resil.Ckpt.save ~kind:"tolerance" ~path:checkpoint
      (tol_ckpt_to_json ~key (List.rev !done_rev) !cur)
  in
  let probe ~input ~label delta =
    try
      Resil.Budget.poll budget;
      flips_at ?budget backend net ~bias_noise ~delta ~input ~label
    with Resil.Budget.Stopped _ as stop ->
      save ();
      raise stop
  in
  let push r =
    done_rev := r :: !done_rev;
    cur := Start;
    incr i;
    save ()
  in
  Obs.Span.with_ "tolerance.network_tolerance" (fun () ->
      while !i < Array.length inputs do
        let input, label = inputs.(!i) in
        match !cur with
        | Start ->
            if not (probe ~input ~label max_delta) then push None
            else if probe ~input ~label 0 then push (Some 0)
            else begin
              cur := Bracket (0, max_delta);
              save ()
            end
        | Bracket (lo, hi) ->
            if hi - lo <= 1 then push (Some hi)
            else begin
              let mid = (lo + hi) / 2 in
              cur :=
                (if probe ~input ~label mid then Bracket (lo, mid)
                 else Bracket (mid, hi));
              save ()
            end
      done);
  if Sys.file_exists checkpoint then Sys.remove checkpoint;
  List.fold_left
    (fun acc -> function None -> acc | Some d -> min acc (d - 1))
    max_delta (List.rev !done_rev)
