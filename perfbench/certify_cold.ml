(* certify-cold: fresh certified verdicts and certified counts, in
   process. Term building, bit-blasting, CDCL, DRUP logging and the
   lib/cert check do all the work; Bnb, wire and cache do none. *)

open Common

(* The 2-4-2 network of the serving benches (E20). *)
let small_qnet () =
  Nn.Qnet.create
    [|
      {
        Nn.Qnet.weights = [| [| 31; -22 |]; [| -13; 41 |]; [| 17; 9 |]; [| -25; 14 |] |];
        bias = [| 55; -31; 12; -7 |];
        act = Nn.Qnet.Relu;
      };
      {
        Nn.Qnet.weights = [| [| 21; -33; 11; -9 |]; [| -20; 31; -12; 10 |] |];
        bias = [| 13; 0 |];
        act = Nn.Qnet.Identity;
      };
    |]

type query = {
  qnet : Nn.Qnet.t;
  spec : Fannet.Noise.spec;
  input : int array;
  label : int;
  flips : int;  (** reference: Bnb.count_flips *)
}

let make qnet ~delta input =
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
  let label = Nn.Qnet.predict qnet input in
  let flips, _ = Fannet.Bnb.count_flips qnet spec ~input ~label in
  { qnet; spec; input; label; flips }

(* Query streams drawn from the seed, distinct within a run. Certify ops
   cycle 2-4-2, 2-4-2, binarized/6x2; counts run on 2-4-2; all at delta
   1. Counts alternate between inputs with zero and with some flips, so
   half of them certify an empty set. The 2-4-2 certify ops are robust
   inputs, the costlier and more uniform kind: the op median then sits
   inside one mode of the latency mix rather than between two, where the
   seed would move it. *)
type stream = { certify : query array; count : query array }

let pool_size = 600

let build_stream seed =
  let rng = Util.Rng.create (0x5eed_c0 + seed) in
  let small = small_qnet () in
  let rung = Nn.Ladder.rung ~family:Nn.Ladder.Binarized ~n_inputs:6 ~n_layers:2 ~seed:60 in
  let seen = Hashtbl.create 4096 in
  let rec fresh draw =
    let q = draw () in
    let key = (q.input, q.spec.Fannet.Noise.delta_hi, Nn.Qnet.in_dim q.qnet) in
    if Hashtbl.mem seen key then fresh draw
    else begin
      Hashtbl.add seen key ();
      q
    end
  in
  let small_input () = [| Util.Rng.int_in rng 40 160; Util.Rng.int_in rng 40 160 |] in
  let rung_input () =
    Array.map (fun x -> max 1 (min 60 (x + Util.Rng.int_in rng (-6) 6))) rung.Nn.Ladder.input
  in
  (* Inputs with flips are rare: draw until one of the wanted kind. *)
  let rec draw_small ~zero =
    let q = fresh (fun () -> make small ~delta:1 (small_input ())) in
    if (q.flips = 0) = zero then q else draw_small ~zero
  in
  let certify =
    Array.init pool_size (fun i ->
        if i mod 3 < 2 then draw_small ~zero:true
        else fresh (fun () -> make rung.Nn.Ladder.qnet ~delta:1 (rung_input ())))
  in
  let count =
    Array.init (pool_size / 3) (fun i -> draw_small ~zero:(i mod 2 = 0))
  in
  { certify; count }

type outcome = { ok : bool; ms : float; is_count : bool }

(* The op as a user runs it: library calls, then the independent check. *)
let certify_op q =
  let cv = Fannet.Backend.certified_exists_flip q.qnet q.spec ~input:q.input ~label:q.label in
  let checked = Fannet.Backend.check_certified q.qnet q.spec ~input:q.input ~label:q.label cv in
  (cv.Fannet.Backend.cv_verdict, checked, cv.Fannet.Backend.cv_cert)

(* The same op split at its public steps, for the traced run. *)
let certify_op_traced q =
  let open Trace in
  let enc, goal =
    layer "encode.term" (fun () ->
        let enc = Fannet.Encode.encode q.qnet ~input:q.input q.spec in
        (enc, Fannet.Encode.misclassified enc ~true_label:q.label))
  in
  let trace = Cert.Proof.create () in
  let session =
    layer "encode.bitblast" (fun () -> Smtlite.Solve.open_session ~trace goal)
  in
  let outcome, cert = layer "solve.sat" (fun () -> Smtlite.Solve.solve_certified session) in
  let verdict =
    match outcome with
    | Smtlite.Solve.Sat m -> Fannet.Backend.Flip (Fannet.Encode.vector_of_model enc m)
    | Smtlite.Solve.Unsat -> Fannet.Backend.Robust
    | Smtlite.Solve.Unknown r -> Fannet.Backend.Unknown r
  in
  let cv = { Fannet.Backend.cv_verdict = verdict; cv_cert = cert } in
  let checked =
    layer "cert.check" (fun () ->
        Fannet.Backend.check_certified q.qnet q.spec ~input:q.input ~label:q.label cv)
  in
  let st = Smtlite.Solve.stats session in
  count "solve.conflicts" (float_of_int st.Sat.Solver.conflicts);
  count "solve.propagations" (float_of_int st.Sat.Solver.propagations);
  count "proof.steps" (float_of_int (Cert.Proof.n_steps trace));
  count "certify.ops" 1.;
  (match cert with
  | Some (Cert.Verdict.Model { n_vars; cnf; _ } | Cert.Verdict.Refutation { n_vars; cnf; _ }) ->
      count "encode.vars" (float_of_int n_vars);
      count "encode.clauses" (float_of_int (List.length cnf))
  | None -> ());
  (verdict, checked, cert)

(* Outside the op: what the proof trace costs (the same encode and
   solve without one) and what the certified answer weighs on the wire. *)
let certify_extras q verdict cert ~traced_ms =
  let t0 = now () in
  let enc = Fannet.Encode.encode q.qnet ~input:q.input q.spec in
  let session = Smtlite.Solve.open_session (Fannet.Encode.misclassified enc ~true_label:q.label) in
  ignore (Smtlite.Solve.solve session);
  let plain_ms = ms_since t0 in
  Trace.count "proof.overhead_ms" (traced_ms -. plain_ms);
  let answer = Serve.Protocol.Certified { verdict; cert } in
  Trace.count "proof.cert_bytes"
    (float_of_int (String.length (Util.Json.to_string (Serve.Protocol.answer_json answer))))

let count_op ~traced q =
  let layer name f = if traced then Trace.layer name f else f () in
  let r =
    layer "count.certified" (fun () ->
        Fannet.Robustness.probability
          ~mode:(Fannet.Robustness.Exact_mode { certify = true })
          q.qnet q.spec ~input:q.input ~label:q.label)
  in
  let checked =
    match r.Fannet.Robustness.certificate with
    | None -> Error "no count certificate"
    | Some c ->
        layer "cert.count_check" (fun () ->
            Fannet.Robustness.check_certificate q.qnet q.spec ~input:q.input ~label:q.label c)
  in
  (r, checked)

let verdict_agrees q = function
  | Fannet.Backend.Robust -> q.flips = 0
  | Fannet.Backend.Flip _ -> q.flips > 0
  | Fannet.Backend.Unknown _ -> false

let run ~seed ~seconds ~trace =
  let stream, setup_s = repeated_setup ~reps:3 ~discard:ignore (fun () -> build_stream seed) in
  let outcomes = ref [] in
  let zero_counts = ref 0 and counts_run = ref 0 in
  let deadline = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let t_start = now () in
  let rec loop i =
    if Int64.compare (now ()) deadline < 0 && i / 4 < Array.length stream.count then begin
      let is_count = i mod 4 = 3 in
      let traced = trace && i / 4 mod 2 = 1 in
      let ok, ms =
        if is_count then begin
          let q = stream.count.(i / 4) in
          let (r, checked), ms = Trace.op ~traced (fun () -> count_op ~traced q) in
          incr counts_run;
          if q.flips = 0 then incr zero_counts;
          if traced then begin
            Trace.count "count.ops" 1.;
            Trace.count "count.solver_calls" (float_of_int r.Fannet.Robustness.solver_calls);
            (match r.Fannet.Robustness.certificate with
            | Some c ->
                Trace.count "count.cubes" (float_of_int (List.length c.Count.Certificate.entries))
            | None -> ());
            let t0 = now () in
            ignore (Fannet.Robustness.probability q.qnet q.spec ~input:q.input ~label:q.label);
            Trace.count "count.plain_ms" (ms_since t0)
          end;
          let exact =
            Util.Bigcount.equal r.Fannet.Robustness.flips (Util.Bigcount.of_int q.flips)
          in
          (exact && Result.is_ok checked && r.Fannet.Robustness.status = Ok (), ms)
        end
        else begin
          let q = stream.certify.((3 * (i / 4)) + (i mod 4)) in
          let (verdict, checked, cert), ms =
            Trace.op ~traced (fun () -> if traced then certify_op_traced q else certify_op q)
          in
          if traced then certify_extras q verdict cert ~traced_ms:ms;
          (verdict_agrees q verdict && Result.is_ok checked, ms)
        end
      in
      outcomes := { ok; ms; is_count } :: !outcomes;
      loop (i + 1)
    end
  in
  loop 0;
  let wall = s_since t_start in
  let all = Array.of_list (List.rev !outcomes) in
  let lat = Array.map (fun o -> o.ms) all in
  let pick f =
    Array.of_list (List.filter_map (fun o -> if f o then Some o.ms else None) (Array.to_list all))
  in
  let failed = Array.fold_left (fun n o -> if o.ok then n else n + 1) 0 all in
  (* In a traced run the layer spans must account for 90% of the op. *)
  let failed = if trace && Trace.coverage () < 0.9 then failed + 1 else failed in
  let n = Array.length all in
  let tail_ms, tail_p = tail lat in
  let certify_p50 = median (pick (fun o -> not o.is_count)) in
  let count_p50 = median (pick (fun o -> o.is_count)) in
  Printf.printf "certify-cold: %d ops (%d counts, %d of them zero-flip) in %.2f s\n" n
    !counts_run !zero_counts wall;
  Printf.printf "op_tail_ms is p%.1f of n=%d\n" tail_p n;
  Printf.printf "certify_p50_ms %.3f ms\ncount_p50_ms %.3f ms\nfail_share %.4f share\n"
    certify_p50 count_p50
    (float_of_int failed /. float_of_int (max 1 n));
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("ops_per_s", float_of_int n /. wall);
      ("op_p50_ms", median lat);
      ("op_tail_ms", tail_ms);
      ("peak_rss_mb", peak_rss_mb None);
    ]
  in
  let metrics =
    if not trace then end_to_end
    else begin
      let per name ops = Trace.total name /. Float.max 1. (Trace.total ops) in
      let layers =
        [
          ("encode.term_ms", Trace.self_ms "encode.term");
          ("encode.bitblast_ms", Trace.self_ms "encode.bitblast");
          ("solve.sat_ms", Trace.self_ms "solve.sat");
          ("cert.check_ms", Trace.self_ms "cert.check");
          ("count.certified_ms", Trace.self_ms "count.certified");
          ("cert.count_check_ms", Trace.self_ms "cert.count_check");
        ]
      in
      Trace.print_table ~title:"certify-cold" layers;
      layers
      @ [
          ("trace.coverage", Trace.coverage ());
          ("trace.overhead_ms", Trace.overhead_ms ());
          ("op.certify_p50_ms", certify_p50);
          ("op.count_p50_ms", count_p50);
          ("encode.clauses", per "encode.clauses" "certify.ops");
          ("encode.vars", per "encode.vars" "certify.ops");
          ("solve.conflicts", per "solve.conflicts" "certify.ops");
          ("solve.propagations", per "solve.propagations" "certify.ops");
          ("proof.overhead_ms", per "proof.overhead_ms" "certify.ops");
          ("proof.steps", per "proof.steps" "certify.ops");
          ("proof.cert_bytes", per "proof.cert_bytes" "certify.ops");
          ("count.plain_ms", per "count.plain_ms" "count.ops");
          ("count.solver_calls", per "count.solver_calls" "count.ops");
          ("count.cubes", per "count.cubes" "count.ops");
          ( "count.zero_flip_share",
            float_of_int !zero_counts /. float_of_int (max 1 !counts_run) );
        ]
    end
  in
  { correct = failed = 0; attempted = n; failed; metrics }
