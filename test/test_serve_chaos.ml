(* Crash-isolation tests for the supervised fannetd fleet: worker-process
   death/restart/replay, the restart-storm circuit breaker, supervised
   differential answers, typed worker-crash replies, and the chaos soak
   (16 clients under a kill schedule, then a cold restart recovering the
   verdict journal bit for bit).

   These live in their own executable because [Unix.fork] is refused for
   the lifetime of an OCaml 5 process once any domain has ever been
   created in it — so every fork (supervisor creation AND respawn after
   a kill) must happen before anything spawns an in-process worker pool.
   Test order below is load-bearing: the chaos soak runs last because
   its restart phase boots an in-process (domain-spawning) daemon,
   after which no further fork can succeed. *)

module P = Serve.Protocol
module D = Serve.Daemon
module C = Serve.Client
module J = Util.Json
module B = Fannet.Backend
module N = Fannet.Noise
module F = Resil.Faultpoint

let with_clean_faults f =
  F.clear ();
  Fun.protect ~finally:F.clear f

let toy_qnet () =
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

let test_daemon ?(workers = 2) ?(cap = 4) ?(cache_cap_bytes = 1 lsl 26) ?(procs = 0)
    ?store_path () =
  D.run
    {
      D.addr = D.Tcp ("127.0.0.1", 0);
      workers;
      cap;
      cache_cap_bytes;
      timeout_ceiling_s = Some 60.;
      procs;
      store_path;
    }

let with_daemon ?workers ?cap ?cache_cap_bytes ?procs ?store_path f =
  let d = test_daemon ?workers ?cap ?cache_cap_bytes ?procs ?store_path () in
  Fun.protect ~finally:(fun () -> D.stop d) (fun () -> f d)

let with_client d f =
  let c = C.connect (D.address d) in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let with_store_path f =
  let path = Filename.temp_file "fannet_chaos_test" ".jnl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let answer_bytes a = J.to_string (P.answer_json a)

let answer_of_reply name = function
  | P.Answer { cached; answer } -> (cached, answer)
  | r ->
      Alcotest.failf "%s: unexpected reply %s" name (P.encode_reply { rid = 0; reply = r })

(* The query kinds the chaos battery exercises, answered by the library
   directly — the oracle the forked fleet must match. *)
let direct_answer net (q : P.query) : P.answer =
  match q with
  | P.Exists_flip { backend; spec; input; label } ->
      P.Verdict (B.exists_flip backend net spec ~input ~label)
  | P.Tolerance { backend; bias_noise; max_delta; input; label } ->
      P.Min_flip
        (Resil.Budget.catch (fun () ->
             Fannet.Tolerance.input_min_flip_delta backend net ~bias_noise
               ~max_delta ~input ~label))
  | P.Certify { spec; input; label } ->
      let cv = B.certified_exists_flip net spec ~input ~label in
      P.Certified { verdict = cv.B.cv_verdict; cert = cv.B.cv_cert }
  | _ -> Alcotest.fail "query kind not part of the chaos battery"

let chaos_queries net =
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  let spec = N.symmetric ~delta:10 ~bias_noise:false in
  [
    ("exists-flip bnb", P.Exists_flip { backend = B.Bnb; spec; input; label });
    ( "tolerance",
      P.Tolerance { backend = B.Bnb; bias_noise = false; max_delta = 20; input; label } );
    ("certify", P.Certify { spec; input; label });
  ]

let poll_until ?(timeout_s = 5.0) what pred =
  let t0 = Obs.Clock.now_ns () in
  let rec go () =
    if pred () then ()
    else if Obs.Clock.elapsed_s ~since:t0 > timeout_s then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

(* ================================================================== *)
(* Supervisor                                                          *)
(* ================================================================== *)

let sup_execute net ~budget:_ q = P.Answer { cached = false; answer = direct_answer net q }

let sup_net_parts () =
  let net = toy_qnet () in
  let canonical = Nn.Qnet.to_string net in
  (net, canonical, P.network_digest canonical)

let sup_query net =
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  P.Exists_flip
    { backend = B.Bnb; spec = N.symmetric ~delta:1 ~bias_noise:false; input; label }

let test_supervisor_restart_and_replay () =
  with_clean_faults @@ fun () ->
  let net, canonical, digest = sup_net_parts () in
  (* Armed tables are inherited across fork: the child dies, as if
     OOM-killed, on its first query receipt. *)
  F.arm "serve.worker.kill@1";
  let sup = Serve.Supervisor.create ~procs:1 ~workers:1 ~execute:sup_execute () in
  Fun.protect ~finally:(fun () -> Serve.Supervisor.stop sup) @@ fun () ->
  Serve.Supervisor.load sup ~digest ~network:canonical;
  let q = sup_query net in
  (match Serve.Supervisor.query sup ~digest ~query:q ~budget:P.no_budget with
  | Error _ -> ()
  | Ok r ->
      Alcotest.failf "killed child answered: %s" (P.encode_reply { rid = 0; reply = r }));
  (* The query fails the instant the EOF lands; the death bookkeeping on
     the reader thread may land a beat later. *)
  poll_until "death recorded" (fun () -> Serve.Supervisor.deaths sup = 1);
  (* Disarm before the respawn forks, wait out the backoff: the next
     query must respawn the child, replay the load, and answer. *)
  F.clear ();
  Thread.delay 0.08;
  (match Serve.Supervisor.query sup ~digest ~query:q ~budget:P.no_budget with
  | Ok (P.Answer { answer; _ }) ->
      Alcotest.(check bool) "replayed net answers correctly" true
        (P.answer_equal answer (direct_answer net q))
  | Ok r -> Alcotest.failf "unexpected reply %s" (P.encode_reply { rid = 0; reply = r })
  | Error e -> Alcotest.failf "respawned child failed: %s" e);
  Alcotest.(check int) "one restart" 1 (Serve.Supervisor.restarts sup);
  (* An unknown digest is a typed server error from the child, not a
     supervisor failure. *)
  match Serve.Supervisor.query sup ~digest:"bogus" ~query:q ~budget:P.no_budget with
  | Ok (P.Server_error _) -> ()
  | Ok r -> Alcotest.failf "unexpected reply %s" (P.encode_reply { rid = 0; reply = r })
  | Error e -> Alcotest.failf "unknown digest must be typed, got supervisor error %s" e

let test_supervisor_storm_circuit () =
  with_clean_faults @@ fun () ->
  let net, canonical, digest = sup_net_parts () in
  (* Every query kills its child: a fork-crash loop. The policy keeps
     the loop fast and the circuit observable. *)
  F.arm "serve.worker.kill";
  let policy =
    {
      Serve.Supervisor.backoff_base_s = 0.005;
      backoff_max_s = 0.01;
      storm_limit = 3;
      storm_window_s = 30.;
      cooloff_s = 0.3;
    }
  in
  let sup =
    Serve.Supervisor.create ~policy ~procs:1 ~workers:1 ~execute:sup_execute ()
  in
  Fun.protect ~finally:(fun () -> Serve.Supervisor.stop sup) @@ fun () ->
  Serve.Supervisor.load sup ~digest ~network:canonical;
  let q = sup_query net in
  let errors = ref 0 in
  for _ = 1 to 8 do
    (match Serve.Supervisor.query sup ~digest ~query:q ~budget:P.no_budget with
    | Error _ -> incr errors
    | Ok r ->
        Alcotest.failf "crash-loop answered: %s" (P.encode_reply { rid = 0; reply = r }));
    Thread.delay 0.02
  done;
  Alcotest.(check int) "every attempt failed typed" 8 !errors;
  (* The breaker opened: far fewer corpses than attempts. *)
  let deaths = Serve.Supervisor.deaths sup in
  Alcotest.(check bool) "circuit capped the burn" true (deaths < 8);
  Alcotest.(check bool) "storm observed" true
    (deaths > policy.Serve.Supervisor.storm_limit);
  (* Disarm, wait out the cooloff: the shard must come back by itself. *)
  F.clear ();
  Thread.delay (policy.Serve.Supervisor.cooloff_s +. 0.3);
  match Serve.Supervisor.query sup ~digest ~query:q ~budget:P.no_budget with
  | Ok (P.Answer { answer; _ }) ->
      Alcotest.(check bool) "recovered after cooloff" true
        (P.answer_equal answer (direct_answer net q))
  | Ok r -> Alcotest.failf "unexpected reply %s" (P.encode_reply { rid = 0; reply = r })
  | Error e -> Alcotest.failf "shard did not recover: %s" e

(* ================================================================== *)
(* Supervised daemon                                                   *)
(* ================================================================== *)

let test_daemon_supervised_differential () =
  with_daemon ~procs:2 ~workers:1 @@ fun d ->
  with_client d @@ fun c ->
  let net = toy_qnet () in
  let digest = ok (C.load c net) in
  List.iter
    (fun (name, q) ->
      let expected = direct_answer net q in
      let cached1, cold = answer_of_reply name (ok (C.query c ~digest q)) in
      let cached2, hit = answer_of_reply name (ok (C.query c ~digest q)) in
      Alcotest.(check bool) (name ^ ": first is a miss") false cached1;
      Alcotest.(check bool) (name ^ ": second hits the parent cache") true cached2;
      Alcotest.(check bool)
        (name ^ ": forked answer = direct")
        true (P.answer_equal cold expected);
      Alcotest.(check string)
        (name ^ ": hit bit-identical")
        (answer_bytes cold) (answer_bytes hit))
    (chaos_queries net);
  Alcotest.(check bool) "supervised stats exposed" true (D.supervisor_stats d <> None)

let test_daemon_worker_crash_typed () =
  with_clean_faults @@ fun () ->
  (* Child dies on its first query receipt — armed before the fork. *)
  F.arm "serve.worker.kill@1";
  with_daemon ~procs:1 ~workers:1 @@ fun d ->
  with_client d @@ fun c ->
  let net = toy_qnet () in
  let digest = ok (C.load c net) in
  let q = sup_query net in
  (* The crash mid-query is a typed server-error reply — the connection
     survives and the daemon keeps serving. *)
  (match ok (C.query c ~digest q) with
  | P.Server_error _ -> ()
  | r ->
      Alcotest.failf "wanted Server_error, got %s" (P.encode_reply { rid = 0; reply = r }));
  F.clear ();
  (* The client-side retry loop rides over the restart window. *)
  (match ok (C.query c ~digest ~retries:6 q) with
  | P.Answer { answer; _ } ->
      Alcotest.(check bool) "answer after restart = direct" true
        (P.answer_equal answer (direct_answer net q))
  | r -> Alcotest.failf "retries exhausted: %s" (P.encode_reply { rid = 0; reply = r }));
  (match D.supervisor_stats d with
  | Some (restarts, deaths) ->
      Alcotest.(check bool) "death counted" true (deaths >= 1);
      Alcotest.(check bool) "restart counted" true (restarts >= 1)
  | None -> Alcotest.fail "supervised daemon must expose fleet stats");
  let s = D.stats d in
  Alcotest.(check bool) "crash counted as failed" true (s.P.failed >= 1);
  Alcotest.(check int) "identity" s.P.submitted (s.P.served + s.P.rejected + s.P.failed)

(* ================================================================== *)
(* Chaos soak: supervised fleet + store under a kill schedule          *)
(* ================================================================== *)

let test_daemon_chaos_soak () =
  with_clean_faults @@ fun () ->
  with_store_path @@ fun path ->
  let net = toy_qnet () in
  (* Inherited by every child at fork: each worker process dies, as if
     OOM-killed, on every 7th query it receives. *)
  F.arm "serve.worker.kill%7";
  let n_clients = 16 and per_client = 4 in
  let query_for k j =
    (* Distinct per (client, step): every query misses the parent cache
       and reaches a worker, so the kill schedule is guaranteed to fire. *)
    let input = [| 100 + (4 * k) + j; 80 - k |] in
    let label = Nn.Qnet.predict net input in
    match j mod 4 with
    | 0 ->
        P.Exists_flip
          {
            backend = B.Bnb;
            spec = N.symmetric ~delta:(1 + (k mod 2)) ~bias_noise:false;
            input;
            label;
          }
    | 1 -> P.Certify { spec = N.symmetric ~delta:2 ~bias_noise:false; input; label }
    | 2 ->
        P.Tolerance { backend = B.Bnb; bias_noise = false; max_delta = 4; input; label }
    | _ -> P.Sensitivity { spec = N.symmetric ~delta:1 ~bias_noise:false; input; label }
  in
  let recorded_lock = Mutex.create () in
  let recorded = ref [] in
  let digest0 =
    let d = test_daemon ~procs:2 ~workers:2 ~cap:32 ~store_path:path () in
    Fun.protect ~finally:(fun () -> D.stop d) @@ fun () ->
    let digest = with_client d (fun c -> ok (C.load c net)) in
    let anomalies = Atomic.make 0 in
    let client k () =
      with_client d @@ fun c ->
      for j = 0 to per_client - 1 do
        let q = query_for k j in
        match C.query c ~digest ~retries:5 q with
        | Ok (P.Answer { answer; _ }) when P.answer_decided answer ->
            Mutex.lock recorded_lock;
            recorded := (q, answer_bytes answer) :: !recorded;
            Mutex.unlock recorded_lock
        | Ok (P.Answer _ | P.Overloaded _ | P.Server_error _) -> ()
        | Ok _ | Error _ -> Atomic.incr anomalies
      done
    in
    let threads = Array.init n_clients (fun k -> Thread.create (client k) ()) in
    Array.iter Thread.join threads;
    Alcotest.(check int) "every reply typed, no dead connections" 0
      (Atomic.get anomalies);
    poll_until "daemon idle" (fun () -> (D.stats d).P.in_flight = 0);
    let s = D.stats d in
    (* Client retries re-submit, so submitted >= the logical query count;
       the identity must hold over everything that was admitted. *)
    Alcotest.(check bool) "all logical queries submitted" true
      (s.P.submitted >= n_clients * per_client);
    Alcotest.(check int) "served + rejected + failed = submitted" s.P.submitted
      (s.P.served + s.P.rejected + s.P.failed);
    (* The schedule killed workers, the fleet restarted them and the
       daemon survived each one. *)
    poll_until "a worker death and a restart" (fun () ->
        match D.supervisor_stats d with
        | Some (restarts, deaths) -> restarts >= 1 && deaths >= 1
        | None -> Alcotest.fail "supervised daemon must expose fleet stats");
    Alcotest.(check bool) "the daemon still answers" true
      (with_client d (fun c -> C.ping c) = Ok ());
    (* Certificate-bearing replies are large, so their writes rarely
       win the race against a receipt-triggered kill and the soak may
       record none. Once the traffic stops, record one certified answer
       so the recovery below re-checks a certificate. Clearing steers
       only workers spawned from now on; a live worker keeps its
       schedule, and the retries ride through at most one more kill. *)
    F.clear ();
    (let input = [| 99; 99 |] in
     let q =
       P.Certify
         {
           spec = N.symmetric ~delta:1 ~bias_noise:false;
           input;
           label = Nn.Qnet.predict net input;
         }
     in
     match with_client d (fun c -> ok (C.query c ~digest ~retries:8 q)) with
     | P.Answer { answer = P.Certified _ as answer; _ } when P.answer_decided answer ->
         recorded := (q, answer_bytes answer) :: !recorded
     | r ->
         Alcotest.failf "post-soak certify must decide with a certificate, got %s"
           (P.encode_reply { rid = 0; reply = r }));
    digest
  in
  Alcotest.(check bool) "soak produced decided answers" true (!recorded <> []);
  (* Cold restart on the journal the kill storm wrote: every decided
     answer that crossed the wire comes back from the recovered cache,
     bit for bit. (The restart daemon is in-process — it spawns domains,
     so it must be the last daemon this test executable boots.) *)
  let d = test_daemon ~store_path:path () in
  Fun.protect ~finally:(fun () -> D.stop d) @@ fun () ->
  (match D.store_stats d with
  | Some st ->
      Alcotest.(check bool) "records recovered" true (st.Serve.Store.recovered > 0)
  | None -> Alcotest.fail "store stats must be exposed");
  with_client d @@ fun c ->
  let digest = ok (C.load c net) in
  Alcotest.(check string) "digest stable across restart" digest0 digest;
  List.iter
    (fun (q, bytes) ->
      match answer_of_reply "recovered" (ok (C.query c ~digest q)) with
      | true, a ->
          Alcotest.(check string) "recovered bit-identical" bytes (answer_bytes a);
          (match (q, a) with
          | P.Certify { spec; input; label }, P.Certified { verdict; cert } -> (
              match
                B.check_certified net spec ~input ~label
                  { B.cv_verdict = verdict; cv_cert = cert }
              with
              | Ok () -> ()
              | Error e -> Alcotest.failf "recovered certificate rejected: %s" e)
          | _, P.Certified _ -> Alcotest.fail "certified answer for a non-certify query"
          | _ -> ())
      | false, _ -> Alcotest.fail "survivor must be a cache hit")
    !recorded

let () =
  Alcotest.run "serve-chaos"
    [
      ( "supervisor",
        [
          Alcotest.test_case "death, restart, load replay" `Quick
            test_supervisor_restart_and_replay;
          Alcotest.test_case "restart-storm circuit breaker" `Quick
            test_supervisor_storm_circuit;
        ] );
      ( "crash-isolation",
        [
          Alcotest.test_case "supervised differential + parent cache" `Quick
            test_daemon_supervised_differential;
          Alcotest.test_case "worker crash is a typed reply" `Quick
            test_daemon_worker_crash_typed;
          (* Last: its restart phase spawns in-process domains, after
             which no fork can succeed in this process. *)
          Alcotest.test_case "chaos soak: 16 clients under kill schedule" `Quick
            test_daemon_chaos_soak;
        ] );
    ]
