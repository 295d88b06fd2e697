(* Tests for the serving layer: fannet-wire/1 framing and message codec
   (QCheck roundtrips + malformed-input totality), the LRU verdict cache,
   the resident worker pool, differential daemon-vs-library answers
   (cold / warm / cache-hit, certificates re-checked independently), a
   16-client concurrency soak under injected faults with the accounting
   identity served + rejected + failed = submitted, and the Warm
   per-entry LRU eviction regression. *)

module W = Serve.Wire
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

let tiny_qnet () =
  Nn.Qnet.create
    [|
      { Nn.Qnet.weights = [| [| 3; -2 |]; [| -1; 2 |] |]; bias = [| 1; 0 |]; act = Nn.Qnet.Relu };
      { Nn.Qnet.weights = [| [| 2; -1 |]; [| -1; 2 |] |]; bias = [| 0; 1 |]; act = Nn.Qnet.Identity };
    |]

(* Both output rows identical, bias 5 vs 0: output 0 wins for every
   input, so no noise vector can flip label 0 and an explicit
   enumeration can never early-exit on a witness. *)
let constant_qnet () =
  Nn.Qnet.create
    [|
      { Nn.Qnet.weights = [| [| 3; -2 |]; [| -1; 2 |] |]; bias = [| 1; 0 |]; act = Nn.Qnet.Relu };
      { Nn.Qnet.weights = [| [| 2; 3 |]; [| 2; 3 |] |]; bias = [| 5; 0 |]; act = Nn.Qnet.Identity };
    |]

let test_daemon ?(workers = 2) ?(cap = 4) ?(cache_cap_bytes = 1 lsl 20) ?(procs = 0)
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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ================================================================== *)
(* Wire framing                                                        *)
(* ================================================================== *)

let arb_payload =
  (* Opaque bytes, full char range, up to a few hundred bytes. *)
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(string_size ~gen:char (0 -- 300))

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire: decode (encode p) = p" ~count:300 arb_payload
    (fun p ->
      match W.decode (W.encode p) with
      | Ok (p', used) -> p' = p && used = String.length p + 8
      | Error _ -> false)

let prop_wire_concat =
  QCheck.Test.make ~name:"wire: frames concatenate" ~count:200
    (QCheck.pair arb_payload arb_payload) (fun (a, b) ->
      let buf = W.encode a ^ W.encode b in
      match W.decode buf with
      | Ok (a', used) -> (
          a' = a
          && match W.decode (String.sub buf used (String.length buf - used)) with
             | Ok (b', _) -> b' = b
             | Error _ -> false)
      | Error _ -> false)

let prop_wire_truncation_typed =
  QCheck.Test.make ~name:"wire: every strict prefix is Closed/Truncated" ~count:100
    arb_payload (fun p ->
      let frame = W.encode p in
      let n = String.length frame in
      let cuts = [ 0; 1; 3; 4; 7; min 8 (n - 1); n - 1 ] in
      List.for_all
        (fun k ->
          let k = max 0 (min k (n - 1)) in
          match W.decode (String.sub frame 0 k) with
          | Error W.Closed -> k = 0
          | Error W.Truncated -> k > 0
          | _ -> false)
        cuts)

let prop_wire_decode_total =
  (* Arbitrary garbage: decode always returns, never raises. *)
  QCheck.Test.make ~name:"wire: decode is total on garbage" ~count:500 arb_payload
    (fun s -> match W.decode s with Ok _ | Error _ -> true)

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.to_string b

let test_wire_bad_magic () =
  (match W.decode "JUNKJUNKJUNK" with
  | Error (W.Bad_magic got) -> Alcotest.(check string) "the read bytes" "JUNK" got
  | _ -> Alcotest.fail "expected Bad_magic");
  match W.decode "JU" with
  | Error (W.Bad_magic _) -> ()
  | _ -> Alcotest.fail "short non-magic prefix is Bad_magic"

let test_wire_oversized () =
  let hdr = W.magic ^ be32 (W.max_payload + 1) in
  (match W.decode hdr with
  | Error (W.Oversized n) -> Alcotest.(check int) "claimed" (W.max_payload + 1) n
  | _ -> Alcotest.fail "expected Oversized");
  (* A length with the top bit set must not wrap into a small read. *)
  match W.decode (W.magic ^ "\x80\x00\x00\x00") with
  | Error (W.Oversized _) -> ()
  | _ -> Alcotest.fail "expected Oversized for 2^31"

let test_wire_encode_cap () =
  match W.encode (String.make (W.max_payload + 1) 'x') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode above max_payload must raise"

(* ================================================================== *)
(* Protocol codec                                                      *)
(* ================================================================== *)

let gen_name = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (0 -- 12))

let gen_backend =
  QCheck.Gen.(
    let base =
      oneof
        [
          return B.Bnb;
          return B.Smt;
          map (fun limit -> B.Explicit { limit }) (0 -- 10_000);
          return B.Interval;
        ]
    in
    oneof [ base; map (fun b -> B.Cascade b) base ])

let gen_spec =
  QCheck.Gen.(
    let* delta_lo = -50 -- 0 in
    let* delta_hi = 0 -- 50 in
    let* bias_noise = bool in
    let+ kind = oneofl [ N.Relative; N.Absolute ] in
    { N.delta_lo; delta_hi; bias_noise; kind })

let gen_input = QCheck.Gen.(array_size (1 -- 6) (-200 -- 200))

let gen_query =
  QCheck.Gen.(
    let* input = gen_input in
    let* label = 0 -- 3 in
    oneof
      [
        (let* backend = gen_backend in
         let+ spec = gen_spec in
         P.Exists_flip { backend; spec; input; label });
        (let* backend = gen_backend in
         let* bias_noise = bool in
         let+ max_delta = 0 -- 60 in
         P.Tolerance { backend; bias_noise; max_delta; input; label });
        (let+ spec = gen_spec in
         P.Sensitivity { spec; input; label });
        (let+ spec = gen_spec in
         P.Certify { spec; input; label });
        (let* spec = gen_spec in
         let+ mode =
           oneof
             [
               map (fun certify -> P.Count_exact { certify }) bool;
               (* Dyadic epsilon/delta survive the %.12g float printer. *)
               (let* e16 = 1 -- 64 in
                let* d16 = 1 -- 15 in
                let+ seed = 0 -- 1000 in
                P.Count_approx
                  {
                    epsilon = float_of_int e16 /. 16.;
                    delta = float_of_int d16 /. 16.;
                    seed;
                  });
             ]
         in
         P.Count { spec; input; label; mode });
      ])

let gen_budget =
  QCheck.Gen.(
    let* timeout_s =
      (* Dyadic fractions survive the %.12g float printer exactly. *)
      opt (map (fun k -> float_of_int k /. 16.) (0 -- 1000))
    in
    let+ conflicts = opt (0 -- 100_000) in
    { P.timeout_s; conflicts })

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun network -> P.Load { network }) gen_name;
        (let* digest = gen_name in
         let* query = gen_query in
         let+ budget = gen_budget in
         P.Query { digest; query; budget });
        return P.Metrics;
        return P.Ping;
        return P.Shutdown;
      ])

let gen_reason =
  QCheck.Gen.oneofl
    Resil.Budget.[ Deadline; Conflicts; Memory; Cancelled; Incomplete ]

let gen_vector =
  QCheck.Gen.(
    let* bias = -20 -- 20 in
    let+ inputs = gen_input in
    { N.bias; inputs })

let gen_verdict =
  QCheck.Gen.(
    oneof
      [
        return B.Robust;
        map (fun v -> B.Flip v) gen_vector;
        map (fun r -> B.Unknown r) gen_reason;
      ])

let gen_clause = QCheck.Gen.(list_size (0 -- 4) (oneofl [ -3; -2; -1; 1; 2; 3 ]))

let gen_cert =
  QCheck.Gen.(
    let* n_vars = 1 -- 6 in
    let* cnf = list_size (0 -- 5) gen_clause in
    let* assumptions = gen_clause in
    oneof
      [
        (let+ model = array_size (return n_vars) bool in
         Cert.Verdict.Model { n_vars; cnf; assumptions; model });
        (let+ proof =
           list_size (0 -- 4)
             (oneof
                [
                  map (fun c -> Cert.Rup.Learn c) gen_clause;
                  map (fun c -> Cert.Rup.Delete c) gen_clause;
                ])
         in
         Cert.Verdict.Refutation { n_vars; cnf; assumptions; proof });
      ])

let gen_bigcount =
  QCheck.Gen.(
    oneof
      [
        map Util.Bigcount.of_int (0 -- 1_000_000);
        (* Dyadic log2 values roundtrip through the float printer. *)
        map (fun k -> Util.Bigcount.Huge (float_of_int k /. 4.)) (256 -- 2048);
      ])

let gen_side =
  QCheck.Gen.(
    let* fs_node = 0 -- 6 in
    let* positive_flip = bool in
    let+ negative_flip = bool in
    { Fannet.Sensitivity.fs_node; positive_flip; negative_flip })

let gen_answer =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> P.Verdict v) gen_verdict;
        map (fun r -> P.Min_flip r)
          (oneof
             [ map (fun o -> Ok o) (opt (0 -- 60)); map (fun r -> Error r) gen_reason ]);
        map (fun r -> P.Sidedness r)
          (oneof
             [
               map (fun l -> Ok (Array.of_list l)) (list_size (0 -- 4) gen_side);
               map (fun r -> Error r) gen_reason;
             ]);
        (let* verdict = gen_verdict in
         let+ cert = opt gen_cert in
         P.Certified { verdict; cert });
        map (fun r -> P.Counted r)
          (oneof
             [
               (let* flips = gen_bigcount in
                let+ total = gen_bigcount in
                Ok { P.flips; total; count_cert = None });
               map (fun r -> Error r) gen_reason;
             ]);
      ])

let gen_stats =
  QCheck.Gen.(
    let n = 0 -- 1000 in
    let* submitted = n and* served = n and* rejected = n and* failed = n in
    let* cache_hits = n and* cache_misses = n and* cache_len = n in
    let* in_flight = n in
    let+ networks = n in
    {
      P.submitted;
      served;
      rejected;
      failed;
      cache_hits;
      cache_misses;
      cache_len;
      in_flight;
      networks;
    })

let gen_obs =
  QCheck.Gen.(
    oneof
      [
        return J.Null;
        map (fun n -> J.Int n) (0 -- 100);
        map (fun b -> J.Bool b) bool;
        map (fun s -> J.String s) gen_name;
        map (fun l -> J.List (List.map (fun n -> J.Int n) l)) (list_size (0 -- 3) (0 -- 9));
      ])

let gen_reply =
  QCheck.Gen.(
    oneof
      [
        map (fun digest -> P.Loaded { digest }) gen_name;
        (let* cached = bool in
         let+ answer = gen_answer in
         P.Answer { cached; answer });
        (let* in_flight = 0 -- 100 in
         let+ cap = 1 -- 100 in
         P.Overloaded { in_flight; cap });
        (let* stats = gen_stats in
         let+ obs = gen_obs in
         P.Metrics_reply { stats; obs });
        return P.Pong;
        return P.Bye;
        map (fun e -> P.Protocol_error e) gen_name;
        map (fun e -> P.Server_error e) gen_name;
      ])

let arb_req_envelope =
  QCheck.make
    ~print:(fun e -> P.encode_request e)
    QCheck.Gen.(
      let* rid = 0 -- 1_000_000 in
      let+ request = gen_request in
      { P.rid; request })

let arb_reply_envelope =
  QCheck.make
    ~print:(fun e -> P.encode_reply e)
    QCheck.Gen.(
      let* rid = 0 -- 1_000_000 in
      let+ reply = gen_reply in
      { P.rid; reply })

let prop_request_roundtrip =
  QCheck.Test.make ~name:"protocol: decode (encode req) = req" ~count:500
    arb_req_envelope (fun e ->
      match P.decode_request (P.encode_request e) with
      | Ok e' -> P.request_equal e e' && e'.P.rid = e.P.rid
      | Error _ -> false)

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"protocol: decode (encode rep) = rep" ~count:500
    arb_reply_envelope (fun e ->
      match P.decode_reply (P.encode_reply e) with
      | Ok e' -> P.reply_equal e e' && e'.P.rid = e.P.rid
      | Error _ -> false)

let prop_decode_total =
  QCheck.Test.make ~name:"protocol: decoders are total on garbage" ~count:500
    arb_payload (fun s ->
      (match P.decode_request s with Ok _ | Error _ -> true)
      && match P.decode_reply s with Ok _ | Error _ -> true)

let test_protocol_version_rejected () =
  let j =
    J.Obj
      [ ("v", J.String "fannet-wire/2"); ("id", J.Int 1); ("req", J.Obj [ ("op", J.String "ping") ]) ]
  in
  match P.decode_request (J.to_string j) with
  | Error e ->
      Alcotest.(check bool) "mentions the version" true (contains e "fannet-wire/2")
  | Ok _ -> Alcotest.fail "foreign protocol version must be rejected"

let test_explicit_limit_survives () =
  (* Regression: Backend.to_string drops the Explicit limit; the wire
     codec must not. *)
  let q =
    P.Exists_flip
      {
        backend = B.Cascade (B.Explicit { limit = 7 });
        spec = N.symmetric ~delta:3 ~bias_noise:false;
        input = [| 1; 2 |];
        label = 0;
      }
  in
  let e = { P.rid = 9; request = P.Query { digest = "d"; query = q; budget = P.no_budget } } in
  match P.decode_request (P.encode_request e) with
  | Ok { P.request = P.Query { query = q'; _ }; _ } ->
      Alcotest.(check bool) "query survives" true (P.query_equal q q');
      (match q' with
      | P.Exists_flip { backend = B.Cascade (B.Explicit { limit }); _ } ->
          Alcotest.(check int) "limit" 7 limit
      | _ -> Alcotest.fail "backend shape changed")
  | _ -> Alcotest.fail "roundtrip failed"

let test_query_key_ignores_budget () =
  let q =
    P.Certify
      { spec = N.symmetric ~delta:4 ~bias_noise:true; input = [| 5; 6 |]; label = 1 }
  in
  (* query_key is a function of (digest, query) only; encode two full
     requests with different budgets and check their decoded queries key
     identically. *)
  let key budget =
    match
      P.decode_request
        (P.encode_request
           { P.rid = 1; request = P.Query { digest = "abc"; query = q; budget } })
    with
    | Ok { P.request = P.Query { digest; query; _ }; _ } -> P.query_key ~digest query
    | _ -> Alcotest.fail "roundtrip failed"
  in
  Alcotest.(check string) "same cache key"
    (key P.no_budget)
    (key { P.timeout_s = Some 0.5; conflicts = Some 100 })

let test_answer_decided () =
  let check name expected a = Alcotest.(check bool) name expected (P.answer_decided a) in
  check "robust" true (P.Verdict B.Robust);
  check "unknown" false (P.Verdict (B.Unknown Resil.Budget.Deadline));
  check "min-flip ok" true (P.Min_flip (Ok (Some 3)));
  check "min-flip error" false (P.Min_flip (Error Resil.Budget.Conflicts));
  check "certified without cert" false (P.Certified { verdict = B.Robust; cert = None });
  check "certified unknown" false
    (P.Certified { verdict = B.Unknown Resil.Budget.Memory; cert = None });
  check "counted ok" true
    (P.Counted
       (Ok
          {
            P.flips = Util.Bigcount.of_int 3;
            total = Util.Bigcount.of_int 100;
            count_cert = None;
          }));
  check "counted error" false (P.Counted (Error Resil.Budget.Deadline))

(* A Counted answer carrying a real fannet-count-cert/1 certificate must
   survive the wire codec byte-identically — that is what makes cached
   certified counts byte-stable. *)
let test_counted_cert_roundtrip () =
  let net = toy_qnet () in
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  let spec = N.symmetric ~delta:2 ~bias_noise:false in
  let r =
    Fannet.Robustness.probability
      ~mode:(Fannet.Robustness.Exact_mode { certify = true })
      net spec ~input ~label
  in
  Alcotest.(check bool) "decided" true (r.Fannet.Robustness.status = Ok ());
  Alcotest.(check bool) "has cert" true (r.Fannet.Robustness.certificate <> None);
  let a =
    P.Counted
      (Ok
         {
           P.flips = r.Fannet.Robustness.flips;
           total = r.Fannet.Robustness.total;
           count_cert = r.Fannet.Robustness.certificate;
         })
  in
  let e = { P.rid = 5; reply = P.Answer { cached = false; answer = a } } in
  let bytes = P.encode_reply e in
  match P.decode_reply bytes with
  | Ok e' ->
      Alcotest.(check string) "byte-identical after roundtrip" bytes (P.encode_reply e')
  | Error err -> Alcotest.failf "decode failed: %s" err

(* The daemon serves an answer by splicing its cached encoded bytes into
   the reply envelope; the splice must reproduce [encode_reply] exactly. *)
let splice_matches ~rid ~cached answer =
  P.encode_answer_reply ~rid ~cached (J.to_string (P.answer_json answer))
  = P.encode_reply { P.rid; reply = P.Answer { cached; answer } }

let prop_answer_reply_splice =
  QCheck.Test.make ~name:"protocol: encode_answer_reply = encode_reply on Answer"
    ~count:500
    (QCheck.make
       ~print:(fun (rid, cached, a) ->
         P.encode_reply { P.rid; reply = P.Answer { cached; answer = a } })
       QCheck.Gen.(
         triple
           (oneof [ oneofl [ 0; 1; max_int ]; 0 -- 1_000_000; map abs int ])
           bool gen_answer))
    (fun (rid, cached, a) -> splice_matches ~rid ~cached a)

(* Every answer form, each with the rids and flags at the edges,
   including a real certificate of each kind and a real count
   certificate. *)
let test_answer_reply_splice_every_form () =
  let net = toy_qnet () in
  let label_of input = Nn.Qnet.predict net input in
  let certified input delta =
    let spec = N.symmetric ~delta ~bias_noise:false in
    let cv = B.certified_exists_flip net spec ~input ~label:(label_of input) in
    P.Certified { verdict = cv.B.cv_verdict; cert = cv.B.cv_cert }
  in
  (* [100; 100] is robust at ±2; [112; 87] sits next to the boundary. *)
  let refutation = certified [| 100; 100 |] 2 in
  let model = certified [| 112; 87 |] 2 in
  (match (refutation, model) with
  | ( P.Certified { cert = Some (Cert.Verdict.Refutation _); _ },
      P.Certified { cert = Some (Cert.Verdict.Model _); _ } ) ->
      ()
  | _ -> Alcotest.fail "expected one refutation and one model certificate");
  let counted =
    let input = [| 112; 87 |] in
    let r =
      Fannet.Robustness.probability
        ~mode:(Fannet.Robustness.Exact_mode { certify = true })
        net (N.symmetric ~delta:2 ~bias_noise:false) ~input ~label:(label_of input)
    in
    Alcotest.(check bool) "count certificate present" true
      (r.Fannet.Robustness.certificate <> None);
    P.Counted
      (Ok
         {
           P.flips = r.Fannet.Robustness.flips;
           total = r.Fannet.Robustness.total;
           count_cert = r.Fannet.Robustness.certificate;
         })
  in
  let forms =
    [
      ("verdict robust", P.Verdict B.Robust);
      ("verdict flip", P.Verdict (B.Flip { N.bias = -3; inputs = [| 4; -5 |] }));
      ("verdict unknown", P.Verdict (B.Unknown Resil.Budget.Deadline));
      ("min-flip ok", P.Min_flip (Ok (Some 7)));
      ("min-flip none", P.Min_flip (Ok None));
      ("min-flip error", P.Min_flip (Error Resil.Budget.Conflicts));
      ( "sidedness",
        P.Sidedness
          (Ok
             [|
               { Fannet.Sensitivity.fs_node = 0; positive_flip = true; negative_flip = false };
             |]) );
      ("sidedness error", P.Sidedness (Error Resil.Budget.Memory));
      ("certified refutation", refutation);
      ("certified model", model);
      ("certified none", P.Certified { verdict = B.Robust; cert = None });
      ("counted with certificate", counted);
      ("counted error", P.Counted (Error Resil.Budget.Deadline));
    ]
  in
  List.iter
    (fun (name, a) ->
      List.iter
        (fun rid ->
          List.iter
            (fun cached ->
              Alcotest.(check bool)
                (Printf.sprintf "%s, rid %d, cached %b" name rid cached)
                true (splice_matches ~rid ~cached a))
            [ false; true ])
        [ 0; 1; max_int ])
    forms

(* ================================================================== *)
(* LRU cache                                                           *)
(* ================================================================== *)

let test_lru_eviction_order () =
  let l = Serve.Lru.create ~cap:2 in
  Serve.Lru.add l "a" 1;
  Serve.Lru.add l "b" 2;
  ignore (Serve.Lru.find l "a");
  (* "b" is now least recently used *)
  Serve.Lru.add l "c" 3;
  Alcotest.(check bool) "b evicted" true (Serve.Lru.find l "b" = None);
  Alcotest.(check bool) "a kept" true (Serve.Lru.find l "a" = Some 1);
  Alcotest.(check bool) "c kept" true (Serve.Lru.find l "c" = Some 3);
  Alcotest.(check int) "len" 2 (Serve.Lru.length l);
  let hits, misses, evictions = Serve.Lru.stats l in
  Alcotest.(check int) "hits" 3 hits;
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check int) "evictions" 1 evictions

let test_lru_overwrite_bumps () =
  let l = Serve.Lru.create ~cap:2 in
  Serve.Lru.add l "a" 1;
  Serve.Lru.add l "b" 2;
  Serve.Lru.add l "a" 10;
  (* overwrite makes "a" most recent *)
  Serve.Lru.add l "c" 3;
  Alcotest.(check bool) "b evicted" true (Serve.Lru.find l "b" = None);
  Alcotest.(check bool) "a updated" true (Serve.Lru.find l "a" = Some 10)

let test_lru_cap_zero () =
  let l = Serve.Lru.create ~cap:0 in
  Serve.Lru.add l "a" 1;
  Alcotest.(check bool) "nothing cached" true (Serve.Lru.find l "a" = None);
  Alcotest.(check int) "len" 0 (Serve.Lru.length l)

(* ================================================================== *)
(* Worker pool                                                         *)
(* ================================================================== *)

let test_pool_run_and_exceptions () =
  let p = Serve.Pool.create ~workers:2 in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown p) @@ fun () ->
  Alcotest.(check int) "result" 42 (Serve.Pool.run p (fun () -> 42));
  (match Serve.Pool.run p (fun () -> failwith "boom") with
  | exception Failure m -> Alcotest.(check string) "transported" "boom" m
  | _ -> Alcotest.fail "exception must propagate");
  (* The worker survived the raise. *)
  Alcotest.(check int) "still alive" 7 (Serve.Pool.run p (fun () -> 7))

let test_pool_worker_affinity () =
  (* With one worker every job runs on the same resident domain — the
     property warm DLS sessions rely on. *)
  let p = Serve.Pool.create ~workers:1 in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown p) @@ fun () ->
  let id () = (Domain.self () :> int) in
  let a = Serve.Pool.run p id in
  let b = Serve.Pool.run p id in
  Alcotest.(check int) "same domain" a b;
  Alcotest.(check bool) "not the caller's domain" true (a <> id ())

let test_pool_shutdown_semantics () =
  let p = Serve.Pool.create ~workers:2 in
  let counter = Atomic.make 0 in
  for _ = 1 to 8 do
    Serve.Pool.submit p (fun () -> Atomic.incr counter)
  done;
  Serve.Pool.shutdown p;
  (* Drain semantics: all queued jobs ran before the domains joined. *)
  Alcotest.(check int) "all jobs drained" 8 (Atomic.get counter);
  (match Serve.Pool.submit p (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "submit after shutdown must raise");
  (* Idempotent. *)
  Serve.Pool.shutdown p

(* ================================================================== *)
(* Live daemon: malformed input battery                                *)
(* ================================================================== *)

let test_daemon_survives_garbage () =
  with_daemon @@ fun d ->
  (* Garbage framing: typed error, connection closed. *)
  (let c = C.connect (D.address d) in
   C.send_raw c "XXXXXXXXXXXXXXXX";
   (match C.read_reply c with
   | Ok { P.reply = P.Protocol_error _; _ } -> ()
   | r ->
       Alcotest.failf "wanted Protocol_error, got %s"
         (match r with Ok e -> P.encode_reply e | Error e -> e));
   C.close c);
  (* Oversized header: typed error. *)
  (let c = C.connect (D.address d) in
   C.send_raw c (W.magic ^ be32 (W.max_payload + 1));
   (match C.read_reply c with
   | Ok { P.reply = P.Protocol_error _; _ } -> ()
   | _ -> Alcotest.fail "oversized frame must get Protocol_error");
   C.close c);
  (* Truncated frame then disconnect: the daemon just moves on. *)
  (let c = C.connect (D.address d) in
   C.send_raw c (W.magic ^ "\x00");
   C.close c);
  (* Intact frame, malformed JSON: rid-0 typed error, connection lives. *)
  with_client d (fun c ->
      C.send_raw c (W.encode "{not json");
      (match C.read_reply c with
      | Ok { P.rid = 0; reply = P.Protocol_error _ } -> ()
      | _ -> Alcotest.fail "bad JSON must get a rid-0 Protocol_error");
      ok (C.ping c));
  (* Intact frame, valid JSON, wrong message: typed error, connection
     lives. *)
  with_client d (fun c ->
      C.send_raw c (W.encode "{\"v\":\"fannet-wire/1\",\"id\":3,\"req\":{\"op\":\"nope\"}}");
      (match C.read_reply c with
      | Ok { P.reply = P.Protocol_error _; _ } -> ()
      | _ -> Alcotest.fail "unknown op must get Protocol_error");
      ok (C.ping c));
  (* After all that abuse the accept loop still answers. *)
  with_client d (fun c -> ok (C.ping c))

let test_daemon_unknown_digest () =
  with_daemon @@ fun d ->
  with_client d @@ fun c ->
  let q =
    P.Exists_flip
      {
        backend = B.Bnb;
        spec = N.symmetric ~delta:2 ~bias_noise:false;
        input = [| 1; 2 |];
        label = 0;
      }
  in
  (match ok (C.query c ~digest:"no-such-digest" q) with
  | P.Server_error _ -> ()
  | r -> Alcotest.failf "wanted Server_error, got %s" (P.encode_reply { rid = 0; reply = r }));
  let s = D.stats d in
  Alcotest.(check int) "counted as failed" 1 s.P.failed;
  Alcotest.(check int) "accounting identity" s.P.submitted
    (s.P.served + s.P.rejected + s.P.failed)

let test_daemon_unsupported_shape_typed_error () =
  (* An engine rejecting an unsupported network shape (here a
     single-output network, which the branch-and-bound engine refuses)
     raises Invalid_argument inside a worker domain. That must come back
     as a typed Protocol_error reply — never a raw exception escaping the
     domain — and the daemon must stay healthy afterwards. *)
  let one_out =
    Nn.Qnet.create
      [|
        { Nn.Qnet.weights = [| [| 1; 1 |] |]; bias = [| 0 |]; act = Nn.Qnet.Relu };
        { Nn.Qnet.weights = [| [| 1 |] |]; bias = [| 0 |]; act = Nn.Qnet.Identity };
      |]
  in
  with_daemon @@ fun d ->
  with_client d @@ fun c ->
  let digest = ok (C.load c one_out) in
  let q =
    P.Exists_flip
      {
        backend = B.Bnb;
        spec = N.symmetric ~delta:1 ~bias_noise:false;
        input = [| 1; 2 |];
        label = 0;
      }
  in
  (match ok (C.query c ~digest q) with
  | P.Protocol_error msg ->
      Alcotest.(check bool) "reply names the unsupported query" true
        (contains msg "unsupported query")
  | r ->
      Alcotest.failf "wanted Protocol_error, got %s"
        (P.encode_reply { rid = 0; reply = r }));
  (* Same connection, well-formed query: the worker pool survived. *)
  let digest2 = ok (C.load c (tiny_qnet ())) in
  let q2 =
    P.Exists_flip
      {
        backend = B.Bnb;
        spec = N.symmetric ~delta:1 ~bias_noise:false;
        input = [| 5; 9 |];
        label = Nn.Qnet.predict (tiny_qnet ()) [| 5; 9 |];
      }
  in
  (match ok (C.query c ~digest:digest2 q2) with
  | P.Answer _ -> ()
  | r ->
      Alcotest.failf "daemon unhealthy after typed error: %s"
        (P.encode_reply { rid = 0; reply = r }));
  let s = D.stats d in
  Alcotest.(check int) "typed error counted as failed" 1 s.P.failed;
  Alcotest.(check int) "accounting identity" s.P.submitted
    (s.P.served + s.P.rejected + s.P.failed)

let test_daemon_budget_answers_not_cached () =
  with_daemon @@ fun d ->
  with_client d @@ fun c ->
  let digest = ok (C.load c (toy_qnet ())) in
  (* An explicit enumeration over ~36M vectors cannot finish inside a
     0.05 s deadline, so the answer is deterministically Unknown. *)
  let q =
    P.Exists_flip
      {
        backend = B.Explicit { limit = max_int };
        spec = N.symmetric ~delta:3000 ~bias_noise:false;
        input = [| 112; 87 |];
        label = Nn.Qnet.predict (toy_qnet ()) [| 112; 87 |];
      }
  in
  let budget = { P.timeout_s = Some 0.05; conflicts = None } in
  let once () =
    match ok (C.query ~budget c ~digest q) with
    | P.Answer { cached; answer = P.Verdict (B.Unknown _) } -> cached
    | r -> Alcotest.failf "wanted Unknown, got %s" (P.encode_reply { rid = 0; reply = r })
  in
  Alcotest.(check bool) "first not cached" false (once ());
  (* Budget-dependent Unknown must never be served from the cache. *)
  Alcotest.(check bool) "second not cached either" false (once ())

(* ================================================================== *)
(* Differential: daemon answers = direct library calls                 *)
(* ================================================================== *)

let direct_answer net (q : P.query) : P.answer =
  match q with
  | P.Exists_flip { backend; spec; input; label } ->
      P.Verdict (B.exists_flip backend net spec ~input ~label)
  | P.Tolerance { backend; bias_noise; max_delta; input; label } ->
      P.Min_flip
        (Fannet.Tolerance.input_min_flip_delta_b backend net ~bias_noise ~max_delta
           ~input ~label)
  | P.Sensitivity { spec; input; label } ->
      P.Sidedness
        (Fannet.Sensitivity.formal_sidedness_b ~jobs:1 net spec
           ~inputs:[| (input, label) |])
  | P.Certify { spec; input; label } ->
      let cv = B.certified_exists_flip net spec ~input ~label in
      P.Certified { verdict = cv.B.cv_verdict; cert = cv.B.cv_cert }
  | P.Count { spec; input; label; mode } ->
      let mode =
        match mode with
        | P.Count_exact { certify } -> Fannet.Robustness.Exact_mode { certify }
        | P.Count_approx { epsilon; delta; seed } ->
            Fannet.Robustness.Approx_mode { epsilon; delta; seed }
      in
      let r = Fannet.Robustness.probability ~mode net spec ~input ~label in
      P.Counted
        (match r.Fannet.Robustness.status with
        | Ok () ->
            Ok { P.flips = r.flips; total = r.total; count_cert = r.certificate }
        | Error reason -> Error reason)

let differential_queries net =
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  let spec = N.symmetric ~delta:10 ~bias_noise:false in
  [
    ("exists-flip bnb", P.Exists_flip { backend = B.Bnb; spec; input; label });
    ("exists-flip smt", P.Exists_flip { backend = B.Smt; spec; input; label });
    ( "exists-flip cascade",
      P.Exists_flip { backend = B.Cascade B.Bnb; spec; input; label } );
    ( "tolerance",
      P.Tolerance { backend = B.Bnb; bias_noise = false; max_delta = 20; input; label } );
    ("sensitivity", P.Sensitivity { spec; input; label });
    ("certify", P.Certify { spec; input; label });
    (* Certified count: the certificate crosses the wire, so daemon
       answers must be byte-identical to the direct call including the
       certificate bytes. *)
    (let cspec = N.symmetric ~delta:3 ~bias_noise:false in
     ( "count exact certified",
       P.Count { spec = cspec; input; label; mode = P.Count_exact { certify = true } } ));
    (let cspec = N.symmetric ~delta:3 ~bias_noise:false in
     ( "count approx",
       P.Count
         {
           spec = cspec;
           input;
           label;
           mode = P.Count_approx { epsilon = 0.8; delta = 0.2; seed = 7 };
         } ));
  ]

let answer_of_reply name = function
  | P.Answer { cached; answer } -> (cached, answer)
  | r ->
      Alcotest.failf "%s: unexpected reply %s" name (P.encode_reply { rid = 0; reply = r })

(* Every query kind, answered cold, warm (same worker, cache bypassed)
   and from the cache — each time byte-identical to the direct library
   call, certificates re-checked by the independent lib/cert checker. *)
let test_differential_cold_warm () =
  let net = toy_qnet () in
  (* cache_cap = 0 and a single worker: the first answer is cold, the
     second reuses the worker domain's warm sessions; neither may come
     from the cache. *)
  with_daemon ~workers:1 ~cache_cap_bytes:0 @@ fun d ->
  with_client d @@ fun c ->
  let digest = ok (C.load c net) in
  List.iter
    (fun (name, q) ->
      let expected = direct_answer net q in
      let cached1, cold = answer_of_reply name (ok (C.query c ~digest q)) in
      let cached2, warm = answer_of_reply name (ok (C.query c ~digest q)) in
      Alcotest.(check bool) (name ^ ": cold not cached") false cached1;
      Alcotest.(check bool) (name ^ ": warm not cached") false cached2;
      Alcotest.(check bool)
        (name ^ ": cold = direct")
        true
        (P.answer_equal cold expected);
      Alcotest.(check bool)
        (name ^ ": warm = direct")
        true
        (P.answer_equal warm expected))
    (differential_queries net)

let test_differential_cache_hit_and_certificates () =
  let net = toy_qnet () in
  with_daemon ~workers:2 ~cache_cap_bytes:(1 lsl 26) @@ fun d ->
  with_client d @@ fun c ->
  let digest = ok (C.load c net) in
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  let spec = N.symmetric ~delta:10 ~bias_noise:false in
  List.iter
    (fun (name, q) ->
      let expected = direct_answer net q in
      let cached1, cold = answer_of_reply name (ok (C.query c ~digest q)) in
      let cached2, hit = answer_of_reply name (ok (C.query c ~digest q)) in
      Alcotest.(check bool) (name ^ ": first is a miss") false cached1;
      Alcotest.(check bool) (name ^ ": second is a hit") true cached2;
      Alcotest.(check bool) (name ^ ": cold = direct") true (P.answer_equal cold expected);
      (* Bit-identity of the cached answer with the cold one. *)
      Alcotest.(check string)
        (name ^ ": cache hit bit-identical")
        (J.to_string (P.answer_json cold))
        (J.to_string (P.answer_json hit)))
    (differential_queries net);
  (* The certificate that crossed the wire twice (cold + cached) must
     still convince the independent RUP/model checker. *)
  match ok (C.query c ~digest (P.Certify { spec; input; label })) with
  | P.Answer { cached = true; answer = P.Certified { verdict; cert } } -> (
      Alcotest.(check bool) "certificate present" true (cert <> None);
      match
        B.check_certified net spec ~input ~label { B.cv_verdict = verdict; cv_cert = cert }
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "wire-roundtripped certificate rejected: %s" e)
  | _ -> Alcotest.fail "expected a cached certified answer"

(* ================================================================== *)
(* Concurrency soak                                                    *)
(* ================================================================== *)

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

let test_daemon_overload_rejection () =
  with_daemon ~workers:2 ~cap:2 ~cache_cap_bytes:0 @@ fun d ->
  let net = constant_qnet () in
  let digest = with_client d (fun c -> ok (C.load c net)) in
  (* Two queries that provably hold their slots: the constant network
     admits no flip, so the explicit enumeration over ~36M vectors can
     never early-exit on a witness and cannot finish inside the 1.5 s
     deadline — in_flight stays at the cap until the budgets expire. *)
  let slow_query i =
    P.Exists_flip
      {
        backend = B.Explicit { limit = max_int };
        spec = N.symmetric ~delta:3000 ~bias_noise:false;
        input = [| 10 + i; 20 |];
        label = 0;
      }
  in
  let budget = { P.timeout_s = Some 1.5; conflicts = None } in
  let slow_replies = Array.make 2 None in
  let slow_threads =
    Array.init 2 (fun i ->
        Thread.create
          (fun () ->
            with_client d (fun c ->
                slow_replies.(i) <- Some (C.query ~budget c ~digest (slow_query i))))
          ())
  in
  poll_until "both slots taken" (fun () -> (D.stats d).P.in_flight = 2);
  (* Every query inside the window is rejected, deterministically. *)
  with_client d (fun c ->
      for i = 0 to 3 do
        match ok (C.query c ~digest (slow_query (100 + i))) with
        | P.Overloaded { cap; _ } -> Alcotest.(check int) "cap echoed" 2 cap
        | r ->
            Alcotest.failf "wanted Overloaded, got %s"
              (P.encode_reply { rid = 0; reply = r })
      done);
  Array.iter Thread.join slow_threads;
  Array.iter
    (fun r ->
      match r with
      | Some (Ok (P.Answer { answer = P.Verdict (B.Unknown _); _ })) -> ()
      | _ -> Alcotest.fail "slow query must end in a typed Unknown")
    slow_replies;
  let s = D.stats d in
  Alcotest.(check int) "4 typed rejections" 4 s.P.rejected;
  Alcotest.(check int) "identity" s.P.submitted (s.P.served + s.P.rejected + s.P.failed)

let test_daemon_soak_under_faults () =
  with_clean_faults @@ fun () ->
  (* The FANNET_FAULTS matrix, armed programmatically (same spec syntax):
     one worker body raise mid-soak and one solver OOM. *)
  F.arm "serve.worker.raise@5";
  F.arm "sat.oom@3";
  with_daemon ~workers:2 ~cap:4 ~cache_cap_bytes:(1 lsl 26) @@ fun d ->
  let net = toy_qnet () in
  let digest = with_client d (fun c -> ok (C.load c net)) in
  let n_clients = 16 and per_client = 6 in
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  let anomalies = Atomic.make 0 in
  let client k () =
    with_client d @@ fun c ->
    for j = 0 to per_client - 1 do
      let reply =
        match (k + j) mod 4 with
        | 0 ->
            (* Distinct deltas spread cache misses; repeats hit. *)
            C.query c ~digest
              (P.Exists_flip
                 {
                   backend = B.Bnb;
                   spec = N.symmetric ~delta:(1 + (j mod 3)) ~bias_noise:false;
                   input;
                   label;
                 })
        | 1 ->
            C.query c ~digest
              (P.Tolerance
                 { backend = B.Smt; bias_noise = false; max_delta = 6; input; label })
        | 2 ->
            C.query c ~digest:"bogus-digest"
              (P.Sensitivity
                 { spec = N.symmetric ~delta:2 ~bias_noise:false; input; label })
        | _ ->
            C.query c ~digest
              (P.Certify
                 { spec = N.symmetric ~delta:(2 + (j mod 2)) ~bias_noise:false; input; label })
      in
      (* Every reply must be one of the typed forms — never a dead
         connection or a codec failure. *)
      match reply with
      | Ok (P.Answer _ | P.Overloaded _ | P.Server_error _) -> ()
      | Ok _ | Error _ -> Atomic.incr anomalies
    done
  in
  let threads = Array.init n_clients (fun k -> Thread.create (client k) ()) in
  Array.iter Thread.join threads;
  Alcotest.(check int) "every reply well-typed" 0 (Atomic.get anomalies);
  poll_until "daemon idle" (fun () -> (D.stats d).P.in_flight = 0);
  let s = D.stats d in
  Alcotest.(check int) "all queries accounted" (n_clients * per_client) s.P.submitted;
  Alcotest.(check int) "served + rejected + failed = submitted" s.P.submitted
    (s.P.served + s.P.rejected + s.P.failed);
  (* Bogus digests fail deterministically; the armed worker raise adds
     at least one more. *)
  Alcotest.(check bool) "typed failures observed" true (s.P.failed >= n_clients);
  Alcotest.(check bool) "cache saw traffic" true (s.P.cache_hits + s.P.cache_misses > 0);
  (* The daemon is still healthy after the storm. *)
  with_client d (fun c -> ok (C.ping c))

(* ================================================================== *)
(* Warm LRU eviction regression                                        *)
(* ================================================================== *)

(* Keys are distinct per input vector; cover/delta tiny so each encode
   is microseconds on the 2-2-2 net. *)
let warm_probe net i =
  match
    Fannet.Warm.probe_delta net ~bias_noise:false ~cover:1 ~delta:1
      ~input:[| 1000 + i; 7 |] ~label:0
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unbudgeted probe cannot fail"

let test_warm_lru_single_domain () =
  let net = tiny_qnet () in
  Fannet.Warm.reset ();
  let m0 = Fannet.Warm.misses () and e0 = Fannet.Warm.evictions () in
  Alcotest.(check int) "pool starts empty" 0 (Fannet.Warm.size ());
  (* 70 distinct keys through a 64-entry pool: exactly 6 evictions, one
     per dropped entry (the old code flushed the whole pool and counted
     one). *)
  for i = 0 to 69 do
    warm_probe net i
  done;
  Alcotest.(check int) "all 70 are misses" 70 (Fannet.Warm.misses () - m0);
  Alcotest.(check int) "exactly 6 evictions" 6 (Fannet.Warm.evictions () - e0);
  Alcotest.(check int) "pool is full" 64 (Fannet.Warm.size ());
  (* Recency: 0..5 were evicted (oldest), 6..69 live. *)
  let h0 = Fannet.Warm.hits () in
  warm_probe net 69;
  warm_probe net 6;
  Alcotest.(check int) "newest and oldest-surviving hit" 2 (Fannet.Warm.hits () - h0);
  (* Key 0 was evicted: re-probing it is a miss and evicts the current
     least-recently-used key, which is 7 (6 was just bumped). *)
  let m1 = Fannet.Warm.misses () in
  warm_probe net 0;
  Alcotest.(check int) "evicted key re-encodes" 1 (Fannet.Warm.misses () - m1);
  let m2 = Fannet.Warm.misses () in
  warm_probe net 7;
  Alcotest.(check int) "true LRU victim was 7" 1 (Fannet.Warm.misses () - m2);
  (* The audit invariant: every miss inserted one entry, every eviction
     removed one, so on this single domain
     misses = evictions + live entries. *)
  Alcotest.(check int) "misses = evictions + size"
    (Fannet.Warm.misses () - m0)
    (Fannet.Warm.evictions () - e0 + Fannet.Warm.size ())

let test_warm_lru_multi_domain () =
  let net = tiny_qnet () in
  Fannet.Warm.reset ();
  let m0 = Fannet.Warm.misses () and e0 = Fannet.Warm.evictions () in
  (* 200 distinct keys spread over 2 domains by the batch pool; every
     probe is a miss, and each domain evicts exactly
     max(0, keys_it_ran - 64) — reconstructable from the returned domain
     ids no matter how the schedule divided the work. With 2 domains one
     of them necessarily runs >= 100 keys, so evictions must occur. *)
  let domains =
    Util.Parallel.map ~jobs:2
      (fun i ->
        warm_probe net (10_000 + i);
        (Domain.self () :> int))
      (Array.init 200 Fun.id)
  in
  Alcotest.(check int) "all 200 distinct keys miss" 200 (Fannet.Warm.misses () - m0);
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun d -> Hashtbl.replace counts d (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)))
    domains;
  let expected_evictions =
    Hashtbl.fold (fun _ n acc -> acc + max 0 (n - 64)) counts 0
  in
  Alcotest.(check bool) "the schedule forced evictions" true (expected_evictions > 0);
  Alcotest.(check int) "eviction counter matches actual per-domain evictions"
    expected_evictions
    (Fannet.Warm.evictions () - e0)

(* ================================================================== *)

(* ================================================================== *)
(* Wire short reads: every byte offset                                 *)
(* ================================================================== *)

(* Satellite of the crash-isolation work: a peer that dies after k bytes
   — for every k — must decode to a typed Closed/Truncated, never an
   exception and never a bogus Ok. Exhaustive where the QCheck property
   above only samples cut points, and exercised through both the
   string-level and the blocking-fd codecs. *)
let test_wire_short_read_every_offset () =
  let frame = W.encode "chaos payload \x00\xff\x01 with binary bytes" in
  let n = String.length frame in
  for k = 0 to n - 1 do
    (match W.decode (String.sub frame 0 k) with
    | Error W.Closed when k = 0 -> ()
    | Error W.Truncated when k > 0 -> ()
    | Ok _ -> Alcotest.failf "string prefix %d/%d decoded" k n
    | Error e ->
        Alcotest.failf "string prefix %d/%d: wrong error %s" k n (W.error_to_string e));
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close b) @@ fun () ->
    let wrote = if k = 0 then 0 else Unix.write_substring a frame 0 k in
    Alcotest.(check int) "short write delivered" k wrote;
    Unix.close a;
    match W.read_frame b with
    | Error W.Closed when k = 0 -> ()
    | Error W.Truncated when k > 0 -> ()
    | Ok _ -> Alcotest.failf "fd prefix %d/%d decoded" k n
    | Error e ->
        Alcotest.failf "fd prefix %d/%d: wrong error %s" k n (W.error_to_string e)
  done

(* ================================================================== *)
(* LRU byte weighting                                                  *)
(* ================================================================== *)

let test_lru_byte_weights () =
  let l = Serve.Lru.create ~cap:100 in
  Serve.Lru.add ~weight:40 l "a" 1;
  Serve.Lru.add ~weight:40 l "b" 2;
  Alcotest.(check int) "two resident" 80 (Serve.Lru.total_weight l);
  (* 40 + 40 + 40 > 100: the least recently used entry goes. *)
  Serve.Lru.add ~weight:40 l "c" 3;
  Alcotest.(check bool) "a evicted" true (Serve.Lru.find l "a" = None);
  Alcotest.(check int) "weight fits again" 80 (Serve.Lru.total_weight l);
  (* Recency is per-find: bump b, then overflow — c must be the victim. *)
  ignore (Serve.Lru.find l "b");
  Serve.Lru.add ~weight:30 l "d" 4;
  Alcotest.(check bool) "c evicted" true (Serve.Lru.find l "c" = None);
  Alcotest.(check bool) "b kept" true (Serve.Lru.find l "b" = Some 2);
  Alcotest.(check int) "70 resident" 70 (Serve.Lru.total_weight l);
  (* Overwrite at a new weight adjusts the total exactly. *)
  Serve.Lru.add ~weight:10 l "d" 5;
  Alcotest.(check int) "overwrite reweighs" 50 (Serve.Lru.total_weight l);
  Alcotest.(check bool) "overwrite value" true (Serve.Lru.find l "d" = Some 5);
  let _, _, ev_before = Serve.Lru.stats l in
  (* Heavier than the whole budget: not inserted, and it must drop the
     stale value cached under the same key rather than serve it. *)
  Serve.Lru.add ~weight:1000 l "d" 6;
  Alcotest.(check bool) "oversized not inserted" true (Serve.Lru.find l "d" = None);
  Serve.Lru.add ~weight:1000 l "zz" 7;
  Alcotest.(check bool) "oversized new key dropped" true (Serve.Lru.find l "zz" = None);
  Alcotest.(check int) "only b resident" 40 (Serve.Lru.total_weight l);
  let _, _, ev_after = Serve.Lru.stats l in
  Alcotest.(check int) "stale-drop counted as eviction" (ev_before + 1) ev_after;
  (* Weightless callers keep entry-count semantics: default weight 1. *)
  let l1 = Serve.Lru.create ~cap:2 in
  Serve.Lru.add l1 "x" 1;
  Serve.Lru.add l1 "y" 2;
  Serve.Lru.add l1 "z" 3;
  Alcotest.(check int) "count semantics" 2 (Serve.Lru.length l1);
  Alcotest.(check int) "weight = entries" 2 (Serve.Lru.total_weight l1)

(* ================================================================== *)
(* Persistent verdict store                                            *)
(* ================================================================== *)

let with_store_path f =
  let path = Filename.temp_file "fannet_store_test" ".jnl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let answer_bytes a = J.to_string (P.answer_json a)

(* Three cheap decided answers, distinct per key. *)
let store_entries net =
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  List.map
    (fun d ->
      let q =
        P.Exists_flip
          { backend = B.Bnb; spec = N.symmetric ~delta:d ~bias_noise:false; input; label }
      in
      (Printf.sprintf "k%d" d, direct_answer net q))
    [ 1; 2; 3 ]

let test_store_roundtrip () =
  with_store_path @@ fun path ->
  let net = toy_qnet () in
  let entries = store_entries net in
  let t, recovered0 = ok (Serve.Store.open_ ~path) in
  Alcotest.(check int) "fresh journal is empty" 0 (List.length recovered0);
  List.iter (fun (k, a) -> Serve.Store.append t ~key:k a) entries;
  (* Re-appending a key supersedes: k1 now maps to k3's answer. *)
  let a3 = List.assoc "k3" entries in
  Serve.Store.append t ~key:"k1" a3;
  Serve.Store.close t;
  let t2, recovered = ok (Serve.Store.open_ ~path) in
  Fun.protect ~finally:(fun () -> Serve.Store.close t2) @@ fun () ->
  Alcotest.(check int) "last-wins: three live records" 3 (List.length recovered);
  let st = Serve.Store.stats t2 in
  Alcotest.(check int) "recovered" 3 st.Serve.Store.recovered;
  Alcotest.(check int) "nothing dropped" 0 st.Serve.Store.dropped;
  Alcotest.(check int) "nothing truncated" 0 st.Serve.Store.truncated_bytes;
  Alcotest.(check string)
    "k1 superseded, bit-identical" (answer_bytes a3)
    (answer_bytes (List.assoc "k1" recovered));
  List.iter
    (fun k ->
      Alcotest.(check string)
        (k ^ " byte-identical")
        (answer_bytes (List.assoc k entries))
        (answer_bytes (List.assoc k recovered)))
    [ "k2"; "k3" ]

let test_store_append_encoded_same_bytes () =
  let net = toy_qnet () in
  let entries = store_entries net in
  let journal append =
    with_store_path @@ fun path ->
    let t, _ = ok (Serve.Store.open_ ~path) in
    List.iter (fun (k, a) -> append t k a) entries;
    Serve.Store.close t;
    In_channel.with_open_bin path In_channel.input_all
  in
  Alcotest.(check string) "append_encoded writes append's record"
    (journal (fun t key a -> Serve.Store.append t ~key a))
    (journal (fun t key a -> Serve.Store.append_encoded t ~key (answer_bytes a)))

let test_store_torn_tail () =
  with_store_path @@ fun path ->
  let net = toy_qnet () in
  let entries = store_entries net in
  let t, _ = ok (Serve.Store.open_ ~path) in
  List.iter (fun (k, a) -> Serve.Store.append t ~key:k a) entries;
  Serve.Store.close t;
  (* Tear the last record mid-payload, as a crash mid-write would. *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 7)));
  let t2, recovered = ok (Serve.Store.open_ ~path) in
  Alcotest.(check int) "torn record shed" 2 (List.length recovered);
  let st = Serve.Store.stats t2 in
  Alcotest.(check bool) "torn bytes counted" true (st.Serve.Store.truncated_bytes > 0);
  Alcotest.(check int) "framing damage is not a drop" 0 st.Serve.Store.dropped;
  Serve.Store.close t2;
  (* The open truncated the file in place: a second recovery is clean. *)
  let t3, recovered3 = ok (Serve.Store.open_ ~path) in
  Fun.protect ~finally:(fun () -> Serve.Store.close t3) @@ fun () ->
  Alcotest.(check int) "truncation is idempotent" 2 (List.length recovered3);
  Alcotest.(check int) "no further truncation" 0
    (Serve.Store.stats t3).Serve.Store.truncated_bytes

(* Append one record with a correct length and checksum, whatever its
   payload. *)
let append_framed path payload =
  let record =
    Printf.sprintf "%d %016Lx\n%s\n" (String.length payload)
      (Resil.Ckpt.fnv1a64 payload) payload
  in
  let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
  Out_channel.output_string oc record;
  Out_channel.close oc

let test_store_invalid_record_dropped () =
  with_store_path @@ fun path ->
  let net = toy_qnet () in
  let entries = store_entries net in
  let t, _ = ok (Serve.Store.open_ ~path) in
  List.iter (fun (k, a) -> Serve.Store.append t ~key:k a) entries;
  Serve.Store.close t;
  (* A record that frames correctly — length and checksum both good —
     but whose payload is not a valid key/answer document. Framing
     integrity and semantic validity are independent defences: this one
     must be dropped individually, not treated as a torn tail. *)
  append_framed path {|{"key":"kbad","answer":{"kind":"from-the-future"}}|};
  let t2, recovered = ok (Serve.Store.open_ ~path) in
  Fun.protect ~finally:(fun () -> Serve.Store.close t2) @@ fun () ->
  Alcotest.(check int) "good records survive" 3 (List.length recovered);
  let st = Serve.Store.stats t2 in
  Alcotest.(check int) "bad record dropped" 1 st.Serve.Store.dropped;
  Alcotest.(check int) "not torn" 0 st.Serve.Store.truncated_bytes;
  Alcotest.(check bool) "dropped key absent" true
    (not (List.mem_assoc "kbad" recovered))

let test_store_oversized_cert_dropped () =
  with_store_path @@ fun path ->
  let net = toy_qnet () in
  let entries = store_entries net in
  let t, _ = ok (Serve.Store.open_ ~path) in
  List.iter (fun (k, a) -> Serve.Store.append t ~key:k a) entries;
  Serve.Store.close t;
  (* Well-framed certified answers whose certificates declare absurd
     variable counts: re-checking them on recovery must reject them, not
     raise out of [open_]. *)
  let append_record key n_vars =
    let cert =
      Cert.Verdict.Refutation
        { n_vars; cnf = [ [ 1; 2 ]; [ -1 ] ]; assumptions = []; proof = [] }
    in
    let answer = P.Certified { verdict = B.Robust; cert = Some cert } in
    append_framed path
      (J.to_string (J.Obj [ ("key", J.String key); ("answer", P.answer_json answer) ]))
  in
  append_record "kmax" max_int;
  append_record "k2^40" (1 lsl 40);
  let t2, recovered = ok (Serve.Store.open_ ~path) in
  Fun.protect ~finally:(fun () -> Serve.Store.close t2) @@ fun () ->
  Alcotest.(check int) "good records survive" 3 (List.length recovered);
  let st = Serve.Store.stats t2 in
  Alcotest.(check int) "both records dropped" 2 st.Serve.Store.dropped;
  Alcotest.(check int) "not torn" 0 st.Serve.Store.truncated_bytes

let test_store_torn_faultpoint () =
  with_clean_faults @@ fun () ->
  with_store_path @@ fun path ->
  let net = toy_qnet () in
  let entries = store_entries net in
  let k1, a1 = List.nth entries 0 and k2, a2 = List.nth entries 1 in
  let t, _ = ok (Serve.Store.open_ ~path) in
  Serve.Store.append t ~key:k1 a1;
  (* The armed fault writes half the next record and disables the
     store — the daemon-crash-mid-write simulation. *)
  F.arm "serve.store.torn";
  Serve.Store.append t ~key:k2 a2;
  F.clear ();
  (* Disabled: further appends are silently dropped, close is safe. *)
  Serve.Store.append t ~key:"k-after" a1;
  Serve.Store.close t;
  let t2, recovered = ok (Serve.Store.open_ ~path) in
  Fun.protect ~finally:(fun () -> Serve.Store.close t2) @@ fun () ->
  Alcotest.(check int) "exactly the torn record shed" 1 (List.length recovered);
  Alcotest.(check string) "survivor bit-identical" (answer_bytes a1)
    (answer_bytes (List.assoc k1 recovered));
  Alcotest.(check bool) "torn bytes counted" true
    ((Serve.Store.stats t2).Serve.Store.truncated_bytes > 0)

let test_store_compaction () =
  with_store_path @@ fun path ->
  let net = tiny_qnet () in
  let input = [| 1; 2 |] in
  let label = Nn.Qnet.predict net input in
  let a =
    direct_answer net
      (P.Exists_flip
         { backend = B.Bnb; spec = N.symmetric ~delta:1 ~bias_noise:false; input; label })
  in
  let t, _ = ok (Serve.Store.open_ ~path) in
  (* One key re-appended: live_bytes stays a single record while the
     file grows, so the max(64 KiB, 2 × live) threshold must trip. *)
  let appends = ref 0 in
  while (Serve.Store.stats t).Serve.Store.compactions = 0 && !appends < 5_000 do
    Serve.Store.append t ~key:"k" a;
    incr appends
  done;
  let st = Serve.Store.stats t in
  Alcotest.(check bool) "compaction triggered" true (st.Serve.Store.compactions >= 1);
  Alcotest.(check bool) "journal rewritten small" true
    (st.Serve.Store.file_bytes < 65_536);
  Serve.Store.close t;
  let t2, recovered = ok (Serve.Store.open_ ~path) in
  Fun.protect ~finally:(fun () -> Serve.Store.close t2) @@ fun () ->
  Alcotest.(check int) "one live record" 1 (List.length recovered);
  Alcotest.(check string) "live record bit-identical" (answer_bytes a)
    (answer_bytes (List.assoc "k" recovered))

(* ================================================================== *)
(* Raw reply frames: cache hits are the miss's bytes, spliced           *)
(* ================================================================== *)

let raw_connect d =
  let domain, sockaddr =
    match D.address d with
    | D.Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
    | D.Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.connect fd sockaddr;
  fd

(* One request, one reply payload exactly as it came off the socket. *)
let raw_rpc fd rid request =
  W.write_frame fd (P.encode_request { P.rid; request });
  match W.read_frame fd with
  | Ok payload -> payload
  | Error e -> Alcotest.failf "raw reply frame: %s" (W.error_to_string e)

(* The part of an Answer reply payload after its rid and cached flag,
   checking that everything before it has the fixed envelope shape. *)
let answer_tail ~rid ~cached payload =
  let head =
    Printf.sprintf {|{"v":"fannet-wire/1","id":%d,"rep":{"op":"answer","cached":%b,"answer":|}
      rid cached
  in
  let n = String.length head in
  if String.length payload < n || String.sub payload 0 n <> head then
    Alcotest.failf "reply %d (cached %b) does not start with the answer envelope: %s" rid
      cached
      (String.sub payload 0 (min 120 (String.length payload)));
  String.sub payload n (String.length payload - n)

(* A robust certified query: its reply carries a DRUP refutation. *)
let raw_certified_frames d ~rids =
  let net = toy_qnet () in
  let input = [| 100; 100 |] in
  let label = Nn.Qnet.predict net input in
  let fd = raw_connect d in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let digest =
    match P.decode_reply (raw_rpc fd 1 (P.Load { network = Nn.Qnet.to_string net })) with
    | Ok { P.reply = P.Loaded { digest }; _ } -> digest
    | _ -> Alcotest.fail "load failed"
  in
  let q = P.Certify { spec = N.symmetric ~delta:2 ~bias_noise:false; input; label } in
  List.map
    (fun rid -> raw_rpc fd rid (P.Query { digest; query = q; budget = P.no_budget }))
    rids

let test_daemon_raw_frames_hit_is_spliced_miss () =
  with_store_path @@ fun path ->
  let miss_tail =
    with_daemon ~store_path:path @@ fun d ->
    match raw_certified_frames d ~rids:[ 11; 12 ] with
    | [ miss; hit ] ->
        let miss_tail = answer_tail ~rid:11 ~cached:false miss in
        Alcotest.(check bool) "a certified answer with a refutation" true
          (String.starts_with ~prefix:{|{"a":"certified"|} miss_tail
          && contains miss_tail {|"kind":"refutation"|});
        Alcotest.(check string) "hit = miss but for rid and cached"
          miss_tail (answer_tail ~rid:12 ~cached:true hit);
        miss_tail
    | _ -> assert false
  in
  (* A restarted daemon serves the same bytes from its recovered journal. *)
  with_daemon ~store_path:path @@ fun d ->
  (match D.store_stats d with
  | Some st -> Alcotest.(check int) "journal recovered" 1 st.Serve.Store.recovered
  | None -> Alcotest.fail "store stats must be exposed");
  match raw_certified_frames d ~rids:[ max_int ] with
  | [ recovered ] ->
      Alcotest.(check string) "recovered hit = miss but for rid and cached" miss_tail
        (answer_tail ~rid:max_int ~cached:true recovered)
  | _ -> assert false

(* ================================================================== *)
(* Supervised daemon + persistent store                                *)
(* ================================================================== *)

(* Cheap subset of the differential battery for process-pool runs. *)
let supervised_queries net =
  List.filter
    (fun (name, _) ->
      List.mem name [ "exists-flip bnb"; "tolerance"; "certify" ])
    (differential_queries net)

let test_daemon_store_write_through_and_recovery () =
  with_store_path @@ fun path ->
  let net = toy_qnet () in
  let queries = supervised_queries net in
  let digest0, recorded =
    let d = test_daemon ~cache_cap_bytes:(1 lsl 26) ~store_path:path () in
    Fun.protect ~finally:(fun () -> D.stop d) @@ fun () ->
    with_client d @@ fun c ->
    let digest = ok (C.load c net) in
    let recorded =
      List.map
        (fun (name, q) ->
          let _, a = answer_of_reply name (ok (C.query c ~digest q)) in
          (name, q, answer_bytes a))
        queries
    in
    (match D.store_stats d with
    | Some st ->
        Alcotest.(check int) "every decided answer journaled"
          (List.length queries) st.Serve.Store.appends
    | None -> Alcotest.fail "store stats must be exposed");
    Alcotest.(check bool) "cache weighs its bytes" true (D.cache_weight d > 0);
    (digest, recorded)
  in
  (* Cold restart on the same journal: answers come back from the
     recovered cache, bit-identical, certificates re-validated. *)
  let d = test_daemon ~cache_cap_bytes:(1 lsl 26) ~store_path:path () in
  Fun.protect ~finally:(fun () -> D.stop d) @@ fun () ->
  (match D.store_stats d with
  | Some st ->
      Alcotest.(check int) "all records recovered" (List.length queries)
        st.Serve.Store.recovered;
      Alcotest.(check int) "none dropped" 0 st.Serve.Store.dropped
  | None -> Alcotest.fail "store stats must be exposed");
  Alcotest.(check bool) "recovered answers weigh in" true (D.cache_weight d > 0);
  with_client d @@ fun c ->
  let digest = ok (C.load c net) in
  Alcotest.(check string) "digest stable across restart" digest0 digest;
  List.iter
    (fun (name, q, bytes) ->
      let cached, a = answer_of_reply name (ok (C.query c ~digest q)) in
      Alcotest.(check bool) (name ^ ": served from recovered store") true cached;
      Alcotest.(check string) (name ^ ": bit-identical across restart") bytes
        (answer_bytes a);
      match (q, a) with
      | P.Certify { spec; input; label }, P.Certified { verdict; cert } -> (
          match
            B.check_certified net spec ~input ~label
              { B.cv_verdict = verdict; cv_cert = cert }
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "recovered certificate rejected: %s" e)
      | _ -> ())
    recorded

let test_daemon_store_torn_shutdown () =
  with_clean_faults @@ fun () ->
  with_store_path @@ fun path ->
  let net = toy_qnet () in
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  let query_d d' =
    P.Exists_flip
      { backend = B.Bnb; spec = N.symmetric ~delta:d' ~bias_noise:false; input; label }
  in
  let survivor =
    let d = test_daemon ~store_path:path () in
    Fun.protect ~finally:(fun () -> D.stop d) @@ fun () ->
    with_client d @@ fun c ->
    let digest = ok (C.load c net) in
    let _, a1 = answer_of_reply "q1" (ok (C.query c ~digest (query_d 1))) in
    (* The next append tears mid-record and disables the journal; the
       daemon must keep serving from memory, and the stop path — which
       closes the store before any connection teardown — must stay
       clean. *)
    F.arm "serve.store.torn";
    (match answer_of_reply "q2" (ok (C.query c ~digest (query_d 2))) with
    | false, _ -> ()
    | true, _ -> Alcotest.fail "q2 cannot be cached");
    (match answer_of_reply "q3" (ok (C.query c ~digest (query_d 3))) with
    | false, _ -> ()
    | true, _ -> Alcotest.fail "q3 cannot be cached");
    answer_bytes a1
  in
  F.clear ();
  (* Recovery sheds exactly the torn record; the first answer survives
     bit-identically. *)
  let t, recovered = ok (Serve.Store.open_ ~path) in
  Fun.protect ~finally:(fun () -> Serve.Store.close t) @@ fun () ->
  Alcotest.(check int) "only the pre-tear record lives" 1 (List.length recovered);
  Alcotest.(check bool) "torn tail truncated" true
    ((Serve.Store.stats t).Serve.Store.truncated_bytes > 0);
  Alcotest.(check string) "survivor bit-identical" survivor
    (answer_bytes (snd (List.hd recovered)))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "wire",
        [
          qc prop_wire_roundtrip;
          qc prop_wire_concat;
          qc prop_wire_truncation_typed;
          qc prop_wire_decode_total;
          Alcotest.test_case "bad magic" `Quick test_wire_bad_magic;
          Alcotest.test_case "oversized" `Quick test_wire_oversized;
          Alcotest.test_case "encode cap" `Quick test_wire_encode_cap;
          Alcotest.test_case "short read at every offset" `Quick
            test_wire_short_read_every_offset;
        ] );
      ( "protocol",
        [
          qc prop_request_roundtrip;
          qc prop_reply_roundtrip;
          qc prop_decode_total;
          qc prop_answer_reply_splice;
          Alcotest.test_case "answer splice, every form" `Quick
            test_answer_reply_splice_every_form;
          Alcotest.test_case "version rejected" `Quick test_protocol_version_rejected;
          Alcotest.test_case "explicit limit survives" `Quick test_explicit_limit_survives;
          Alcotest.test_case "query_key ignores budget" `Quick test_query_key_ignores_budget;
          Alcotest.test_case "answer_decided" `Quick test_answer_decided;
          Alcotest.test_case "counted cert roundtrip" `Quick test_counted_cert_roundtrip;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "overwrite bumps" `Quick test_lru_overwrite_bumps;
          Alcotest.test_case "cap zero" `Quick test_lru_cap_zero;
          Alcotest.test_case "byte weights" `Quick test_lru_byte_weights;
        ] );
      ( "store",
        [
          Alcotest.test_case "journal roundtrip, last-wins" `Quick test_store_roundtrip;
          Alcotest.test_case "append_encoded = append" `Quick
            test_store_append_encoded_same_bytes;
          Alcotest.test_case "torn tail truncated" `Quick test_store_torn_tail;
          Alcotest.test_case "framed-but-invalid dropped" `Quick
            test_store_invalid_record_dropped;
          Alcotest.test_case "oversized n_vars certificate dropped" `Quick
            test_store_oversized_cert_dropped;
          Alcotest.test_case "serve.store.torn faultpoint" `Quick
            test_store_torn_faultpoint;
          Alcotest.test_case "self-compaction" `Quick test_store_compaction;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run + exceptions" `Quick test_pool_run_and_exceptions;
          Alcotest.test_case "worker affinity" `Quick test_pool_worker_affinity;
          Alcotest.test_case "shutdown drains" `Quick test_pool_shutdown_semantics;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "survives malformed input" `Quick test_daemon_survives_garbage;
          Alcotest.test_case "unknown digest" `Quick test_daemon_unknown_digest;
          Alcotest.test_case "unsupported shape typed error" `Quick
            test_daemon_unsupported_shape_typed_error;
          Alcotest.test_case "budget answers not cached" `Quick
            test_daemon_budget_answers_not_cached;
          Alcotest.test_case "raw hit frames splice the miss bytes" `Quick
            test_daemon_raw_frames_hit_is_spliced_miss;
        ] );
      ( "differential",
        [
          Alcotest.test_case "cold + warm = direct" `Quick test_differential_cold_warm;
          Alcotest.test_case "cache hit bit-identical + certs" `Quick
            test_differential_cache_hit_and_certificates;
        ] );
      ( "soak",
        [
          Alcotest.test_case "deterministic overload rejection" `Quick
            test_daemon_overload_rejection;
          Alcotest.test_case "16 clients under faults" `Quick test_daemon_soak_under_faults;
        ] );
      ( "crash-isolation",
        [
          Alcotest.test_case "store write-through + recovery" `Quick
            test_daemon_store_write_through_and_recovery;
          Alcotest.test_case "shutdown with a torn journal" `Quick
            test_daemon_store_torn_shutdown;
        ] );
      ( "warm-lru",
        [
          Alcotest.test_case "single-domain LRU semantics" `Quick test_warm_lru_single_domain;
          Alcotest.test_case "multi-domain eviction identity" `Quick
            test_warm_lru_multi_domain;
        ] );
    ]
