(* serve-hot and serve-churn: the fannet serve binary as a child process,
   driven over nproc TCP connections from this process.

   serve-hot is a closed loop over a seeded Zipf draw of 64 keys, warmed
   up during set-up, so the timed phase is all cache hits: wire decode,
   the LRU read and reply encode/decode do the work.

   serve-churn is an open loop of seeded Poisson arrivals over queries
   that never repeat, against a small cache and a verdict journal: every
   query is a miss, so admission, compute, LRU insert and eviction,
   journal appends and big reply encodes all run.

   The daemon is started before this process creates any domain (OCaml 5
   refuses fork after that) and stopped with the wire Shutdown request. *)

open Common
module P = Serve.Protocol

type mode = Hot | Churn

let workers () = max 1 (nproc () - 1)

(* Arrival rate of serve-churn: about a sixth of the capacity (65 req/s)
   measured with back-to-back requests on a 2-core host. Each
   certify holds the single worker and the connection threads' domain
   for ~0.1 s, and the queries that arrive meanwhile wait. At half the
   capacity about half of all queries waited, so the latency median sat
   on the seam between waiting and not and moved by +-40% between seeds;
   at a quarter, a slower host still pushed it onto that seam. *)
let churn_rate = 10.

(* Holds a few certified answers of serve-churn, so entries get evicted. *)
let churn_cache_bytes = 1_048_576

(* ------------------------------------------------------------------ *)
(* The daemon child                                                     *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; out : in_channel; addr : Serve.Daemon.addr; store : string option }

let spawn ~fannet ~mode ~work_dir =
  let store =
    match mode with
    | Hot -> None
    | Churn ->
        let path = Filename.concat work_dir (Printf.sprintf "churn-%d.store" (Unix.getpid ())) in
        if Sys.file_exists path then Sys.remove path;
        Some path
  in
  let args =
    [ fannet; "serve"; "--tcp"; "127.0.0.1:0"; "--workers"; string_of_int (workers ()) ]
    @
    match store with
    | None -> []
    | Some path -> [ "--store"; path; "--cache"; string_of_int churn_cache_bytes ]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process fannet (Array.of_list args) null w Unix.stderr in
  Unix.close w;
  Unix.close null;
  let out = Unix.in_channel_of_descr r in
  let line = try input_line out with End_of_file -> failwith "fannet serve exited at start" in
  match Scanf.sscanf_opt line "fannetd listening on %[^:]:%d" (fun h p -> (h, p)) with
  | Some (host, port) -> { pid; out; addr = Serve.Daemon.Tcp (host, port); store }
  | None -> failwith ("unexpected first line from fannet serve: " ^ line)

(* Stop through the wire and return the daemon's final accounting line
   (submitted, served, rejected, failed). *)
let stop d =
  let c = Serve.Client.connect d.addr in
  let bye = Serve.Client.shutdown c in
  Serve.Client.close c;
  let rec final () =
    match input_line d.out with
    | l when String.starts_with ~prefix:"fannetd stopped:" l ->
        Scanf.sscanf_opt l "fannetd stopped: %d submitted, %d served, %d rejected, %d failed"
          (fun a b c d -> (a, b, c, d))
    | _ -> final ()
    | exception End_of_file -> None
  in
  let acct = final () in
  close_in d.out;
  ignore (Unix.waitpid [] d.pid);
  Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) d.store;
  match bye with Ok () -> acct | Error _ -> None

let with_conn addr f =
  let c = Serve.Client.connect addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let scrape addr =
  with_conn addr (fun c ->
      match Serve.Client.rpc c P.Metrics with
      | Ok (P.Metrics_reply { stats; _ }) -> stats
      | _ -> failwith "metrics scrape failed")

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

type nets = {
  leuk : Nn.Qnet.t;
  leuk_inputs : Fannet.Validate.labelled array;
  small : Nn.Qnet.t;
}

let backend = Fannet.Pipeline.analysis_backend
let is_certify = function P.Certify _ -> true | _ -> false

let certify_query small ~delta input =
  P.Certify
    {
      spec = Fannet.Noise.symmetric ~delta ~bias_noise:false;
      input;
      label = Nn.Qnet.predict small input;
    }

let leuk_query ?(backend = backend) nets ~tolerance ~delta ~bias_noise k =
  let input, label = nets.leuk_inputs.(k) in
  if tolerance then P.Tolerance { backend; bias_noise; max_delta = delta; input; label }
  else
    P.Exists_flip
      { backend; spec = Fannet.Noise.symmetric ~delta ~bias_noise; input; label }

(* One query in eight is a Certify on the 2-4-2 net. *)
let certify_slot i = i mod 8 = 7

(* serve-hot: 56 Leukemia keys (an Exists_flip and a Tolerance per input)
   and 8 Certify keys; each class is drawn Zipf-skewed (s = 1) over a
   seeded ranking of its keys. *)
type hot_keys = { leuk_keys : P.query array; cert_keys : P.query array }

let hot_keys nets seed =
  let rng = Util.Rng.create (0x407 + seed) in
  let n = Array.length nets.leuk_inputs in
  let leuk_keys =
    Array.init 56 (fun k ->
        if k < n then
          leuk_query nets ~tolerance:false ~delta:(Util.Rng.int_in rng 5 40) ~bias_noise:true k
        else leuk_query nets ~tolerance:true ~delta:50 ~bias_noise:true ((k - n) mod n))
  in
  (* Certify keys are robust inputs at delta 2, whose certificates are
     all of a size: the seed then decides which keys are hot, not how
     heavy the hot replies are. *)
  let seen = Hashtbl.create 16 in
  let spec = Fannet.Noise.symmetric ~delta:2 ~bias_noise:false in
  let rec fresh_input () =
    let x = [| Util.Rng.int_in rng 40 160; Util.Rng.int_in rng 40 160 |] in
    let label = Nn.Qnet.predict nets.small x in
    let flips, _ = Fannet.Bnb.count_flips nets.small spec ~input:x ~label in
    if Hashtbl.mem seen x || flips > 0 then fresh_input ()
    else begin
      Hashtbl.add seen x ();
      x
    end
  in
  let cert_keys = Array.init 8 (fun _ -> certify_query nets.small ~delta:2 (fresh_input ())) in
  Util.Rng.shuffle rng leuk_keys;
  Util.Rng.shuffle rng cert_keys;
  { leuk_keys; cert_keys }

let zipf_pick keys u =
  let n = Array.length keys in
  let h = ref 0. in
  for k = 1 to n do
    h := !h +. (1. /. float_of_int k)
  done;
  let target = u *. !h in
  let rec go k acc =
    let acc = acc +. (1. /. float_of_int k) in
    if acc >= target || k = n then keys.(k - 1) else go (k + 1) acc
  in
  go 1 0.

let hot_query keys seed i =
  let u = Util.Rng.float (Util.Rng.create ((seed * 1_000_003) + i)) in
  if certify_slot i then zipf_pick keys.cert_keys u else zipf_pick keys.leuk_keys u

(* serve-churn: distinct queries in a seeded order. A Certify on a
   robust 2-4-2 input in [20, 219]^2 at delta 1 fills one slot in eight
   (as on serve-hot, certificates of one kind keep the seed from deciding
   their weight) and a Tolerance (max delta 1..50) one in sixteen; the
   rest are Exists_flip over input x delta 1..50 x cascade or plain Bnb x
   bias noise or not. Exists_flip being most of the fast queries keeps
   the latency median inside one mode rather than at a seam between
   query kinds. *)
type churn_keys = { exists_order : int array; tolerance_order : int array; cert_order : int array }

let churn_certify_input c = [| 20 + (c mod 200); 20 + (c / 200) |]

let churn_keys nets seed =
  let rng = Util.Rng.create (0xc402 + seed) in
  let shuffled n =
    let a = Array.init n Fun.id in
    Util.Rng.shuffle rng a;
    a
  in
  let exists_order = shuffled (32 * 50 * 4) in
  let tolerance_order = shuffled (32 * 50) in
  let spec = Fannet.Noise.symmetric ~delta:1 ~bias_noise:false in
  let robust c =
    let input = churn_certify_input c in
    let label = Nn.Qnet.predict nets.small input in
    fst (Fannet.Bnb.count_flips nets.small spec ~input ~label) = 0
  in
  (* Enough robust inputs for the longest run (60 s at the churn rate). *)
  let cert_order =
    Array.of_seq (Seq.take 1000 (Seq.filter robust (Array.to_seq (shuffled (200 * 200)))))
  in
  { exists_order; tolerance_order; cert_order }

let churn_query nets keys i =
  let n_inputs = Array.length nets.leuk_inputs in
  if certify_slot i then
    certify_query nets.small ~delta:1 (churn_certify_input keys.cert_order.(i / 8))
  else if i mod 16 = 3 then begin
    let c = keys.tolerance_order.(i / 16) in
    leuk_query nets ~tolerance:true ~delta:(1 + (c / n_inputs)) ~bias_noise:true (c mod n_inputs)
  end
  else begin
    let c = keys.exists_order.(i) in
    let delta = 1 + (c / n_inputs mod 50) and variant = c / (n_inputs * 50) in
    let backend = if variant < 2 then backend else Fannet.Backend.Bnb in
    leuk_query ~backend nets ~tolerance:false ~delta ~bias_noise:(variant mod 2 = 0)
      (c mod n_inputs)
  end

(* The answer an in-process library call gives for a query, made by the
   same calls the daemon's compute makes (without a budget). *)
let library_answer net = function
  | P.Exists_flip { backend; spec; input; label } ->
      P.Verdict (Fannet.Backend.exists_flip backend net spec ~input ~label)
  | P.Tolerance { backend; bias_noise; max_delta; input; label } ->
      P.Min_flip
        (Ok
           (Fannet.Tolerance.input_min_flip_delta backend net ~bias_noise ~max_delta ~input
              ~label))
  | P.Certify { spec; input; label } ->
      let cv = Fannet.Backend.certified_exists_flip net spec ~input ~label in
      P.Certified { verdict = cv.Fannet.Backend.cv_verdict; cert = cv.Fannet.Backend.cv_cert }
  | P.Sensitivity _ | P.Count _ -> invalid_arg "library_answer: not in the benchmark mix"

(* ------------------------------------------------------------------ *)
(* Set-up and load                                                      *)
(* ------------------------------------------------------------------ *)

type state = {
  d : daemon;
  nets : nets;
  leuk_digest : string;
  small_digest : string;
  query : int -> P.query;  (** the i-th request of the stream *)
  warm : P.query array;  (** sent once during set-up *)
}

let net_of st = function P.Certify _ -> st.nets.small | _ -> st.nets.leuk
let digest_of st = function P.Certify _ -> st.small_digest | _ -> st.leuk_digest

let setup ~fannet ~mode ~work_dir ~seed () =
  let d = spawn ~fannet ~mode ~work_dir in
  let p = Fannet.Pipeline.run () in
  let nets =
    {
      leuk = p.Fannet.Pipeline.qnet;
      leuk_inputs = Fannet.Pipeline.analysis_inputs p;
      small = Certify_cold.small_qnet ();
    }
  in
  let load c net =
    match Serve.Client.load c net with Ok dg -> dg | Error e -> failwith ("load: " ^ e)
  in
  with_conn d.addr @@ fun c ->
  let leuk_digest = load c nets.leuk and small_digest = load c nets.small in
  let st =
    match mode with
    | Churn ->
        let keys = churn_keys nets seed in
        { d; nets; leuk_digest; small_digest; query = churn_query nets keys; warm = [||] }
    | Hot ->
        (* Warm-up: every key once, so the timed phase is all cache hits. *)
        let keys = hot_keys nets seed in
        let warm = Array.append keys.leuk_keys keys.cert_keys in
        { d; nets; leuk_digest; small_digest; query = hot_query keys seed; warm }
  in
  Array.iter
    (fun q ->
      match Serve.Client.query c ~digest:(digest_of st q) q with
      | Ok (P.Answer _) -> ()
      | _ -> failwith "warm-up query failed")
    st.warm;
  st

type sample = {
  index : int;
  ms : float;  (** from send (closed loop) or due time (open loop) *)
  certify : bool;
  reply : (P.reply, string) Stdlib.result;
}

(* One client thread per connection; a client that raised fails the run. *)
let run_clients client ~empty =
  let results = Array.make (nproc ()) empty in
  let errors = Array.make (nproc ()) None in
  let threads =
    Array.init (nproc ()) (fun k ->
        Thread.create
          (fun () -> try results.(k) <- client () with e -> errors.(k) <- Some e)
          ())
  in
  Array.iter Thread.join threads;
  Array.iter (Option.iter raise) errors;
  results

(* Closed loop: each connection sends its next request when the previous
   reply arrived. *)
let closed_loop st ~seconds =
  let next = Atomic.make 0 in
  let deadline = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let client () =
    with_conn st.d.addr @@ fun c ->
    let acc = ref [] in
    while Int64.compare (now ()) deadline < 0 do
      let i = Atomic.fetch_and_add next 1 in
      let q = st.query i in
      let t0 = now () in
      let reply = Serve.Client.query c ~digest:(digest_of st q) q in
      acc := { index = i; ms = ms_since t0; certify = is_certify q; reply } :: !acc
    done;
    !acc
  in
  let results = run_clients client ~empty:[] in
  (Array.to_list results |> List.concat, [||])

(* Open loop: seeded Poisson arrivals at [churn_rate]. The gaps are
   scaled to fill the window exactly, so every run offers the same number
   of requests. A request is timed from its due time; a connection that
   was free before the due time sleeps until then, and how late it woke
   is the generator's own lateness. *)
let open_loop st ~seed ~seconds =
  let n = int_of_float (churn_rate *. seconds) in
  (* Distinct Exists_flip queries run out at request 6400. *)
  if n > 6400 then failwith "serve-churn: run too long for its distinct queries";
  let rng = Util.Rng.create (0xa771 + seed) in
  let gaps = Array.init n (fun _ -> -.log (1. -. Util.Rng.float rng)) in
  let scale = seconds /. Util.Stats.sum gaps in
  let due = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i g ->
      acc := !acc +. (g *. scale);
      due.(i) <- !acc)
    gaps;
  let queries = Array.init n st.query in
  let next = Atomic.make 0 in
  let t0 = Obs.Clock.now_s () in
  let client () =
    with_conn st.d.addr @@ fun c ->
    let acc = ref [] and late = ref [] in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due_s = t0 +. due.(i) in
        let wait = due_s -. Obs.Clock.now_s () in
        if wait > 0. then begin
          Thread.delay wait;
          late := (1e3 *. (Obs.Clock.now_s () -. due_s)) :: !late
        end;
        let q = queries.(i) in
        let reply = Serve.Client.query c ~digest:(digest_of st q) q in
        let ms = 1e3 *. (Obs.Clock.now_s () -. due_s) in
        acc := { index = i; ms; certify = is_certify q; reply } :: !acc;
        go ()
      end
    in
    go ();
    (!acc, !late)
  in
  let results = run_clients client ~empty:([], []) in
  let samples = List.concat_map fst (Array.to_list results) in
  let late = Array.of_list (List.concat_map snd (Array.to_list results)) in
  (samples, late)

(* ------------------------------------------------------------------ *)
(* In-process replay for the traced run                                 *)
(* ------------------------------------------------------------------ *)

(* The recorded request stream goes once more through the daemon's own
   public parts, in the daemon's order, with a span around each: frame
   and request decode, cache key and LRU lookup, the pool job (the same
   calls the daemon's compute makes), the cache weight encode, LRU
   insert, journal append, reply encode and framing, and the client's
   reply decode. *)
type replay = {
  pool : Serve.Pool.t;
  cache : P.answer Serve.Lru.t;
  store : Serve.Store.t option;
  store_path : string option;
  mutable appends : int;
  mutable append_bytes : int;
  mutable request_bytes : int;
  mutable reply_bytes : int;
}

let replay_create ~mode ~work_dir =
  let store_path =
    match mode with
    | Hot -> None
    | Churn ->
        let p = Filename.concat work_dir (Printf.sprintf "replay-%d.store" (Unix.getpid ())) in
        if Sys.file_exists p then Sys.remove p;
        Some p
  in
  let store =
    Option.map
      (fun path ->
        match Serve.Store.open_ ~path with
        | Ok (s, _) -> s
        | Error e -> failwith ("replay store: " ^ e))
      store_path
  in
  {
    pool = Serve.Pool.create ~workers:(workers ());
    cache =
      Serve.Lru.create
        ~cap:
          (match mode with
          | Hot -> Serve.Daemon.default_config.cache_cap_bytes
          | Churn -> churn_cache_bytes);
    store;
    store_path;
    appends = 0;
    append_bytes = 0;
    request_bytes = 0;
    reply_bytes = 0;
  }

let replay_close r =
  Serve.Pool.shutdown r.pool;
  Option.iter Serve.Store.close r.store;
  Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) r.store_path

let replay_one st r ~rid q =
  let layer = Trace.layer in
  let frame =
    Serve.Wire.encode
      (P.encode_request
         { rid; request = P.Query { digest = digest_of st q; query = q; budget = P.no_budget } })
  in
  r.request_bytes <- r.request_bytes + String.length frame;
  let digest, query =
    layer "wire.decode" (fun () ->
        match Serve.Wire.decode frame with
        | Error e -> failwith (Serve.Wire.error_to_string e)
        | Ok (payload, _) -> (
            match P.decode_request payload with
            | Ok { request = P.Query { digest; query; _ }; _ } -> (digest, query)
            | _ -> failwith "replay: undecodable request"))
  in
  let key, cached =
    layer "cache.find" (fun () ->
        let key = P.query_key ~digest query in
        (key, Serve.Lru.find r.cache key))
  in
  let answer, cached =
    match cached with
    | Some a -> (a, true)
    | None ->
        let job_s = ref 0. in
        let net = net_of st query in
        let answer =
          layer "admission.pool" (fun () ->
              Serve.Pool.run r.pool (fun () ->
                  let t0 = now () in
                  let a = library_answer net query in
                  job_s := s_since t0;
                  a))
        in
        Trace.move ~from:"admission.pool" ~to_:"serve.compute" !job_s;
        let weight =
          layer "cache.weight" (fun () ->
              String.length (Util.Json.to_string (P.answer_json answer)))
        in
        Trace.count "calls.cache.weight" 1.;
        layer "cache.add" (fun () -> Serve.Lru.add ~weight r.cache key answer);
        Trace.count "calls.cache.add" 1.;
        Option.iter
          (fun s ->
            layer "store.append" (fun () -> Serve.Store.append s ~key answer);
            Trace.count "calls.store.append" 1.;
            r.appends <- r.appends + 1;
            r.append_bytes <- r.append_bytes + String.length key + weight)
          r.store;
        (answer, false)
  in
  let reply =
    layer "reply.encode" (fun () ->
        Serve.Wire.encode (P.encode_reply { rid; reply = P.Answer { cached; answer } }))
  in
  r.reply_bytes <- r.reply_bytes + String.length reply;
  layer "reply.decode" (fun () ->
      match Serve.Wire.decode reply with
      | Ok (payload, _) -> ignore (P.decode_reply payload)
      | Error e -> failwith (Serve.Wire.error_to_string e))

(* ------------------------------------------------------------------ *)
(* The run                                                              *)
(* ------------------------------------------------------------------ *)

let run ~mode ~fannet ~work_dir ~seed ~seconds ~trace =
  if fannet = "" || work_dir = "" then failwith "serve workloads need --fannet and --work-dir";
  (* No domain may exist while daemons are being forked: the pipeline's
     parallel validation runs sequentially here. *)
  Util.Parallel.set_default_jobs (Some 1);
  let st, setup_s =
    repeated_setup ~reps:3
      ~discard:(fun st -> ignore (stop st.d))
      (setup ~fannet ~mode ~work_dir ~seed)
  in
  let before = scrape st.d.addr in
  let t_start = now () in
  let samples, late =
    match mode with
    | Hot -> closed_loop st ~seconds
    | Churn -> open_loop st ~seed ~seconds
  in
  let wall = s_since t_start in
  let after = scrape st.d.addr in
  let daemon_rss = peak_rss_mb (Some st.d.pid) in
  let acct = stop st.d in
  let samples = List.sort (fun a b -> compare a.index b.index) samples in
  let n = List.length samples in
  (* Checks. Every reply must be an answer equal to the library's answer
     for its key, each distinct key computed in process once. Comparing
     answers encodes them, ~10 ms for a certificate, so certified replies
     are compared in full on a seeded sample, which lib/cert also
     re-checks, and by verdict against Bnb otherwise. *)
  let failures = ref 0 and notes = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failures;
        if List.length !notes < 5 then notes := m :: !notes)
      fmt
  in
  let reference = Hashtbl.create 64 in
  let rng = Util.Rng.create (0xc3ec + seed) in
  let certified = List.filter (fun s -> s.certify) samples |> Array.of_list in
  let sampled = Hashtbl.create 8 in
  for _ = 1 to min 8 (Array.length certified) do
    Hashtbl.replace sampled (Util.Rng.pick rng certified).index ()
  done;
  List.iter
    (fun s ->
      let q = st.query s.index in
      let net = net_of st q in
      match s.reply with
      | Ok (P.Answer { answer; _ }) -> (
          let key = P.query_key ~digest:(digest_of st q) q in
          let full_check = (not s.certify) || Hashtbl.mem sampled s.index in
          (if full_check then begin
             let expected =
               match Hashtbl.find_opt reference key with
               | Some a -> a
               | None ->
                   let a = library_answer net q in
                   Hashtbl.add reference key a;
                   a
             in
             if not (P.answer_equal expected answer) then
               fail "reply %d differs from the library answer" s.index
           end
           else
             match (q, answer) with
             | P.Certify { spec; input; label }, P.Certified { verdict; _ } ->
                 let flips, _ = Fannet.Bnb.count_flips net spec ~input ~label in
                 if (flips = 0) <> (verdict = Fannet.Backend.Robust) then
                   fail "certified reply %d disagrees with Bnb" s.index
             | _ -> fail "reply %d has the wrong answer form" s.index);
          match (q, answer) with
          | P.Certify { spec; input; label }, P.Certified { verdict; cert }
            when Hashtbl.mem sampled s.index -> (
              match
                Fannet.Backend.check_certified net spec ~input ~label
                  { Fannet.Backend.cv_verdict = verdict; cv_cert = cert }
              with
              | Ok () -> ()
              | Error e -> fail "certificate of reply %d rejected: %s" s.index e)
          | _ -> ())
      | Ok P.(Overloaded _) -> fail "reply %d refused (overloaded)" s.index
      | Ok _ -> fail "reply %d is not an answer" s.index
      | Error e -> fail "reply %d failed: %s" s.index e)
    samples;
  let d_sub = after.P.submitted - before.P.submitted in
  let d_served = after.P.served - before.P.served in
  let d_rejected = after.P.rejected - before.P.rejected in
  let d_failed = after.P.failed - before.P.failed in
  let d_hits = after.P.cache_hits - before.P.cache_hits in
  if after.P.served + after.P.rejected + after.P.failed <> after.P.submitted then
    fail "scrape: served + rejected + failed <> submitted";
  if d_sub <> n then fail "scrape counts %d queries, the clients sent %d" d_sub n;
  (match acct with
  | Some (sub, served, rejected, failed)
    when sub = after.P.submitted && served = after.P.served && rejected = after.P.rejected
         && failed = after.P.failed -> ()
  | Some _ -> fail "the daemon's final accounting line disagrees with its scrape"
  | None -> fail "the daemon did not stop cleanly through Shutdown");
  let late_p99 = if Array.length late = 0 then 0. else Util.Stats.percentile late 99. in
  (* The generator fell behind when its own wake-ups ran late, not the
     daemon: such a run does not measure the offered load. *)
  if mode = Churn && late_p99 > 20. then fail "load generator ran late: p99 %.1f ms" late_p99;
  let lat = Array.of_list (List.map (fun s -> s.ms) samples) in
  let cert_lat =
    Array.of_list (List.filter_map (fun s -> if s.certify then Some s.ms else None) samples)
  in
  let tail_ms, tail_p = tail lat in
  let name = match mode with Hot -> "serve-hot" | Churn -> "serve-churn" in
  Printf.printf
    "%s: %d queries over %d connections in %.2f s; scrape: %d submitted, %d served, %d \
     rejected, %d failed, %d cache hits\n"
    name n (nproc ()) wall d_sub d_served d_rejected d_failed d_hits;
  Printf.printf "op_tail_ms is p%.1f of n=%d\nfail_share %.4f share\n" tail_p n
    (float_of_int !failures /. float_of_int (max 1 n));
  if mode = Churn then
    Printf.printf "open loop at %.0f req/s; generator lateness p99 %.3f ms (%d wake-ups)\n"
      churn_rate late_p99 (Array.length late);
  List.iter (fun m -> Printf.printf "check failed: %s\n" m) (List.rev !notes);
  let ops_per_s = float_of_int n /. wall in
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s);
        ("ops_per_s", ops_per_s);
        ("op_p50_ms", median lat);
        ("op_tail_ms", tail_ms);
        ("peak_rss_mb", daemon_rss);
      ]
    else begin
      let r = replay_create ~mode ~work_dir in
      let stream = List.map (fun s -> st.query s.index) samples in
      Array.iteri (fun i q -> replay_one st r ~rid:(i + 1) q) st.warm;
      let hits0, misses0, evict0 = Serve.Lru.stats r.cache in
      r.request_bytes <- 0;
      r.reply_bytes <- 0;
      List.iteri
        (fun i q ->
          ignore (Trace.op ~traced:(i / 8 mod 2 = 1) (fun () -> replay_one st r ~rid:(1000 + i) q)))
        stream;
      Trace.set_traced false;
      let hits, misses, evictions = Serve.Lru.stats r.cache in
      let store_stats = Option.map Serve.Store.stats r.store in
      replay_close r;
      let hit_ratio =
        float_of_int (hits - hits0) /. float_of_int (max 1 (hits - hits0 + misses - misses0))
      in
      if mode = Hot && hit_ratio < 0.99 then
        fail "serve-hot replay hit ratio %.3f < 0.99" hit_ratio;
      let nops = List.length stream in
      (* Mean time of one call of a layer over the traced ops. *)
      let per_call name =
        let calls = Trace.total ("calls." ^ name) in
        if calls = 0. then 0. else Trace.self_ms name *. float_of_int !Trace.traced_ops /. calls
      in
      let rows =
        List.map
          (fun l -> (l, Trace.self_ms l))
          [
            "wire.decode"; "cache.find"; "admission.pool"; "serve.compute"; "cache.weight";
            "cache.add"; "store.append"; "reply.encode"; "reply.decode";
          ]
      in
      Trace.print_table ~title:name rows;
      let residual = mean lat -. Trace.op_mean_ms () in
      Printf.printf "  %-22s %10.3f ms  (end-to-end mean %.3f ms minus replayed layers)\n%!"
        "serve.residual_ms" residual (mean lat);
      let queries, query_s = Trace.backend_queries () in
      [
        ("trace.coverage", Trace.coverage ());
        ("trace.overhead_ms", Trace.overhead_ms ());
        ("op.certify_p50_ms", median cert_lat);
        ("bnb.queries", Trace.per_op (float_of_int queries));
        ("bnb.query_us", if queries > 0 then 1e6 *. query_s /. float_of_int queries else 0.);
        ("wire.decode_us", 1e3 *. Trace.self_ms "wire.decode");
        ("wire.request_bytes", float_of_int r.request_bytes /. float_of_int (max 1 nops));
        ("admission.pool_wait_ms", Trace.self_ms "admission.pool");
        ("admission.rejected_share", float_of_int d_rejected /. float_of_int (max 1 d_sub));
        ("serve.compute_ms", Trace.self_ms "serve.compute");
        ("cache.hit_ratio", hit_ratio);
        ("cache.find_us", 1e3 *. Trace.self_ms "cache.find");
        ("cache.add_us", 1e3 *. per_call "cache.add");
        ("cache.evictions", float_of_int (evictions - evict0));
        ("cache.weight_ms", per_call "cache.weight");
        ("store.append_ms", per_call "store.append");
        ( "store.append_bytes",
          if r.appends = 0 then 0. else float_of_int r.append_bytes /. float_of_int r.appends );
        ( "store.compactions",
          match store_stats with Some s -> float_of_int s.Serve.Store.compactions | None -> 0. );
        ( "store.file_bytes",
          match store_stats with Some s -> float_of_int s.Serve.Store.file_bytes | None -> 0. );
        ("reply.encode_ms", Trace.self_ms "reply.encode");
        ("reply.decode_ms", Trace.self_ms "reply.decode");
        ("reply.bytes", float_of_int r.reply_bytes /. float_of_int (max 1 nops));
        ("serve.residual_ms", residual);
      ]
    end
  in
  { correct = !failures = 0; attempted = n; failed = !failures; metrics }
