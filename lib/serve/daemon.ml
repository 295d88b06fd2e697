(* The daemon: accept thread + one systhread per connection for I/O,
   and compute either on a resident in-process Pool of worker domains
   (procs = 0) or on supervised worker processes (procs > 0, see
   Supervisor) — crash-only mode, where the accept loop stays
   single-domain and small and a worker crash is an event, not an
   outage. Systhreads all share one domain, so blocking socket reads
   cost nothing in compute terms; the solver work runs where warm
   Fannet.Warm sessions accumulate (a pool worker domain's DLS, or a
   worker process's own pool). *)

type addr = Unix_path of string | Tcp of string * int

type config = {
  addr : addr;
  workers : int;
  cap : int;
  cache_cap_bytes : int;
  timeout_ceiling_s : float option;
  procs : int;
  store_path : string option;
}

let default_config =
  let workers = Util.Parallel.default_jobs () in
  {
    addr = Unix_path "fannetd.sock";
    workers;
    cap = 4 * workers;
    cache_cap_bytes = 16 * 1024 * 1024;
    timeout_ceiling_s = None;
    procs = 0;
    store_path = None;
  }

(* Obs mirrors of the always-on atomics; recording is a no-op while the
   registry is disabled. *)
let m_submitted = Obs.Metrics.counter "serve.submitted"
let m_served = Obs.Metrics.counter "serve.served"
let m_rejected = Obs.Metrics.counter "serve.rejected"
let m_failed = Obs.Metrics.counter "serve.failed"
let m_cache_hits = Obs.Metrics.counter "serve.cache.hits"
let m_cache_misses = Obs.Metrics.counter "serve.cache.misses"
let m_store_recovered = Obs.Metrics.counter "serve.store.recovered"
let m_store_dropped = Obs.Metrics.counter "serve.store.dropped"
let m_worker_deaths = Obs.Metrics.counter "serve.worker.deaths"
let m_worker_restarts = Obs.Metrics.counter "serve.worker.restarts"
let h_query = Obs.Metrics.histogram "serve.query_s"

(* Compute backend: the in-process pool (the default), or the supervised
   worker-process fleet. *)
type compute = In_process of Pool.t | Supervised of Supervisor.t

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : addr;
  unlink_path : string option;
  compute : compute;
  store : Store.t option;
  cache : string Lru.t;  (* query key -> encoded answer sub-document *)
  nets : (string, Nn.Qnet.t) Hashtbl.t;
  nets_lock : Mutex.t;
  stop_token : Resil.Budget.token;
  stopping : bool Atomic.t;
  stopped_flag : bool Atomic.t;
  in_flight : int Atomic.t;
  submitted : int Atomic.t;
  served : int Atomic.t;
  rejected : int Atomic.t;
  failed : int Atomic.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_lock : Mutex.t;
  mutable threads : Thread.t list; (* under conns_lock *)
  mutable accept_thread : Thread.t option;
  done_m : Mutex.t;
  done_c : Condition.t;
}

let address t = t.bound
let stopped t = Atomic.get t.stopped_flag

let stats t : Protocol.server_stats =
  let hits, misses, _ = Lru.stats t.cache in
  let networks =
    Mutex.lock t.nets_lock;
    let n = Hashtbl.length t.nets in
    Mutex.unlock t.nets_lock;
    n
  in
  {
    submitted = Atomic.get t.submitted;
    served = Atomic.get t.served;
    rejected = Atomic.get t.rejected;
    failed = Atomic.get t.failed;
    cache_hits = hits;
    cache_misses = misses;
    cache_len = Lru.length t.cache;
    in_flight = Atomic.get t.in_flight;
    networks;
  }

(* ---------- query execution (runs on a pool worker domain) ---------- *)

let execute net ~budget (q : Protocol.query) : Protocol.answer =
  Resil.Faultpoint.guard "serve.worker.raise" (Failure "injected serve worker fault");
  match q with
  | Protocol.Exists_flip { backend; spec; input; label } ->
      Protocol.Verdict (Fannet.Backend.exists_flip ~budget backend net spec ~input ~label)
  | Protocol.Tolerance { backend; bias_noise; max_delta; input; label } ->
      Protocol.Min_flip
        (Resil.Budget.catch (fun () ->
             Fannet.Tolerance.input_min_flip_delta ~budget backend net
               ~bias_noise ~max_delta ~input ~label))
  | Protocol.Sensitivity { spec; input; label } ->
      Protocol.Sidedness
        (Resil.Budget.catch (fun () ->
             Fannet.Sensitivity.formal_sidedness ~jobs:1 ~budget net spec
               ~inputs:[| (input, label) |]))
  | Protocol.Certify { spec; input; label } ->
      let cv = Fannet.Backend.certified_exists_flip ~budget net spec ~input ~label in
      Protocol.Certified { verdict = cv.Fannet.Backend.cv_verdict; cert = cv.Fannet.Backend.cv_cert }
  | Protocol.Count { spec; input; label; mode } ->
      let mode =
        match mode with
        | Protocol.Count_exact { certify } ->
            Fannet.Robustness.Exact_mode { certify }
        | Protocol.Count_approx { epsilon; delta; seed } ->
            Fannet.Robustness.Approx_mode { epsilon; delta; seed }
      in
      let r = Fannet.Robustness.probability ~budget ~mode net spec ~input ~label in
      Protocol.Counted
        (match r.Fannet.Robustness.status with
        | Ok () ->
            Ok
              {
                Protocol.flips = r.Fannet.Robustness.flips;
                total = r.Fannet.Robustness.total;
                count_cert = r.Fannet.Robustness.certificate;
              }
        | Error reason -> Error reason)

(* The one place a computed query becomes a reply, for the in-process
   pool and the supervised workers alike. The engines reject unsupported
   shapes (single-output networks, non-identity output layers, ...) with
   Invalid_argument: that is the client's query, not a daemon fault, so
   it comes back as a typed protocol error — never escapes a worker
   raw. *)
let compute_reply net ~budget query : Protocol.reply =
  match execute net ~budget query with
  | answer -> Protocol.Answer { cached = false; answer }
  | exception Invalid_argument msg -> Protocol.Protocol_error ("unsupported query: " ^ msg)
  | exception e -> Protocol.Server_error (Printexc.to_string e)

let clamp_timeout t timeout_s =
  match (timeout_s, t.cfg.timeout_ceiling_s) with
  | None, ceiling -> ceiling
  | (Some _ as x), None -> x
  | Some x, Some c -> Some (Float.min x c)

let budget_of t (b : Protocol.budget_spec) =
  Resil.Budget.create
    ?timeout_s:(clamp_timeout t b.Protocol.timeout_s)
    ?conflicts:b.Protocol.conflicts
    ~token:(Resil.Budget.link t.stop_token) ()

let find_net t digest =
  Mutex.lock t.nets_lock;
  let r = Hashtbl.find_opt t.nets digest in
  Mutex.unlock t.nets_lock;
  r

(* A query's reply before framing. An answer travels as its encoded
   sub-document ([Protocol.encode_answer], rendered once), which is what
   the cache holds and what [Protocol.encode_answer_reply] splices into
   the envelope. *)
type outcome = Encoded of { cached : bool; answer : string } | Reply of Protocol.reply

(* A decided answer enters the LRU and, write-through, the journal, as
   the bytes its reply carries. Entries weigh their byte length:
   certificates dominate. *)
let served_answer t key answer =
  let bytes = Protocol.encode_answer answer in
  if Protocol.answer_decided answer then begin
    Lru.add ~weight:(String.length bytes) t.cache key bytes;
    match t.store with Some s -> Store.append_encoded s ~key bytes | None -> ()
  end;
  Atomic.incr t.served;
  Obs.Metrics.incr m_served;
  Encoded { cached = false; answer = bytes }

let failed_reply t reply =
  Atomic.incr t.failed;
  Obs.Metrics.incr m_failed;
  Reply reply

(* Run one admitted query on the compute backend and account for the
   outcome. *)
let compute_query t ~key ~digest ~query ~budget net =
  let since = Obs.Clock.now_ns () in
  let result =
    match t.compute with
    | In_process pool -> (
        let budget = budget_of t budget in
        try Ok (Pool.run pool (fun () -> compute_reply net ~budget query))
        with e -> Error (Printexc.to_string e))
    | Supervised sup ->
        (* clamp here — the worker process builds its budget from the
           spec verbatim, and cannot share the parent's cancellation
           token *)
        Supervisor.query sup ~digest ~query
          ~budget:{ budget with Protocol.timeout_s = clamp_timeout t budget.Protocol.timeout_s }
  in
  match result with
  | Ok (Protocol.Answer { answer; _ }) ->
      Obs.Metrics.observe h_query (Obs.Clock.elapsed_s ~since);
      served_answer t key answer
  | Ok ((Protocol.Protocol_error _ | Protocol.Server_error _) as reply) ->
      failed_reply t reply
  | Ok _ -> failed_reply t (Protocol.Server_error "unexpected worker reply")
  | Error msg ->
      (* a refused pool job, or a worker that died mid-query / is
         restarting / has its circuit open: a typed server error the
         client may retry — never a dead daemon *)
      failed_reply t (Protocol.Server_error msg)

let handle_query t ~digest ~query ~budget =
  Atomic.incr t.submitted;
  Obs.Metrics.incr m_submitted;
  match find_net t digest with
  | None -> failed_reply t (Protocol.Server_error ("unknown network digest " ^ digest))
  | Some net -> (
      let key = Protocol.query_key ~digest query in
      match Lru.find t.cache key with
      | Some answer ->
          Obs.Metrics.incr m_cache_hits;
          Atomic.incr t.served;
          Obs.Metrics.incr m_served;
          Encoded { cached = true; answer }
      | None ->
          Obs.Metrics.incr m_cache_misses;
          (* Admission: claim a slot before touching the compute backend
             so the reject path never queues work; a stopping daemon
             admits nothing (its journal may already be closed). *)
          let n = Atomic.fetch_and_add t.in_flight 1 in
          if n >= t.cfg.cap || Atomic.get t.stopping then begin
            Atomic.decr t.in_flight;
            Atomic.incr t.rejected;
            Obs.Metrics.incr m_rejected;
            Reply (Protocol.Overloaded { in_flight = n; cap = t.cfg.cap })
          end
          else
            Fun.protect
              ~finally:(fun () -> Atomic.decr t.in_flight)
              (fun () -> compute_query t ~key ~digest ~query ~budget net))

let handle_load t ~network : Protocol.reply =
  match Nn.Qnet.of_string network with
  | Error e -> Protocol.Server_error ("bad network: " ^ e)
  | Ok net ->
      let canonical = Nn.Qnet.to_string net in
      let digest = Protocol.network_digest canonical in
      Mutex.lock t.nets_lock;
      Hashtbl.replace t.nets digest net;
      Mutex.unlock t.nets_lock;
      (match t.compute with
      | Supervised sup -> Supervisor.load sup ~digest ~network:canonical
      | In_process _ -> ());
      Protocol.Loaded { digest }

(* ---------- connection handling ---------- *)

let send_payload fd payload =
  if Resil.Faultpoint.hit "serve.conn.reset" then begin
    (* chaos: the client connection drops just before the reply goes
       out — the daemon-side accounting already happened, the client
       sees a reset, the daemon must shrug *)
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
    raise (Unix.Unix_error (Unix.ECONNRESET, "send", "injected serve.conn.reset"))
  end;
  Wire.write_frame fd payload

let send fd (env : Protocol.reply_envelope) = send_payload fd (Protocol.encode_reply env)

let send_outcome fd rid = function
  | Encoded { cached; answer } ->
      send_payload fd (Protocol.encode_answer_reply ~rid ~cached answer)
  | Reply reply -> send fd { rid; reply }

(* Flush our side (FIN) and briefly drain whatever the peer still has in
   flight before the caller closes the fd: closing with unread bytes in
   the receive buffer would RST the connection and could destroy our
   last reply on the wire. *)
let flush_and_drain fd =
  try
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
    let buf = Bytes.create 4096 in
    let rec drain () = if Unix.read fd buf 0 4096 > 0 then drain () in
    drain ()
  with _ -> ()

let http_scrape t fd =
  let body =
    let s = stats t in
    Printf.sprintf
      "serve.submitted %d\nserve.served %d\nserve.rejected %d\n\
       serve.failed %d\nserve.cache_hits %d\nserve.cache_misses %d\n\
       serve.cache_len %d\nserve.in_flight %d\nserve.networks %d\n\n%s"
      s.submitted s.served s.rejected s.failed s.cache_hits s.cache_misses
      s.cache_len s.in_flight s.networks
      (Obs.Metrics.text_report ())
  in
  Wire.write_all fd
    (Printf.sprintf
       "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n%s"
       (String.length body) body);
  flush_and_drain fd

(* Forward reference: [dispatch] on Shutdown must call [stop], defined
   below (it needs the whole lifecycle). *)
let stop_ref : (t -> unit) ref = ref (fun _ -> ())

(* [true] to keep reading frames on this connection. *)
let dispatch t fd rid (request : Protocol.request) =
  match request with
  | Protocol.Ping ->
      send fd { rid; reply = Protocol.Pong };
      true
  | Protocol.Load { network } ->
      send fd { rid; reply = handle_load t ~network };
      true
  | Protocol.Query { digest; query; budget } ->
      send_outcome fd rid (handle_query t ~digest ~query ~budget);
      true
  | Protocol.Metrics ->
      send fd
        { rid; reply = Protocol.Metrics_reply { stats = stats t; obs = Obs.Report.snapshot () } };
      true
  | Protocol.Shutdown ->
      send fd { rid; reply = Protocol.Bye };
      (* [stop] joins connection threads — including this one — so it
         must run elsewhere. *)
      let stop_fn = !stop_ref in
      ignore (Thread.create (fun () -> stop_fn t) ());
      false
  | Protocol.Set_faults _ ->
      (* supervisor-internal control traffic, not a client op *)
      send fd
        { rid; reply = Protocol.Protocol_error "set-faults is not a client request" };
      true

let rec serve_frames t fd ~first =
  let frame =
    match first with
    | Some f -> Wire.read_frame_after ~first:f fd
    | None -> Wire.read_frame fd
  in
  match frame with
  | Error Wire.Closed | Error Wire.Truncated -> ()
  | Error ((Wire.Bad_magic _ | Wire.Oversized _) as err) ->
      (* Framing is broken — there is no way to resync the stream, so
         answer typed and close. Closing with unread bytes in the
         receive buffer would RST the connection and could destroy the
         reply in flight, so flush our side (FIN) and briefly drain the
         peer's remaining garbage first. *)
      (try
         send fd { rid = 0; reply = Protocol.Protocol_error (Wire.error_to_string err) }
       with _ -> ());
      flush_and_drain fd
  | Ok payload -> (
      match Protocol.decode_request payload with
      | Error e ->
          (* The frame was intact, only its JSON was bad: reply typed
             and keep the connection. *)
          send fd { rid = 0; reply = Protocol.Protocol_error e };
          serve_frames t fd ~first:None
      | Ok { Protocol.rid; request } ->
          if dispatch t fd rid request then serve_frames t fd ~first:None)

type sniffed = Sniff_closed | Sniff_short | Sniff of string

let sniff fd =
  let buf = Bytes.create 4 in
  let rec go off =
    if off = 4 then Sniff (Bytes.to_string buf)
    else
      match Unix.read fd buf off (4 - off) with
      | 0 -> if off = 0 then Sniff_closed else Sniff_short
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let handle_conn t fd =
  match sniff fd with
  | Sniff_closed | Sniff_short -> ()
  | Sniff first when String.equal first "GET " -> http_scrape t fd
  | Sniff first -> serve_frames t fd ~first:(Some first)

let conn_thread t fd () =
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.conns_lock;
      Hashtbl.remove t.conns fd;
      Mutex.unlock t.conns_lock;
      try Unix.close fd with _ -> ())
    (fun () -> try handle_conn t fd with _ -> ())

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Mutex.lock t.conns_lock;
        if Atomic.get t.stopping then begin
          Mutex.unlock t.conns_lock;
          (try Unix.close fd with _ -> ())
        end
        else begin
          Hashtbl.replace t.conns fd ();
          let th = Thread.create (conn_thread t fd) () in
          t.threads <- th :: t.threads;
          Mutex.unlock t.conns_lock
        end;
        loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception _ ->
        (* [stop] shut the listening socket down; anything else on a
           dead listener is equally terminal. *)
        ()
  in
  loop ()

(* ---------- lifecycle ---------- *)

let bind_listen = function
  | Unix_path p ->
      (try if Sys.file_exists p then Sys.remove p with Sys_error _ -> ());
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      (try
         Unix.bind fd (ADDR_UNIX p);
         Unix.listen fd 64
       with e ->
         (try Unix.close fd with _ -> ());
         raise e);
      (fd, Unix_path p, Some p)
  | Tcp (host, port) ->
      (* An unresolvable host is refused rather than bound on loopback,
         which would announce one address while listening on another. *)
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match (Unix.gethostbyname host).h_addr_list with
          | [||] | (exception Not_found) ->
              invalid_arg (Printf.sprintf "Daemon.run: cannot resolve TCP host %S" host)
          | addrs -> addrs.(0))
      in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd SO_REUSEADDR true;
         Unix.bind fd (ADDR_INET (inet, port));
         Unix.listen fd 64
       with e ->
         (try Unix.close fd with _ -> ());
         raise e);
      let bound =
        match Unix.getsockname fd with
        | ADDR_INET (_, p) -> Tcp (host, p)
        | _ -> Tcp (host, port)
      in
      (fd, bound, None)

let run cfg =
  (* A client closing mid-reply must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Unix.bind truncates a port mod 65536 and would bind another one *)
  (match cfg.addr with
  | Tcp (_, port) when port < 0 || port > 65535 ->
      invalid_arg (Printf.sprintf "Daemon.run: TCP port %d outside 0..65535" port)
  | Tcp _ | Unix_path _ -> ());
  let cfg = { cfg with workers = Stdlib.max 1 cfg.workers; cap = Stdlib.max 1 cfg.cap } in
  (* Supervised mode forks the compute fleet FIRST, while this process
     is still single-domain with no listening socket or journal to
     inherit — the in-process pool (which spawns domains, making later
     forks undefined) exists only in in-process mode. *)
  let compute =
    if cfg.procs > 0 then
      Supervised
        (Supervisor.create ~procs:cfg.procs ~workers:cfg.workers ~execute:compute_reply ())
    else In_process (Pool.create ~workers:cfg.workers)
  in
  let listen_fd, bound, unlink_path =
    try bind_listen cfg.addr
    with e ->
      (match compute with Supervised s -> Supervisor.stop s | In_process p -> Pool.shutdown p);
      raise e
  in
  let cache = Lru.create ~cap:cfg.cache_cap_bytes in
  let store =
    match cfg.store_path with
    | None -> None
    | Some path -> (
        match Store.open_ ~path with
        | Error _ -> None (* an unreadable journal must not block serving *)
        | Ok (s, recovered) ->
            (* warm the cache with recovered answers: every one of them
               was re-validated by Store (certificates through lib/cert).
               The cache holds each answer's encoded bytes, which the
               deterministic codec makes bit-identical to the cold
               reply's, and hits splice them into the reply envelope *)
            List.iter
              (fun (key, answer) ->
                let bytes = Protocol.encode_answer answer in
                Lru.add ~weight:(String.length bytes) cache key bytes)
              recovered;
            let st = Store.stats s in
            Obs.Metrics.add m_store_recovered st.Store.recovered;
            Obs.Metrics.add m_store_dropped st.Store.dropped;
            Some s)
  in
  let t =
    {
      cfg;
      listen_fd;
      bound;
      unlink_path;
      compute;
      store;
      cache;
      nets = Hashtbl.create 8;
      nets_lock = Mutex.create ();
      stop_token = Resil.Budget.token ();
      stopping = Atomic.make false;
      stopped_flag = Atomic.make false;
      in_flight = Atomic.make 0;
      submitted = Atomic.make 0;
      served = Atomic.make 0;
      rejected = Atomic.make 0;
      failed = Atomic.make 0;
      conns = Hashtbl.create 16;
      conns_lock = Mutex.create ();
      threads = [];
      accept_thread = None;
      done_m = Mutex.create ();
      done_c = Condition.create ();
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let stop ?(grace_s = 30.) t =
  if Atomic.compare_and_set t.stopping false true then begin
    (* Wake the accept loop; [close] alone does not interrupt a thread
       blocked in accept(2). *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (* Drain in-flight queries within the grace period... *)
    let t0 = Obs.Clock.now_ns () in
    while Atomic.get t.in_flight > 0 && Obs.Clock.elapsed_s ~since:t0 < grace_s do
      Thread.delay 0.005
    done;
    (* ...then cancel stragglers through the linked budget tokens and
       give them a moment to unwind cooperatively. *)
    if Atomic.get t.in_flight > 0 then begin
      Resil.Budget.cancel t.stop_token;
      let t1 = Obs.Clock.now_ns () in
      while Atomic.get t.in_flight > 0 && Obs.Clock.elapsed_s ~since:t1 < 5.0 do
        Thread.delay 0.005
      done
    end;
    (* Close the journal BEFORE tearing down connections (whose Bye
       replies may still be flushing) or compute: Store.close serialises
       with any in-flight append or compaction under the store lock, so
       a SIGTERM-driven stop can never leave a mid-compaction tail —
       admission is already off, so nothing new will try to append. *)
    (match t.store with Some s -> Store.close s | None -> ());
    (match t.compute with
    | In_process pool -> Pool.shutdown pool
    | Supervised sup ->
        Obs.Metrics.add m_worker_deaths (Supervisor.deaths sup);
        Obs.Metrics.add m_worker_restarts (Supervisor.restarts sup);
        Supervisor.stop sup);
    (try Unix.close t.listen_fd with _ -> ());
    (* Wake connection threads blocked in a frame read; each closes its
       own fd on the way out. *)
    Mutex.lock t.conns_lock;
    let fds = Hashtbl.fold (fun fd () acc -> fd :: acc) t.conns [] in
    let ths = t.threads in
    Mutex.unlock t.conns_lock;
    List.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()) fds;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    List.iter Thread.join ths;
    (match t.unlink_path with
    | Some p -> ( try Sys.remove p with Sys_error _ -> ())
    | None -> ());
    Mutex.lock t.done_m;
    Atomic.set t.stopped_flag true;
    Condition.broadcast t.done_c;
    Mutex.unlock t.done_m
  end
  else begin
    (* Second caller: wait for the first to finish. *)
    Mutex.lock t.done_m;
    while not (Atomic.get t.stopped_flag) do
      Condition.wait t.done_c t.done_m
    done;
    Mutex.unlock t.done_m
  end

let () = stop_ref := fun t -> stop t

let wait t =
  Mutex.lock t.done_m;
  while not (Atomic.get t.stopped_flag) do
    Condition.wait t.done_c t.done_m
  done;
  Mutex.unlock t.done_m

let store_stats t = Option.map Store.stats t.store

let supervisor_stats t =
  match t.compute with
  | Supervised sup -> Some (Supervisor.restarts sup, Supervisor.deaths sup)
  | In_process _ -> None

let cache_weight t = Lru.total_weight t.cache
