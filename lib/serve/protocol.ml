(* fannet-wire/1 messages and their JSON codec. Encoding is
   deterministic (fixed field order); decoding reads the bytes with a
   [Util.Json.Cursor] and is total — every failure, syntactic or not, is
   a cursor error that the two public entry points surface as [Error]. *)

module J = Util.Json

let version = "fannet-wire/1"

type query =
  | Exists_flip of {
      backend : Fannet.Backend.t;
      spec : Fannet.Noise.spec;
      input : int array;
      label : int;
    }
  | Tolerance of {
      backend : Fannet.Backend.t;
      bias_noise : bool;
      max_delta : int;
      input : int array;
      label : int;
    }
  | Sensitivity of { spec : Fannet.Noise.spec; input : int array; label : int }
  | Certify of { spec : Fannet.Noise.spec; input : int array; label : int }
  | Count of {
      spec : Fannet.Noise.spec;
      input : int array;
      label : int;
      certify : bool;
    }

type budget_spec = { timeout_s : float option; conflicts : int option }

let no_budget = { timeout_s = None; conflicts = None }

type request =
  | Load of { network : string }
  | Query of { digest : string; query : query; budget : budget_spec }
  | Metrics
  | Ping
  | Shutdown
  | Set_faults of { spec : string }

type req_envelope = { rid : int; request : request }

type counted = {
  flips : Util.Bigcount.t;
  total : Util.Bigcount.t;
  count_cert : Count.Certificate.t option;
}

type answer =
  | Verdict of Fannet.Backend.verdict
  | Min_flip of (int option, Resil.Budget.reason) result
  | Sidedness of
      (Fannet.Sensitivity.formal_side array, Resil.Budget.reason) result
  | Certified of {
      verdict : Fannet.Backend.verdict;
      cert : Cert.Verdict.t option;
    }
  | Counted of (counted, Resil.Budget.reason) result

type server_stats = {
  submitted : int;
  served : int;
  rejected : int;
  failed : int;
  cache_hits : int;
  cache_misses : int;
  cache_len : int;
  in_flight : int;
  networks : int;
}

type reply =
  | Loaded of { digest : string }
  | Answer of { cached : bool; answer : answer }
  | Overloaded of { in_flight : int; cap : int }
  | Metrics_reply of { stats : server_stats; obs : Util.Json.t }
  | Pong
  | Bye
  | Protocol_error of string
  | Server_error of string

type reply_envelope = { rid : int; reply : reply }

(* ------------------------------------------------------------------ *)
(* Decode helpers                                                      *)
(* ------------------------------------------------------------------ *)

module C = J.Cursor

let fail c fmt = Printf.ksprintf (C.fail c) fmt

let int_array c = Array.of_list (C.list C.int c)

let int_array_json a = J.List (Array.to_list (Array.map (fun n -> J.Int n) a))

(* ------------------------------------------------------------------ *)
(* Leaf codecs: backend, spec, vector, reason, verdict                 *)
(* ------------------------------------------------------------------ *)

let rec backend_json (b : Fannet.Backend.t) =
  match b with
  | Fannet.Backend.Bnb -> J.Obj [ ("b", J.String "bnb") ]
  | Fannet.Backend.Smt -> J.Obj [ ("b", J.String "smt") ]
  | Fannet.Backend.Explicit { limit } ->
      J.Obj [ ("b", J.String "explicit"); ("limit", J.Int limit) ]
  | Fannet.Backend.Interval -> J.Obj [ ("b", J.String "interval") ]
  | Fannet.Backend.Cascade inner ->
      J.Obj [ ("b", J.String "cascade"); ("inner", backend_json inner) ]

let rec read_backend c : Fannet.Backend.t =
  C.obj
    (fun f ->
      match C.field f "b" C.string with
      | "bnb" -> Fannet.Backend.Bnb
      | "smt" -> Fannet.Backend.Smt
      | "explicit" -> Fannet.Backend.Explicit { limit = C.field f "limit" C.int }
      | "interval" -> Fannet.Backend.Interval
      | "cascade" -> Fannet.Backend.Cascade (C.field f "inner" read_backend)
      | s -> fail c "unknown backend %S" s)
    c

let spec_json (s : Fannet.Noise.spec) =
  J.Obj
    [
      ("delta_lo", J.Int s.Fannet.Noise.delta_lo);
      ("delta_hi", J.Int s.Fannet.Noise.delta_hi);
      ("bias_noise", J.Bool s.Fannet.Noise.bias_noise);
      ( "kind",
        J.String
          (match s.Fannet.Noise.kind with
          | Fannet.Noise.Relative -> "relative"
          | Fannet.Noise.Absolute -> "absolute") );
    ]

let read_spec c : Fannet.Noise.spec =
  C.obj
    (fun f ->
      {
        Fannet.Noise.delta_lo = C.field f "delta_lo" C.int;
        delta_hi = C.field f "delta_hi" C.int;
        bias_noise = C.field f "bias_noise" C.bool;
        kind =
          (match C.field f "kind" C.string with
          | "relative" -> Fannet.Noise.Relative
          | "absolute" -> Fannet.Noise.Absolute
          | s -> fail c "unknown noise kind %S" s);
      })
    c

let vector_json (v : Fannet.Noise.vector) =
  J.Obj
    [
      ("bias", J.Int v.Fannet.Noise.bias);
      ("inputs", int_array_json v.Fannet.Noise.inputs);
    ]

let read_vector c : Fannet.Noise.vector =
  C.obj
    (fun f ->
      let bias = C.field f "bias" C.int in
      { Fannet.Noise.bias; inputs = C.field f "inputs" int_array })
    c

let reason_json r = J.String (Resil.Budget.reason_to_string r)

let read_reason c : Resil.Budget.reason =
  match C.string c with
  | "deadline" -> Resil.Budget.Deadline
  | "conflicts" -> Resil.Budget.Conflicts
  | "memory" -> Resil.Budget.Memory
  | "cancelled" -> Resil.Budget.Cancelled
  | "incomplete" -> Resil.Budget.Incomplete
  | s -> fail c "unknown budget reason %S" s

let verdict_json (v : Fannet.Backend.verdict) =
  match v with
  | Fannet.Backend.Robust -> J.Obj [ ("r", J.String "robust") ]
  | Fannet.Backend.Flip vec ->
      J.Obj [ ("r", J.String "flip"); ("vector", vector_json vec) ]
  | Fannet.Backend.Unknown reason ->
      J.Obj [ ("r", J.String "unknown"); ("reason", reason_json reason) ]

let read_verdict c : Fannet.Backend.verdict =
  C.obj
    (fun f ->
      match C.field f "r" C.string with
      | "robust" -> Fannet.Backend.Robust
      | "flip" -> Fannet.Backend.Flip (C.field f "vector" read_vector)
      | "unknown" -> Fannet.Backend.Unknown (C.field f "reason" read_reason)
      | s -> fail c "unknown verdict %S" s)
    c

(* ------------------------------------------------------------------ *)
(* Query codec                                                         *)
(* ------------------------------------------------------------------ *)

let query_json = function
  | Exists_flip { backend; spec; input; label } ->
      J.Obj
        [
          ("kind", J.String "exists-flip");
          ("backend", backend_json backend);
          ("spec", spec_json spec);
          ("input", int_array_json input);
          ("label", J.Int label);
        ]
  | Tolerance { backend; bias_noise; max_delta; input; label } ->
      J.Obj
        [
          ("kind", J.String "tolerance");
          ("backend", backend_json backend);
          ("bias_noise", J.Bool bias_noise);
          ("max_delta", J.Int max_delta);
          ("input", int_array_json input);
          ("label", J.Int label);
        ]
  | Sensitivity { spec; input; label } ->
      J.Obj
        [
          ("kind", J.String "sensitivity");
          ("spec", spec_json spec);
          ("input", int_array_json input);
          ("label", J.Int label);
        ]
  | Certify { spec; input; label } ->
      J.Obj
        [
          ("kind", J.String "certify");
          ("spec", spec_json spec);
          ("input", int_array_json input);
          ("label", J.Int label);
        ]
  | Count { spec; input; label; certify } ->
      J.Obj
        [
          ("kind", J.String "count");
          ("spec", spec_json spec);
          ("input", int_array_json input);
          ("label", J.Int label);
          ( "mode",
            J.Obj [ ("m", J.String "exact"); ("certify", J.Bool certify) ] );
        ]

(* A count's mode object; "exact" is the one mode. *)
let read_certify c =
  C.obj
    (fun f ->
      match C.field f "m" C.string with
      | "exact" -> C.field f "certify" C.bool
      | s -> fail c "unknown count mode %S" s)
    c

let read_query c =
  C.obj
    (fun f ->
      let spec () = C.field f "spec" read_spec in
      let input () = C.field f "input" int_array in
      let label () = C.field f "label" C.int in
      match C.field f "kind" C.string with
      | "exists-flip" ->
          let backend = C.field f "backend" read_backend in
          let spec = spec () in
          let input = input () in
          Exists_flip { backend; spec; input; label = label () }
      | "tolerance" ->
          let backend = C.field f "backend" read_backend in
          let bias_noise = C.field f "bias_noise" C.bool in
          let max_delta = C.field f "max_delta" C.int in
          let input = input () in
          Tolerance { backend; bias_noise; max_delta; input; label = label () }
      | "sensitivity" ->
          let spec = spec () in
          let input = input () in
          Sensitivity { spec; input; label = label () }
      | "certify" ->
          let spec = spec () in
          let input = input () in
          Certify { spec; input; label = label () }
      | "count" ->
          let spec = spec () in
          let input = input () in
          let label = label () in
          Count { spec; input; label; certify = C.field f "mode" read_certify }
      | s -> fail c "unknown query kind %S" s)
    c

let network_digest canonical = Digest.to_hex (Digest.string canonical)

let query_key ~digest q = digest ^ "\n" ^ J.to_string (query_json q)

(* ------------------------------------------------------------------ *)
(* Request codec                                                       *)
(* ------------------------------------------------------------------ *)

let request_json = function
  | Load { network } ->
      J.Obj [ ("op", J.String "load"); ("network", J.String network) ]
  | Query { digest; query; budget } ->
      let base =
        [
          ("op", J.String "query");
          ("digest", J.String digest);
          ("query", query_json query);
        ]
      in
      let base =
        match budget.timeout_s with
        | None -> base
        | Some t -> base @ [ ("timeout_s", J.Float t) ]
      in
      let base =
        match budget.conflicts with
        | None -> base
        | Some c -> base @ [ ("conflicts", J.Int c) ]
      in
      J.Obj base
  | Metrics -> J.Obj [ ("op", J.String "metrics") ]
  | Ping -> J.Obj [ ("op", J.String "ping") ]
  | Shutdown -> J.Obj [ ("op", J.String "shutdown") ]
  | Set_faults { spec } ->
      J.Obj [ ("op", J.String "set-faults"); ("spec", J.String spec) ]

let read_request c =
  C.obj
    (fun f ->
      match C.field f "op" C.string with
      | "load" -> Load { network = C.field f "network" C.string }
      | "query" ->
          let digest = C.field f "digest" C.string in
          let query = C.field f "query" read_query in
          let timeout_s = C.field_opt f "timeout_s" C.number in
          Query
            {
              digest;
              query;
              budget = { timeout_s; conflicts = C.field_opt f "conflicts" C.int };
            }
      | "metrics" -> Metrics
      | "ping" -> Ping
      | "shutdown" -> Shutdown
      | "set-faults" -> Set_faults { spec = C.field f "spec" C.string }
      | s -> fail c "unknown request op %S" s)
    c

let envelope_json ~tag ~rid body =
  J.Obj [ ("v", J.String version); ("id", J.Int rid); (tag, body) ]

let read_envelope ~tag read c =
  C.obj
    (fun f ->
      (match C.field f "v" C.string with
      | v when v = version -> ()
      | v -> fail c "protocol version %S (want %S)" v version);
      let rid = C.field f "id" C.int in
      (rid, C.field f tag read))
    c

let encode_request { rid; request } =
  J.to_string (envelope_json ~tag:"req" ~rid (request_json request))

let total name read s =
  match C.parse read s with
  | Ok v -> Ok v
  | Error e -> Error (name ^ ": " ^ e)

let decode_request s =
  total "request"
    (fun c ->
      let rid, request = read_envelope ~tag:"req" read_request c in
      { rid; request })
    s

(* ------------------------------------------------------------------ *)
(* Reply codec                                                         *)
(* ------------------------------------------------------------------ *)

let answer_json = function
  | Verdict v -> J.Obj [ ("a", J.String "verdict"); ("verdict", verdict_json v) ]
  | Min_flip (Ok m) ->
      J.Obj
        [
          ("a", J.String "min-flip");
          ("ok", match m with None -> J.Null | Some d -> J.Int d);
        ]
  | Min_flip (Error r) ->
      J.Obj [ ("a", J.String "min-flip"); ("error", reason_json r) ]
  | Sidedness (Ok sides) ->
      let side_json (s : Fannet.Sensitivity.formal_side) =
        J.Obj
          [
            ("node", J.Int s.Fannet.Sensitivity.fs_node);
            ("pos", J.Bool s.Fannet.Sensitivity.positive_flip);
            ("neg", J.Bool s.Fannet.Sensitivity.negative_flip);
          ]
      in
      J.Obj
        [
          ("a", J.String "sidedness");
          ("ok", J.List (Array.to_list (Array.map side_json sides)));
        ]
  | Sidedness (Error r) ->
      J.Obj [ ("a", J.String "sidedness"); ("error", reason_json r) ]
  | Certified { verdict; cert } ->
      J.Obj
        [
          ("a", J.String "certified");
          ("verdict", verdict_json verdict);
          ( "cert",
            match cert with
            | None -> J.Null
            | Some c -> Count.Certificate.verdict_json c );
        ]
  | Counted (Ok { flips; total; count_cert }) ->
      J.Obj
        [
          ("a", J.String "count");
          ("flips", Util.Bigcount.to_json flips);
          ("total", Util.Bigcount.to_json total);
          ( "cert",
            match count_cert with
            | None -> J.Null
            | Some c -> Count.Certificate.to_json c );
        ]
  | Counted (Error r) ->
      J.Obj [ ("a", J.String "count"); ("error", reason_json r) ]

let read_side c : Fannet.Sensitivity.formal_side =
  C.obj
    (fun f ->
      {
        Fannet.Sensitivity.fs_node = C.field f "node" C.int;
        positive_flip = C.field f "pos" C.bool;
        negative_flip = C.field f "neg" C.bool;
      })
    c

let nullable read c = if C.null c then None else Some (read c)

(* Fields are asked for in [answer_json]'s order, so a certificate is
   read in one pass (see [Util.Json.Cursor]); any other order reads the
   same answer. *)
let read_answer c =
  C.obj
    (fun f ->
      let error () = C.field_opt f "error" read_reason in
      match C.field f "a" C.string with
      | "verdict" -> Verdict (C.field f "verdict" read_verdict)
      | "min-flip" -> (
          match error () with
          | Some r -> Min_flip (Error r)
          | None -> Min_flip (Ok (C.field f "ok" (nullable C.int))))
      | "sidedness" -> (
          match error () with
          | Some r -> Sidedness (Error r)
          | None ->
              Sidedness (Ok (Array.of_list (C.field f "ok" (C.list read_side)))))
      | "certified" ->
          let verdict = C.field f "verdict" read_verdict in
          let cert = C.field f "cert" (nullable Count.Certificate.read_verdict) in
          Certified { verdict; cert }
      | "count" -> (
          (* "error" is looked for after the certificate, so a certified
             count is read in one pass; an "error" field still wins. *)
          match C.field_opt f "flips" Util.Bigcount.read with
          | None -> Counted (Error (C.field f "error" read_reason))
          | Some flips -> (
              let total = C.field f "total" Util.Bigcount.read in
              let count_cert = C.field f "cert" (nullable Count.Certificate.read) in
              match error () with
              | Some r -> Counted (Error r)
              | None -> Counted (Ok { flips; total; count_cert })))
      | s -> fail c "unknown answer form %S" s)
    c

let stats_json (s : server_stats) =
  J.Obj
    [
      ("submitted", J.Int s.submitted);
      ("served", J.Int s.served);
      ("rejected", J.Int s.rejected);
      ("failed", J.Int s.failed);
      ("cache_hits", J.Int s.cache_hits);
      ("cache_misses", J.Int s.cache_misses);
      ("cache_len", J.Int s.cache_len);
      ("in_flight", J.Int s.in_flight);
      ("networks", J.Int s.networks);
    ]

let read_stats c =
  C.obj
    (fun f ->
      {
        submitted = C.field f "submitted" C.int;
        served = C.field f "served" C.int;
        rejected = C.field f "rejected" C.int;
        failed = C.field f "failed" C.int;
        cache_hits = C.field f "cache_hits" C.int;
        cache_misses = C.field f "cache_misses" C.int;
        cache_len = C.field f "cache_len" C.int;
        in_flight = C.field f "in_flight" C.int;
        networks = C.field f "networks" C.int;
      })
    c

let reply_json = function
  | Loaded { digest } ->
      J.Obj [ ("op", J.String "loaded"); ("digest", J.String digest) ]
  | Answer { cached; answer } ->
      J.Obj
        [
          ("op", J.String "answer");
          ("cached", J.Bool cached);
          ("answer", answer_json answer);
        ]
  | Overloaded { in_flight; cap } ->
      J.Obj
        [
          ("op", J.String "overloaded");
          ("in_flight", J.Int in_flight);
          ("cap", J.Int cap);
        ]
  | Metrics_reply { stats; obs } ->
      J.Obj [ ("op", J.String "metrics"); ("stats", stats_json stats); ("obs", obs) ]
  | Pong -> J.Obj [ ("op", J.String "pong") ]
  | Bye -> J.Obj [ ("op", J.String "bye") ]
  | Protocol_error e ->
      J.Obj [ ("op", J.String "protocol-error"); ("error", J.String e) ]
  | Server_error e ->
      J.Obj [ ("op", J.String "server-error"); ("error", J.String e) ]

let read_reply c =
  C.obj
    (fun f ->
      match C.field f "op" C.string with
      | "loaded" -> Loaded { digest = C.field f "digest" C.string }
      | "answer" ->
          let cached = C.field f "cached" C.bool in
          Answer { cached; answer = C.field f "answer" read_answer }
      | "overloaded" ->
          let in_flight = C.field f "in_flight" C.int in
          Overloaded { in_flight; cap = C.field f "cap" C.int }
      | "metrics" ->
          let stats = C.field f "stats" read_stats in
          Metrics_reply { stats; obs = C.field f "obs" C.value }
      | "pong" -> Pong
      | "bye" -> Bye
      | "protocol-error" -> Protocol_error (C.field f "error" C.string)
      | "server-error" -> Server_error (C.field f "error" C.string)
      | s -> fail c "unknown reply op %S" s)
    c

let encode_reply { rid; reply } =
  J.to_string (envelope_json ~tag:"rep" ~rid (reply_json reply))

let encode_answer answer = J.to_string (answer_json answer)

(* The bytes [encode_reply] produces for an [Answer], around an answer
   sub-document that is already encoded: the envelope's fields are
   fixed, so only [rid], [cached] and the answer bytes vary. *)
let answer_reply_head = "{\"v\":" ^ J.to_string (J.String version) ^ ",\"id\":"

let encode_answer_reply ~rid ~cached answer =
  String.concat ""
    [
      answer_reply_head;
      string_of_int rid;
      ",\"rep\":{\"op\":\"answer\",\"cached\":";
      string_of_bool cached;
      ",\"answer\":";
      answer;
      "}}";
    ]

let decode_reply s =
  total "reply"
    (fun c ->
      let rid, reply = read_envelope ~tag:"rep" read_reply c in
      { rid; reply })
    s

(* ------------------------------------------------------------------ *)
(* Cacheability and equality                                           *)
(* ------------------------------------------------------------------ *)

let answer_decided = function
  | Verdict (Fannet.Backend.Robust | Fannet.Backend.Flip _) -> true
  | Verdict (Fannet.Backend.Unknown _) -> false
  | Min_flip (Ok _) | Sidedness (Ok _) -> true
  | Min_flip (Error _) | Sidedness (Error _) -> false
  | Counted (Ok _) -> true
  | Counted (Error _) -> false
  | Certified { verdict = Fannet.Backend.Robust | Fannet.Backend.Flip _; cert = Some _ }
    ->
      true
  | Certified _ -> false

(* Structural equality via the deterministic encoding: two messages are
   equal iff their canonical JSON is — exactly the notion the cache and
   the bit-identity bench use, and free of polymorphic-compare traps on
   functional or abstract payloads (there are none here, but the
   encoding is already the canonical form). *)
let query_equal a b = J.to_string (query_json a) = J.to_string (query_json b)

let request_equal a b = encode_request a = encode_request b

let answer_equal a b = encode_answer a = encode_answer b

let reply_equal a b = encode_reply a = encode_reply b
