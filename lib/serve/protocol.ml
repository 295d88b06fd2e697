(* fannet-wire/1 messages and their JSON codec. Encoding is
   deterministic (fixed field order); decoding is total — internal
   [Bad]-exception plumbing is caught at the two public entry points and
   surfaced as [Error]. *)

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
      mode : count_mode;
    }

and count_mode =
  | Count_exact of { certify : bool }
  | Count_approx of { epsilon : float; delta : float; seed : int }

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

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field name = function
  | J.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> bad "missing field %S" name)
  | _ -> bad "expected an object with field %S" name

let opt_field name = function
  | J.Obj kvs -> List.assoc_opt name kvs
  | _ -> bad "expected an object with field %S" name

let as_int = function
  | J.Int n -> n
  | _ -> bad "expected an integer"

let as_bool = function
  | J.Bool b -> b
  | _ -> bad "expected a boolean"

let as_string = function
  | J.String s -> s
  | _ -> bad "expected a string"

let as_float = function
  | J.Float f -> f
  | J.Int n -> float_of_int n
  | _ -> bad "expected a number"

let as_list = function
  | J.List l -> l
  | _ -> bad "expected an array"

let int_array j = Array.of_list (List.map as_int (as_list j))

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

let rec backend_of_json j : Fannet.Backend.t =
  match as_string (field "b" j) with
  | "bnb" -> Fannet.Backend.Bnb
  | "smt" -> Fannet.Backend.Smt
  | "explicit" ->
      Fannet.Backend.Explicit { limit = as_int (field "limit" j) }
  | "interval" -> Fannet.Backend.Interval
  | "cascade" -> Fannet.Backend.Cascade (backend_of_json (field "inner" j))
  | s -> bad "unknown backend %S" s

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

let spec_of_json j : Fannet.Noise.spec =
  {
    Fannet.Noise.delta_lo = as_int (field "delta_lo" j);
    delta_hi = as_int (field "delta_hi" j);
    bias_noise = as_bool (field "bias_noise" j);
    kind =
      (match as_string (field "kind" j) with
      | "relative" -> Fannet.Noise.Relative
      | "absolute" -> Fannet.Noise.Absolute
      | s -> bad "unknown noise kind %S" s);
  }

let vector_json (v : Fannet.Noise.vector) =
  J.Obj
    [
      ("bias", J.Int v.Fannet.Noise.bias);
      ("inputs", int_array_json v.Fannet.Noise.inputs);
    ]

let vector_of_json j : Fannet.Noise.vector =
  {
    Fannet.Noise.bias = as_int (field "bias" j);
    inputs = int_array (field "inputs" j);
  }

let reason_json r = J.String (Resil.Budget.reason_to_string r)

let reason_of_json j : Resil.Budget.reason =
  match as_string j with
  | "deadline" -> Resil.Budget.Deadline
  | "conflicts" -> Resil.Budget.Conflicts
  | "memory" -> Resil.Budget.Memory
  | "cancelled" -> Resil.Budget.Cancelled
  | "incomplete" -> Resil.Budget.Incomplete
  | s -> bad "unknown budget reason %S" s

let verdict_json (v : Fannet.Backend.verdict) =
  match v with
  | Fannet.Backend.Robust -> J.Obj [ ("r", J.String "robust") ]
  | Fannet.Backend.Flip vec ->
      J.Obj [ ("r", J.String "flip"); ("vector", vector_json vec) ]
  | Fannet.Backend.Unknown reason ->
      J.Obj [ ("r", J.String "unknown"); ("reason", reason_json reason) ]

let verdict_of_json j : Fannet.Backend.verdict =
  match as_string (field "r" j) with
  | "robust" -> Fannet.Backend.Robust
  | "flip" -> Fannet.Backend.Flip (vector_of_json (field "vector" j))
  | "unknown" -> Fannet.Backend.Unknown (reason_of_json (field "reason" j))
  | s -> bad "unknown verdict %S" s

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
  | Count { spec; input; label; mode } ->
      let mode_json =
        match mode with
        | Count_exact { certify } ->
            J.Obj [ ("m", J.String "exact"); ("certify", J.Bool certify) ]
        | Count_approx { epsilon; delta; seed } ->
            J.Obj
              [
                ("m", J.String "approx");
                ("epsilon", J.Float epsilon);
                ("delta", J.Float delta);
                ("seed", J.Int seed);
              ]
      in
      J.Obj
        [
          ("kind", J.String "count");
          ("spec", spec_json spec);
          ("input", int_array_json input);
          ("label", J.Int label);
          ("mode", mode_json);
        ]

let count_mode_of_json j =
  match as_string (field "m" j) with
  | "exact" -> Count_exact { certify = as_bool (field "certify" j) }
  | "approx" ->
      Count_approx
        {
          epsilon = as_float (field "epsilon" j);
          delta = as_float (field "delta" j);
          seed = as_int (field "seed" j);
        }
  | s -> bad "unknown count mode %S" s

let query_of_json j =
  let input () = int_array (field "input" j) in
  let label () = as_int (field "label" j) in
  match as_string (field "kind" j) with
  | "exists-flip" ->
      Exists_flip
        {
          backend = backend_of_json (field "backend" j);
          spec = spec_of_json (field "spec" j);
          input = input ();
          label = label ();
        }
  | "tolerance" ->
      Tolerance
        {
          backend = backend_of_json (field "backend" j);
          bias_noise = as_bool (field "bias_noise" j);
          max_delta = as_int (field "max_delta" j);
          input = input ();
          label = label ();
        }
  | "sensitivity" ->
      Sensitivity
        {
          spec = spec_of_json (field "spec" j);
          input = input ();
          label = label ();
        }
  | "certify" ->
      Certify
        {
          spec = spec_of_json (field "spec" j);
          input = input ();
          label = label ();
        }
  | "count" ->
      Count
        {
          spec = spec_of_json (field "spec" j);
          input = input ();
          label = label ();
          mode = count_mode_of_json (field "mode" j);
        }
  | s -> bad "unknown query kind %S" s

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

let request_of_json j =
  match as_string (field "op" j) with
  | "load" -> Load { network = as_string (field "network" j) }
  | "query" ->
      Query
        {
          digest = as_string (field "digest" j);
          query = query_of_json (field "query" j);
          budget =
            {
              timeout_s = Option.map as_float (opt_field "timeout_s" j);
              conflicts = Option.map as_int (opt_field "conflicts" j);
            };
        }
  | "metrics" -> Metrics
  | "ping" -> Ping
  | "shutdown" -> Shutdown
  | "set-faults" -> Set_faults { spec = as_string (field "spec" j) }
  | s -> bad "unknown request op %S" s

let envelope_json ~tag ~rid body =
  J.Obj [ ("v", J.String version); ("id", J.Int rid); (tag, body) ]

let check_envelope ~tag j =
  (match as_string (field "v" j) with
  | v when v = version -> ()
  | v -> bad "protocol version %S (want %S)" v version);
  (as_int (field "id" j), field tag j)

let encode_request { rid; request } =
  J.to_string (envelope_json ~tag:"req" ~rid (request_json request))

let total name f s =
  match J.of_string s with
  | Error e -> Error (name ^ ": " ^ e)
  | Ok j -> ( try Ok (f j) with Bad msg -> Error (name ^ ": " ^ msg))

let decode_request s =
  total "request" (fun j ->
      let rid, body = check_envelope ~tag:"req" j in
      { rid; request = request_of_json body })
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

let answer_of_json j =
  match as_string (field "a" j) with
  | "verdict" -> Verdict (verdict_of_json (field "verdict" j))
  | "min-flip" -> (
      match opt_field "error" j with
      | Some r -> Min_flip (Error (reason_of_json r))
      | None ->
          Min_flip
            (Ok
               (match field "ok" j with
               | J.Null -> None
               | v -> Some (as_int v))))
  | "sidedness" -> (
      match opt_field "error" j with
      | Some r -> Sidedness (Error (reason_of_json r))
      | None ->
          let side_of_json s : Fannet.Sensitivity.formal_side =
            {
              Fannet.Sensitivity.fs_node = as_int (field "node" s);
              positive_flip = as_bool (field "pos" s);
              negative_flip = as_bool (field "neg" s);
            }
          in
          Sidedness
            (Ok (Array.of_list (List.map side_of_json (as_list (field "ok" j))))))
  | "certified" ->
      Certified
        {
          verdict = verdict_of_json (field "verdict" j);
          cert =
            (match field "cert" j with
            | J.Null -> None
            | c -> (
                match Count.Certificate.verdict_of_json c with
                | Ok cert -> Some cert
                | Error e -> bad "certificate: %s" e));
        }
  | "count" -> (
      match opt_field "error" j with
      | Some r -> Counted (Error (reason_of_json r))
      | None ->
          let bigcount name =
            match Util.Bigcount.of_json (field name j) with
            | Ok b -> b
            | Error e -> bad "%s: %s" name e
          in
          Counted
            (Ok
               {
                 flips = bigcount "flips";
                 total = bigcount "total";
                 count_cert =
                   (match field "cert" j with
                   | J.Null -> None
                   | c -> (
                       match Count.Certificate.of_json c with
                       | Ok cert -> Some cert
                       | Error e -> bad "count certificate: %s" e));
               }))
  | s -> bad "unknown answer form %S" s

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

let stats_of_json j =
  {
    submitted = as_int (field "submitted" j);
    served = as_int (field "served" j);
    rejected = as_int (field "rejected" j);
    failed = as_int (field "failed" j);
    cache_hits = as_int (field "cache_hits" j);
    cache_misses = as_int (field "cache_misses" j);
    cache_len = as_int (field "cache_len" j);
    in_flight = as_int (field "in_flight" j);
    networks = as_int (field "networks" j);
  }

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

let reply_of_json j =
  match as_string (field "op" j) with
  | "loaded" -> Loaded { digest = as_string (field "digest" j) }
  | "answer" ->
      Answer
        {
          cached = as_bool (field "cached" j);
          answer = answer_of_json (field "answer" j);
        }
  | "overloaded" ->
      Overloaded
        {
          in_flight = as_int (field "in_flight" j);
          cap = as_int (field "cap" j);
        }
  | "metrics" ->
      Metrics_reply
        { stats = stats_of_json (field "stats" j); obs = field "obs" j }
  | "pong" -> Pong
  | "bye" -> Bye
  | "protocol-error" -> Protocol_error (as_string (field "error" j))
  | "server-error" -> Server_error (as_string (field "error" j))
  | s -> bad "unknown reply op %S" s

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
  total "reply" (fun j ->
      let rid, body = check_envelope ~tag:"rep" j in
      { rid; reply = reply_of_json body })
    s

(* Total variant of the raising decoder above, exported for the verdict
   store which must treat journal payloads as untrusted bytes. Shadows
   the internal one after its last internal use. *)
let answer_of_json j =
  try Ok (answer_of_json j) with Bad msg -> Error msg

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
