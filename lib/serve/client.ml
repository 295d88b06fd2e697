type conn = {
  fd : Unix.file_descr;
  mutable next_rid : int;
  mutable closed : bool;
}

let connect (addr : Daemon.addr) =
  let fd =
    match addr with
    | Daemon.Unix_path p ->
        let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
        (try Unix.connect fd (ADDR_UNIX p)
         with e ->
           (try Unix.close fd with _ -> ());
           raise e);
        fd
    | Daemon.Tcp (host, port) ->
        let inet =
          try Unix.inet_addr_of_string host
          with _ -> (
            try (Unix.gethostbyname host).h_addr_list.(0)
            with _ -> Unix.inet_addr_loopback)
        in
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        (try Unix.connect fd (ADDR_INET (inet, port))
         with e ->
           (try Unix.close fd with _ -> ());
           raise e);
        fd
  in
  { fd; next_rid = 1; closed = false }

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with _ -> ()
  end

let send_raw c s = Wire.write_all c.fd s

let read_reply c =
  match Wire.read_frame c.fd with
  | Error e -> Error (Wire.error_to_string e)
  | Ok payload -> Protocol.decode_reply payload

let rpc c request =
  let rid = c.next_rid in
  c.next_rid <- rid + 1;
  match Wire.write_frame c.fd (Protocol.encode_request { rid; request }) with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("write: " ^ Unix.error_message e)
  | () -> (
      match read_reply c with
      | Error _ as e -> e
      | Ok { Protocol.rid = r; reply } ->
          (* rid 0 is the server's "could not even parse your id". *)
          if r = rid || r = 0 then Ok reply
          else Error (Printf.sprintf "reply id %d for request %d" r rid))

let load c net =
  match rpc c (Protocol.Load { network = Nn.Qnet.to_string net }) with
  | Error _ as e -> e
  | Ok (Protocol.Loaded { digest }) -> Ok digest
  | Ok (Protocol.Server_error e) -> Error e
  | Ok _ -> Error "unexpected reply to Load"

(* Transient replies worth another attempt: admission-control pushback
   and server errors (the latter covers a supervised worker dying
   mid-query, which a restart fixes). Protocol errors are the client's
   own fault and never retried. *)
let transient = function
  | Protocol.Overloaded _ | Protocol.Server_error _ -> true
  | _ -> false

let query ?(budget = Protocol.no_budget) ?(retries = 0) ?(retry_base_s = 0.05)
    c ~digest q =
  let rng = lazy (Util.Rng.create (Unix.getpid () + (c.next_rid * 7919))) in
  let rec go attempt last =
    if attempt > retries then last
    else begin
      (if attempt > 0 then
         (* full jitter on an exponential ramp: sleep in
            [0.5, 1.5) x base x 2^(attempt-1), so a herd of rejected
            clients does not return in lockstep *)
         let base = retry_base_s *. (2.0 ** float_of_int (attempt - 1)) in
         Thread.delay (base *. (0.5 +. Util.Rng.float (Lazy.force rng))));
      match rpc c (Protocol.Query { digest; query = q; budget }) with
      | Ok reply as r when transient reply -> go (attempt + 1) r
      | r -> r
    end
  in
  go 0 (Error "unreachable: zero attempts")

let ping c =
  match rpc c Protocol.Ping with
  | Error _ as e -> e
  | Ok Protocol.Pong -> Ok ()
  | Ok _ -> Error "unexpected reply to Ping"

let shutdown c =
  match rpc c Protocol.Shutdown with
  | Error _ as e -> e
  | Ok Protocol.Bye -> Ok ()
  | Ok _ -> Error "unexpected reply to Shutdown"
