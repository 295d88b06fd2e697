(* Append-only verdict journal, format fannet-store/1. See store.mli
   for the format and recovery contract. *)

module J = Util.Json
module F = Resil.Faultpoint

let header = "fannet-store/1\n"

type stats = {
  appends : int;
  compactions : int;
  recovered : int;
  dropped : int;
  truncated_bytes : int;
  live_bytes : int;
  file_bytes : int;
}

type t = {
  path : string;
  lock : Mutex.t;
  mutable oc : out_channel option;  (* None once closed or disabled *)
  live : (string, int) Hashtbl.t;   (* key -> live payload bytes *)
  mutable live_bytes : int;
  mutable file_bytes : int;
  mutable appends : int;
  mutable compactions : int;
  recovered : int;
  dropped : int;
  truncated_bytes : int;
}

let path t = t.path

let frame payload =
  Printf.sprintf "%d %016Lx\n%s\n" (String.length payload)
    (Resil.Ckpt.fnv1a64 payload) payload

(* [J.to_string (Obj [("key", String key); ("answer", answer_json a)])],
   around answer bytes that are already encoded. *)
let payload_of ~key answer =
  String.concat "" [ "{\"key\":"; J.to_string (J.String key); ",\"answer\":"; answer; "}" ]

(* One semantic gate for both recovery and compaction: the payload must
   decode, the answer must be cacheable, and a certified answer must
   pass the independent lib/cert checker — persisted bytes are
   untrusted. *)
let decode_payload payload =
  match J.of_string payload with
  | Error _ -> None
  | Ok j -> (
      match j with
      | J.Obj kvs -> (
          match (List.assoc_opt "key" kvs, List.assoc_opt "answer" kvs) with
          | Some (J.String key), Some aj -> (
              match Protocol.answer_of_json aj with
              | Error _ -> None
              | Ok a ->
                  if not (Protocol.answer_decided a) then None
                  else
                    let cert_ok =
                      match a with
                      | Protocol.Certified { cert = Some c; _ } -> (
                          match Cert.Verdict.check c with
                          | Ok () -> true
                          | Error _ -> false)
                      | _ -> true
                    in
                    if cert_ok then Some (key, a) else None)
          | _ -> None)
      | _ -> None)

(* Scan journal [contents]: returns records in append order (including
   duplicates), the byte offset of the end of the last well-framed
   record, and how many well-framed records were semantically dropped.
   Any framing damage — short header line, bad length, checksum
   mismatch, missing trailing newline — is the torn tail: scanning
   stops and the caller truncates back to [good]. *)
let scan contents =
  if String.length contents < String.length header
     || String.sub contents 0 (String.length header) <> header
  then Error "missing or foreign fannet-store/1 header"
  else begin
    let len = String.length contents in
    let records = ref [] and dropped = ref 0 in
    let pos = ref (String.length header) in
    let good = ref !pos in
    let torn = ref false in
    while (not !torn) && !pos < len do
      match String.index_from_opt contents !pos '\n' with
      | None -> torn := true
      | Some nl -> (
          let hdr = String.sub contents !pos (nl - !pos) in
          match String.index_opt hdr ' ' with
          | None -> torn := true
          | Some sp -> (
              let plen = int_of_string_opt (String.sub hdr 0 sp) in
              let sum =
                try
                  Some
                    (Int64.of_string
                       ("0x" ^ String.sub hdr (sp + 1) (String.length hdr - sp - 1)))
                with _ -> None
              in
              match (plen, sum) with
              | Some plen, Some sum when plen >= 0 && nl + 1 + plen + 1 <= len ->
                  let payload = String.sub contents (nl + 1) plen in
                  if contents.[nl + 1 + plen] <> '\n'
                     || Resil.Ckpt.fnv1a64 payload <> sum
                  then torn := true
                  else begin
                    (match decode_payload payload with
                    | Some (key, a) -> records := (key, a, plen) :: !records
                    | None -> incr dropped);
                    pos := nl + 1 + plen + 1;
                    good := !pos
                  end
              | _ -> torn := true))
    done;
    Ok (List.rev !records, !good, !dropped)
  end

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Last-wins per key, preserving first-appearance order. *)
let last_wins records =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (key, a, plen) ->
      if not (Hashtbl.mem tbl key) then order := key :: !order;
      Hashtbl.replace tbl key (a, plen))
    records;
  List.rev_map (fun key -> let a, plen = Hashtbl.find tbl key in (key, a, plen))
    !order
  |> List.rev

let open_ ~path =
  try
    if not (Sys.file_exists path) then begin
      let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 path in
      output_string oc header;
      close_out oc
    end;
    let contents = read_file path in
    let contents =
      (* a zero-byte file (crash between create and header) is fresh *)
      if contents = "" then begin
        let oc = open_out_gen [ Open_wronly; Open_trunc; Open_binary ] 0o644 path in
        output_string oc header;
        close_out oc;
        header
      end
      else contents
    in
    match scan contents with
    | Error e -> Error (Printf.sprintf "store %s: %s" path e)
    | Ok (records, good, dropped) ->
        let truncated = String.length contents - good in
        if truncated > 0 then Unix.truncate path good;
        let live_records = last_wins records in
        let live = Hashtbl.create 64 in
        let live_bytes = ref 0 in
        List.iter
          (fun (key, _, plen) ->
            Hashtbl.replace live key plen;
            live_bytes := !live_bytes + plen)
          live_records;
        let oc =
          open_out_gen [ Open_append; Open_binary ] 0o644 path
        in
        let t =
          {
            path;
            lock = Mutex.create ();
            oc = Some oc;
            live;
            live_bytes = !live_bytes;
            file_bytes = good;
            appends = 0;
            compactions = 0;
            recovered = List.length live_records;
            dropped;
            truncated_bytes = truncated;
          }
        in
        Ok (t, List.map (fun (key, a, _) -> (key, a)) live_records)
  with
  | Sys_error e -> Error (Printf.sprintf "store %s: %s" path e)
  | Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "store %s: %s" path (Unix.error_message e))

(* Caller holds the lock. Rewrites the journal to its live records
   through a temp file + atomic rename (Ckpt discipline): a crash at
   any point leaves either the old journal or the new one, never a
   hybrid. *)
let compact_locked t oc =
  flush oc;
  close_out oc;
  t.oc <- None;
  let contents = read_file t.path in
  let records = match scan contents with Ok (r, _, _) -> r | Error _ -> [] in
  let live_records = last_wins records in
  let tmp = t.path ^ ".tmp" in
  let tc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  output_string tc header;
  List.iter
    (fun (key, a, _) ->
      output_string tc (frame (payload_of ~key (Protocol.encode_answer a))))
    live_records;
  close_out tc;
  Unix.rename tmp t.path;
  t.file_bytes <- (Unix.stat t.path).Unix.st_size;
  t.compactions <- t.compactions + 1;
  t.oc <- Some (open_out_gen [ Open_append; Open_binary ] 0o644 t.path)

let compaction_due t =
  t.file_bytes > max 65536 (2 * t.live_bytes)

let append_encoded t ~key answer =
  Mutex.lock t.lock;
  (match t.oc with
  | None -> ()  (* closed or disabled: daemon keeps serving from memory *)
  | Some oc -> (
      try
        let payload = payload_of ~key answer in
        let record = frame payload in
        if F.hit "serve.store.torn" then begin
          (* simulate a crash mid-write: half the record reaches disk,
             then the store goes dark *)
          let half = String.length record / 2 in
          output_string oc (String.sub record 0 half);
          flush oc;
          close_out oc;
          t.oc <- None
        end
        else begin
          output_string oc record;
          flush oc;
          t.appends <- t.appends + 1;
          t.file_bytes <- t.file_bytes + String.length record;
          (match Hashtbl.find_opt t.live key with
          | Some old -> t.live_bytes <- t.live_bytes - old
          | None -> ());
          Hashtbl.replace t.live key (String.length payload);
          t.live_bytes <- t.live_bytes + String.length payload;
          if compaction_due t then compact_locked t oc
        end
      with Sys_error _ | Unix.Unix_error _ ->
        (* disk trouble: disable, never take the daemon down *)
        (match t.oc with
        | Some oc -> (try close_out_noerr oc with _ -> ())
        | None -> ());
        t.oc <- None));
  Mutex.unlock t.lock

let append t ~key answer = append_encoded t ~key (Protocol.encode_answer answer)

let close t =
  Mutex.lock t.lock;
  (match t.oc with
  | None -> ()
  | Some oc ->
      (try
         flush oc;
         close_out oc
       with Sys_error _ -> ());
      t.oc <- None);
  Mutex.unlock t.lock

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      appends = t.appends;
      compactions = t.compactions;
      recovered = t.recovered;
      dropped = t.dropped;
      truncated_bytes = t.truncated_bytes;
      live_bytes = t.live_bytes;
      file_bytes = t.file_bytes;
    }
  in
  Mutex.unlock t.lock;
  s
