(* fannet-wire/1 framing. See wire.mli for the format. *)

let magic = "FNW1"

let max_payload = 16 * 1024 * 1024

type error =
  | Bad_magic of string
  | Oversized of int
  | Truncated
  | Closed

let error_to_string = function
  | Bad_magic got -> Printf.sprintf "bad magic %S (want %S)" got magic
  | Oversized n ->
      Printf.sprintf "payload length %d exceeds the %d-byte cap" n max_payload
  | Truncated -> "stream truncated inside a frame"
  | Closed -> "stream closed"

let be32_put b off n =
  Bytes.set b off (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (n land 0xff))

let be32_get s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let header_len = 8 (* magic + length *)

let encode payload =
  let n = String.length payload in
  if n > max_payload then
    invalid_arg
      (Printf.sprintf "Wire.encode: payload %d exceeds max_payload %d" n
         max_payload);
  let b = Bytes.create (header_len + n) in
  Bytes.blit_string magic 0 b 0 4;
  be32_put b 4 n;
  Bytes.blit_string payload 0 b header_len n;
  (* [b] never escapes or changes again: hand it out without a copy. *)
  Bytes.unsafe_to_string b

let decode buf =
  let len = String.length buf in
  if len = 0 then Error Closed
  else if len < 4 then
    if String.sub buf 0 len = String.sub magic 0 len then Error Truncated
    else Error (Bad_magic (String.sub buf 0 len))
  else if String.sub buf 0 4 <> magic then Error (Bad_magic (String.sub buf 0 4))
  else if len < header_len then Error Truncated
  else
    let n = be32_get buf 4 in
    if n < 0 || n > max_payload then Error (Oversized n)
    else if len < header_len + n then Error Truncated
    else Ok (String.sub buf header_len n, header_len + n)

(* ------------------------------------------------------------------ *)
(* Blocking fd codec                                                   *)
(* ------------------------------------------------------------------ *)

(* Read exactly [n] bytes; [`Eof k] reports how many arrived before the
   peer closed. *)
let really_read fd n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.unsafe_to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 -> `Eof off
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      (* A peer that aborted (RST) reads as an early end of stream — the
         typed [Truncated]/[Closed] outcomes, not an exception. *)
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          `Eof off
  in
  go 0

let read_rest fd claimed_magic =
  if claimed_magic <> magic then Error (Bad_magic claimed_magic)
  else
    match really_read fd 4 with
    | `Eof _ -> Error Truncated
    | `Ok lenbytes -> (
        let n = be32_get lenbytes 0 in
        if n < 0 || n > max_payload then Error (Oversized n)
        else
          match really_read fd n with
          | `Eof _ -> Error Truncated
          | `Ok payload -> Ok payload)

let read_frame fd =
  match really_read fd 4 with
  | `Eof 0 -> Error Closed
  | `Eof _ -> Error Truncated
  | `Ok m -> read_rest fd m

let read_frame_after ~first fd =
  let need = 4 - String.length first in
  if need < 0 then invalid_arg "Wire.read_frame_after: first longer than magic";
  if need = 0 then read_rest fd first
  else
    match really_read fd need with
    | `Eof 0 when first = "" -> Error Closed
    | `Eof _ -> Error Truncated
    | `Ok rest -> read_rest fd (first ^ rest)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Header and payload leave in one buffer, through one write loop: a
   separate header write would invite Nagle/delayed-ACK stalls. *)
let write_frame fd payload = write_all fd (encode payload)
