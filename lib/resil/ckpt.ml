let magic = "fannet-ckpt/1"

(* A loop, not [String.iter]: a closure would box [h] on every byte. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let write_raw path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let save_string ~kind ~path data =
  let payload =
    Printf.sprintf {|{"format":"fannet-ckpt","version":1,"kind":%s,"data":%s}|}
      (Util.Json.to_string (Util.Json.String kind))
      data
  in
  let contents =
    Printf.sprintf "%s\n%s %d %Lx\n" payload magic (String.length payload)
      (fnv1a64 payload)
  in
  if Faultpoint.hit "ckpt.torn" then
    (* Injected torn write: half the bytes straight to the final path,
       bypassing the tmp+rename protocol. [load] must reject this. *)
    write_raw path (String.sub contents 0 (String.length contents / 2))
  else begin
    let tmp = path ^ ".tmp" in
    write_raw tmp contents;
    Sys.rename tmp path
  end

let save ~kind ~path data = save_string ~kind ~path (Util.Json.to_string data)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Why a checkpoint is refused. *)
exception Refused of string

let refuse fmt = Printf.ksprintf (fun m -> raise (Refused m)) fmt

(* The payload before the footer, whose length and checksum it must
   match. *)
let payload_of contents =
  (* Strip the final newline, then split payload from the footer line
     at the last remaining newline. *)
  let n = String.length contents in
  let body =
    if n > 0 && contents.[n - 1] = '\n' then String.sub contents 0 (n - 1)
    else contents
  in
  let i =
    match String.rindex_opt body '\n' with
    | Some i -> i
    | None -> refuse "torn or truncated checkpoint (no footer line)"
  in
  let payload = String.sub body 0 i in
  let footer = String.sub body (i + 1) (String.length body - i - 1) in
  match String.split_on_char ' ' footer with
  | [ m; len; sum ] when m = magic ->
      if
        int_of_string_opt len = Some (String.length payload)
        && Int64.of_string_opt ("0x" ^ sum) = Some (fnv1a64 payload)
      then payload
      else refuse "torn or truncated checkpoint (checksum mismatch)"
  | _ -> refuse "torn or truncated checkpoint (bad footer %S)" footer

let load_with ~kind ~path read =
  let module C = Util.Json.Cursor in
  let open Util.Json in
  (* The envelope's fields are checked before [read] sees the data,
     which is parsed once, in place. *)
  let envelope f =
    let format = C.field_opt f "format" C.value in
    let version = C.field_opt f "version" C.value in
    match (format, version, C.field_opt f "kind" C.value) with
    | Some (String "fannet-ckpt"), Some (Int 1), Some (String k) when k <> kind
      ->
        refuse "checkpoint kind mismatch (got %S, want %S)" k kind
    | Some (String "fannet-ckpt"), Some (Int 1), Some (String _) -> (
        match C.field_opt f "data" read with
        | Some data -> data
        | None -> refuse "malformed checkpoint envelope")
    | _ -> refuse "malformed checkpoint envelope"
  in
  match
    if not (Sys.file_exists path) then refuse "no such checkpoint";
    let contents =
      try read_all path
      with Sys_error m -> refuse "unreadable checkpoint: %s" m
    in
    C.parse (C.obj envelope) (payload_of contents)
  with
  | Ok data -> Ok data
  | Error m -> Error (Printf.sprintf "%s: corrupt checkpoint payload: %s" path m)
  | exception Refused m -> Error (path ^ ": " ^ m)

let load ~kind ~path = load_with ~kind ~path Util.Json.Cursor.value
