(** Crash-safe checkpoint files, format [fannet-ckpt/1].

    A checkpoint is a JSON payload followed by a one-line footer

    {v <payload JSON>\nfannet-ckpt/1 <payload-bytes> <fnv1a64-hex>\n v}

    so a torn or truncated write is always detectable: a partial file
    either lacks a well-formed footer line or fails the length/checksum
    test. Writes go through a temporary file in the same directory and
    an atomic [rename], so a reader never observes a half-written
    checkpoint under POSIX semantics; the footer catches the remaining
    cases (power loss before fsync, copies through non-atomic
    channels — and the injected ["ckpt.torn"] fault).

    The payload is wrapped as
    [{"format":"fannet-ckpt","version":1,"kind":<kind>,"data":<data>}];
    [kind] names the producing analysis (["extract"], ["tolerance"]) and
    a mismatch on load is an error, so an extract checkpoint cannot be
    resumed by the tolerance command. *)

val save : kind:string -> path:string -> Util.Json.t -> unit
(** Atomically write [data] as a [kind] checkpoint at [path]. Under the
    ["ckpt.torn"] fault the write is deliberately torn (half the bytes,
    no rename) to exercise the detection path. Raises [Sys_error] on
    I/O failure. *)

val save_string : kind:string -> path:string -> string -> unit
(** [save] of data already in its JSON text, which is written as it
    is. *)

val load : kind:string -> path:string -> (Util.Json.t, string) result
(** Read back the ["data"] payload. Errors (all strings mention [path]):
    missing file, torn/truncated content, checksum mismatch, malformed
    JSON, wrong format version or kind. Never raises on bad content. *)

val load_with :
  kind:string ->
  path:string ->
  (Util.Json.Cursor.t -> 'a) ->
  ('a, string) result
(** [load] with the ["data"] payload read by a {!Util.Json.Cursor}
    reader straight from the file's bytes, with no tree. The errors are
    [load]'s; a payload [read] rejects (by {!Util.Json.Cursor.fail} or
    a reader's parse error) is a corrupt payload. *)

val fnv1a64 : string -> int64
(** The footer checksum: FNV-1a, 64-bit. Exposed for tests. *)
