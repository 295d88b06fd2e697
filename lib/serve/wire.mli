(** [fannet-wire/1] framing: length-prefixed payloads over a byte stream.

    A frame is [magic (4 bytes, "FNW1") | length (4 bytes, big-endian,
    payload bytes) | payload]. The payload is an opaque byte string —
    {!Protocol} puts JSON in it, this module never looks inside. Frames
    above {!max_payload} are rejected before any allocation proportional
    to the claimed length, so a hostile length prefix cannot OOM the
    daemon.

    Decoding is total: every malformed input maps onto a typed
    {!error}, never an exception, which is what lets the daemon's accept
    loop answer garbage with a typed protocol-error reply instead of
    dying (the property the wire QCheck battery pins down). *)

val magic : string
(** ["FNW1"] — 4 bytes, first on the wire. Deliberately distinct from
    ["GET "] so an HTTP-style scrape ([GET /metrics]) on the same socket
    is recognisable from the first 4 bytes. *)

val max_payload : int
(** 16 MiB. Frames claiming more are {!Oversized}. *)

type error =
  | Bad_magic of string  (** the 4 bytes that were read instead *)
  | Oversized of int     (** claimed payload length above {!max_payload} *)
  | Truncated            (** stream ended inside the header or payload *)
  | Closed               (** stream ended cleanly before any frame byte *)

val error_to_string : error -> string

(** {1 String-level codec} — pure, for property tests. *)

val encode : string -> string
(** Wrap a payload into one frame. Raises [Invalid_argument] when the
    payload exceeds {!max_payload} (the daemon never builds such
    replies; the check keeps the encoder total on its domain). *)

val decode : string -> (string * int, error) result
(** Parse one frame from the head of the buffer; [Ok (payload, used)]
    with [used] bytes consumed. A buffer that starts with a valid but
    incomplete frame is [Truncated]; an empty buffer is [Closed]. *)

(** {1 File-descriptor codec} — blocking reads/writes. *)

val read_frame : Unix.file_descr -> (string, error) result
(** Read exactly one frame. [Closed] when the peer disconnected at a
    frame boundary, [Truncated] when it disconnected inside one. *)

val read_frame_after : first:string -> Unix.file_descr -> (string, error) result
(** Like {!read_frame} when the caller already consumed [first] bytes of
    the header while sniffing the connection type (the daemon reads 4
    bytes to distinguish frames from [GET ] scrapes). *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string (handles short writes and [EINTR]).
    Raises [Unix.Unix_error] on a broken pipe. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one complete frame (handles short writes). Raises
    [Unix.Unix_error] on a broken pipe — callers own the socket. *)
