(** Dependency-free blocking HTTP/1.1 foundation.

    The substrate shared by the observability endpoint ({!Server}) and
    the learning-service daemon ([Lr_serve]): a parsed request type, the
    response/chunk writers, a bounded line ring for tail+live streaming,
    and a single-domain [Unix.select] accept loop with a stop pipe.

    Deliberately boring: one domain, blocking sockets with short
    timeouts, no keep-alive, no TLS — sized for a handful of local
    scrapers and clients, not the open internet. Handlers run on the
    loop's domain; anything they read that other domains write must be
    locked by the caller. *)

(** {1 Requests} *)

type request = {
  meth : string;  (** verb as sent, e.g. ["GET"], ["POST"] *)
  path : string;  (** target path; a query string is dropped *)
  body : string;  (** up to [Content-Length] bytes; [""] when absent *)
}

val read_request : ?max_body:int -> Unix.file_descr -> request option
(** Read one request — head (8 KiB cap) plus, when a [Content-Length]
    header is present, the body (capped at [max_body], default 1 MiB).
    [None] on malformed input, timeout, overflow or early close. *)

(** {1 Responses} *)

val send : Unix.file_descr -> string -> unit
(** Write the whole string, retrying on [EINTR]. Raises on socket
    errors — callers wrap a connection's worth of sends in one try. *)

val respond :
  Unix.file_descr ->
  status:string ->
  ?headers:(string * string) list ->
  ctype:string ->
  string ->
  unit
(** One complete [Connection: close] response: status line, defaulted
    headers ([Content-Type], [Content-Length]) plus [headers], body. *)

val start_chunked : Unix.file_descr -> ctype:string -> unit
(** The header block of a 200 [Transfer-Encoding: chunked] response;
    follow with {!send_chunk} and finish with {!send_last_chunk}. *)

val send_chunk : Unix.file_descr -> string -> unit
(** One chunk; empty strings are skipped (an empty chunk would
    terminate the stream). *)

val send_last_chunk : Unix.file_descr -> unit
val close_quiet : Unix.file_descr -> unit

(** {1 Line rings}

    Bounded FIFO of retained lines with absolute sequence numbers, so a
    streaming client can resume from "everything after seq N" even when
    the ring has dropped its oldest lines in between. Not synchronised —
    guard with the owner's lock. *)

type ring

val ring_create : int -> ring
(** Capacity is clamped to at least 1. *)

val ring_push : ring -> string -> unit
val ring_since : ring -> int -> string list
(** Retained lines with sequence number [>= since], oldest first. *)

val ring_next_seq : ring -> int
(** The sequence number the next pushed line will get. *)

(** {1 The accept loop} *)

type t

val start :
  ?addr:string ->
  port:int ->
  handle:(Unix.file_descr -> request -> unit) ->
  ?tick:(unit -> unit) ->
  ?on_stop:(unit -> unit) ->
  unit ->
  (t, string) result
(** Bind [addr] (default [127.0.0.1]) on [port] ([0] = ephemeral, see
    {!port}) and spawn one server domain running the accept loop. Each
    accepted connection gets a 2 s receive timeout and one parsed
    request; [handle fd req] then owns [fd] — it must either close it
    or retain it for streaming (pushing further data from [tick], which
    runs every loop iteration, ~20 Hz). Unparseable requests are closed
    without a response. [on_stop] runs in the server domain after the
    loop exits, before {!stop} returns — close retained streams there.
    SIGPIPE is ignored process-wide on first start. *)

val port : t -> int
val stop : t -> unit
(** Wake the loop, run [on_stop], close the listener, join the domain.
    Idempotent. *)
