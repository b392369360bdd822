(** The [fds serve] wire protocol.

    A frame is a decimal byte length, a newline, the payload (one JSON
    document), and a newline. Requests are objects
    [{"id": <any>, "op": <string>, ...}]; responses echo the [id] and
    carry [{"ok": true, "result": ...}] or
    [{"ok": false, "error": ...}] with the error rendered by
    {!Fdbs_kernel.Error.to_json}. Payloads are serialized with the
    kernel's deterministic {!Fdbs_kernel.Json.to_string}, so responses
    are byte-stable across runs.

    Operations: [ping], [hello] (optional ["version"]; the v2
    handshake — answers the negotiated version, the op set for the
    connection's role, and the server's feature flags; clients that
    never send it are v1 and served unchanged), [run] (["calls"]:
    array of call strings or [{"proc", "args"}] objects), [query]
    (["wff"]), [eval] (["term"], optional ["trace"]), [explain],
    [begin], [commit], [rollback], [state], [stats], [monitor] (the
    attached streaming monitors' status: per-axiom kind/depth/
    violation counts and the skipped axioms), [subscribe] (handled by
    the server: switches the connection into event streaming — see
    below), [replay] (["journal"]), [batch] (["requests"]: non-empty
    array of request objects executed in order, answered as one array —
    [batch], [shutdown], [attach], [subscribe], and [fetch] may not
    nest), [attach] (["namespace"], optional ["token"]; handled by the
    server, which swaps the connection onto that namespace's store),
    [shutdown], and — served by replication leaders only — [fetch]
    (["from"] offset, ["epoch"]): the committed entries past the
    offset, a heartbeat when there are none, or the leader's snapshot
    when the offset predates its truncation base. On a follower the
    write ops ([run], [begin], [commit], [rollback], [replay]) are
    rejected with a structured [Read_only] error, and [attach] with
    [Read_only] too (namespaces live on the leader).

    {b Event frames.} A [subscribe]d connection receives, besides its
    replies, server-pushed frames tagged with an ["event"] member (and
    no ["id"]/["ok"]):
    [{"event": "violation", "monitor": <axiom>, "kind":
    "static"|"transition", "state": <n>}] when a streaming monitor
    fires, and [{"event": "heartbeat", "commits": <n>, "violations":
    <n>}] immediately after subscribing (so clients can sync their
    counters). Use {!classify_frame} to tell the streams apart. *)

open Fdbs_kernel
open Fdbs_rpr

val value_to_json : Value.t -> Json.t
val value_of_json : Json.t -> Value.t option

(** Relations as arrays of tuples (name-sorted), scalars as a flat
    object. *)
val db_to_json : Db.t -> Json.t

(** The inverse, against a schema — how a follower decodes a leader
    snapshot shipped inside a fetch response. *)
val db_of_json : schema:Schema.t -> Json.t -> (Db.t, Error.t) result

(** The CLI's call syntax: [name(arg, ...)], integer literals parsed as
    integers, everything else a symbolic constant. *)
val parse_call : string -> (Journal.call, Error.t) result

val call_of_json : Json.t -> (Journal.call, Error.t) result

(** Buffer a frame without flushing — callers pipelining several
    responses cork them and flush once. *)
val output_frame : out_channel -> string -> unit

(** {!output_frame} followed by a flush. *)
val write_frame : out_channel -> string -> unit

(** A buffered frame reader over a raw descriptor that can distinguish
    "nothing buffered or immediately readable" from "waiting for the
    next request" — the server's pipelining primitive. *)
module Reader : sig
  type t

  val create : ?size:int -> Unix.file_descr -> t

  (** The next frame. [block:false] consumes only bytes already
      buffered or immediately readable and answers [`Pending] when the
      pipeline is drained; [block:true] waits. [`Eof] is a clean end of
      stream. Raises {!Fdbs_kernel.Error.Error} on a malformed
      frame. *)
  val next : t -> block:bool -> [ `Frame of string | `Eof | `Pending ]
end

type request = {
  id : Json.t;  (** echoed verbatim in the response *)
  op : string;
  body : Json.t;  (** the whole request object *)
}

(** On error, the carried {!Fdbs_kernel.Json.t} is the request id when
    the document parsed well enough to have one ([Null] otherwise), so
    error replies can echo it. *)
val request_of_json : Json.t -> (request, Json.t * Error.t) result

val request_of_string : string -> (request, Json.t * Error.t) result
val ok_response : id:Json.t -> Json.t -> string
val error_response : id:Json.t -> Error.t -> string

(** What the serving process is, per store: a standalone server (every
    op allowed, no [fetch]), a leader (serves [fetch] from its journal
    log), or a follower (read-only: writes rejected with a structured
    [Read_only] error). *)
type role =
  | Standalone
  | Leader of Replication.log
  | Follower of Replica.t

(** The [fetch] request frame a follower sends: from its last applied
    offset, carrying its highest seen epoch. *)
val fetch_request : id:Json.t -> from:int -> epoch:int -> string

(** A parsed [fetch] response. *)
type fetched = {
  f_epoch : int;  (** the leader's current epoch *)
  f_base : int;  (** the leader's truncation base *)
  f_last : int;  (** the leader's last committed offset *)
  f_entries : Journal.stamped list;  (** empty = heartbeat *)
  f_snapshot : Replication.snapshot option;
      (** sent instead of entries when the follower is behind the
          leader's truncation base *)
}

val fetched_of_response :
  schema:Schema.t -> string -> (fetched, Error.t) result

(** The protocol version this build speaks. Version 1 is the original
    request/reply protocol; version 2 adds the [hello] handshake, the
    [monitor] op, and event frames on [subscribe]d connections. *)
val protocol_version : int

(** The ops the server answers for the given role — the [hello]
    reply's ["ops"] array. [attach] and [subscribe] are
    connection-level (intercepted by the server before dispatch). *)
val supported_ops : role:role -> string list

(** A monitor status as the [monitor] op's result object. *)
val monitor_status_to_json : Session.monitor_status -> Json.t

(** The serialized [{"event": "violation", ...}] frame for a monitor
    event, ready for {!output_frame}. *)
val violation_frame : Monitor.event -> string

(** The serialized [{"event": "heartbeat", ...}] frame sent when a
    connection subscribes. *)
val heartbeat_frame : commits:int -> violations:int -> string

(** Classify an incoming frame on a subscribed connection: [`Event]
    carries the ["event"] tag ("violation", "heartbeat"), [`Reply] is
    an ordinary response. *)
val classify_frame : Json.t -> [ `Event of string | `Reply ]

type reply =
  | Reply of string
  | Final of string  (** reply, then shut the server down *)

(** Decode a wire error object (the ["error"] member of an
    [{"ok": false}] response) back into a structured error. *)
val error_of_json : Json.t -> Error.t

(** Execute one request against a session, as [role] (default
    {!Standalone}). [admit] is the server's admission hook, charged
    once per sub-request of a [batch] (an [Error] becomes that
    sub-request's [Overloaded] reply). [features] is the server's
    feature-flag list, echoed in [hello] replies. Never raises — every
    failure becomes an [{"ok": false}] response — except for an armed
    [replication.fetch] fault, which propagates so the server can cut
    the stream. *)
val handle :
  ?role:role ->
  ?admit:(unit -> (unit, Error.t) result) ->
  ?features:string list ->
  Session.t ->
  request ->
  reply
