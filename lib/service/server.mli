(** The [fds serve] daemon: a socket server speaking {!Protocol}
    frames, one {!Session} per connection over a single shared
    {!Session.Store}. Every serving domain, the main one included,
    runs one loop: take a ready connection, or select over the quiet
    ones when no other domain is, and serve it. No domain blocks on a
    socket read, so any number of open connections multiplex over a
    few domains; the store lock serializes database mutation, so
    concurrent transactions are serializable. *)

open Fdbs_kernel

type listen = [ `Unix of string | `Tcp of string * int ]

val describe : listen -> string

type stats = {
  served_connections : int;
  served_requests : int;
}

(** Serving domains [serve] runs, the main one included: [requested]
    (0 means no limit) capped at [cores] less one spare core and a
    follower's stream, ≥ 1. *)
val worker_count : requested:int -> cores:int -> follow:bool -> int

(** Bind, listen, and block serving connections until a [shutdown]
    request, SIGINT or SIGTERM. [workers] serving domains, the main
    one included, serve connections concurrently, at most
    {!worker_count} (a cap reported on stderr); below 3 cores that is
    one, so one long request delays the other ready connections. The
    domains share one store and one process-wide planner cache (plan
    keys mix the schema fingerprint, so sharing is safe); reads evaluate against immutable
    store snapshots outside the store lock, and per-request budgets are
    rebuilt per request so accounting stays exact whichever domain
    serves. [ready] runs once the socket is listening (the CLI prints
    its "serving on" line there). On return the socket is closed (and
    unlinked for Unix sockets) and all serving domains have joined.
    [Error] means the store could not be created or the address could
    not be bound.

    Replication: with a journal in [config] (and no [follow]) the
    server is a {e leader} — it recovers the journal's committed state
    at boot, stamps a fresh epoch, journals with fsync, and serves the
    [fetch] op. With [follow] (the leader's address) it is a
    {e follower}: [config] must carry the replica's own journal; the
    server recovers from snapshot + journal tail, streams committed
    entries from the leader in a dedicated domain, snapshots every
    [snapshot_every] entries (default 64), and serves clients
    read-only — writes are rejected with a structured [Read_only]
    error. When the leader dies the follower keeps serving reads and
    reconnects with capped backoff.

    Gateway behavior: connections are pipelined and multiplexed —
    every frame the client has already sent is answered in order into
    one corked flush, the quiet connection is parked for the next
    select (no domain ever blocks on a socket read, so idle or pooled
    connections cannot starve the others), and the [batch] op executes N
    requests in a single frame exchange. Admission control:
    [config.rate_limit]/[rate_burst] token-bucket requests per
    connection and [config.step_rate] meters budget steps per store;
    over-limit requests get a structured [Overloaded] error with a
    [retry-after-ms] hint instead of stalling. Connections accepted
    while [max_queue] (default 1024) ready connections already await
    service are shed with one [Overloaded] frame. The [attach] op binds a
    connection to a named namespace — an independent store with its own
    journal ([config.journal ^ "." ^ name], recovered at first attach)
    over the shared planner cache; with [auth] set, [attach] requires
    the matching ["token"]. The [hello] op negotiates the protocol
    version and advertises the connection's features ("namespaces",
    and "monitors"/"subscribe" when monitors are attached).

    Monitors: [monitors] attaches compiled streaming monitors
    ({!Fdbs_rpr.Monitor}) to the boot store {e after} recovery (a
    replayed history does not re-fire events). Every commit advances
    them — on a follower the applied leader entries do, at zero leader
    cost. [`Observe] pushes violation event frames to [subscribe]d
    connections; [`Enforce] additionally rolls violating commits back
    with a structured [Monitor_violation] error (downgraded to
    [`Observe] on followers, which cannot reject committed entries).
    Event pushes are serialized with the reply stream by a
    per-connection write lock, so frames never interleave. *)
val serve :
  ?workers:int ->
  ?spec:Fdbs_algebra.Spec.t ->
  ?config:Config.t ->
  ?ready:(unit -> unit) ->
  ?follow:listen ->
  ?snapshot_every:int ->
  ?auth:string ->
  ?max_queue:int ->
  ?monitors:Fdbs_rpr.Monitor.t * [ `Observe | `Enforce ] ->
  listen ->
  Fdbs_rpr.Schema.t ->
  (stats, Error.t) result
