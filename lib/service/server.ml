(* The fds serve daemon: a socket server speaking Protocol frames, one
   session per connection over a shared store. Every serving domain,
   the main one included, runs one loop: take a ready connection, or
   select over the parked (quiet) ones when no other domain is
   polling, and serve what is ready itself — answer every buffered
   frame into the connection's output buffer, then flush it and park
   the connection again. No domain blocks on a socket read, so any
   number of open connections multiplex over a few domains. All
   database mutation is serialized by the store lock inside Session,
   so concurrent connections observe serializable transactions.

   Group commit: a leader's journal is fsynced for power-loss
   durability, but not under the store lock and not once per commit.
   A commit served here appends its entry and records sync debt
   ({!Journal.deferring}); the domain goes on serving the connections
   already ready, and those that one more non-waiting poll finds, then
   settles the batch with one fsync and flushes every reply. Every
   flush of client output passes one gate ([flush_conn]) that first
   makes the journal durable up to every entry appended so far, so an
   ack follows the fsync that covers its entry, and no read reply,
   pushed event or fetched entry carries a commit that a crash could
   lose. A failed fsync acknowledges nothing
   more: the server closes the connections and stops with an error.

   Replication: with a journal the server boots as a *leader* — it
   recovers the journal's committed state, stamps a fresh epoch, and
   serves the `fetch` op from an incremental log view. With [?follow]
   it boots as a *follower*: it recovers from its own snapshot +
   journal tail, then a dedicated domain streams committed entries
   from the leader and applies them through the Session machinery,
   while client connections get read-only service (writes are
   rejected with a structured Read_only error). Leader death degrades
   the follower to read-only-and-reconnecting instead of an outage.

   Shutdown is cooperative: a "shutdown" request, SIGINT or SIGTERM
   sets the stop flag; the poller (a 0.2s select) notices, every
   serving domain leaves its loop, the spawned ones (and the follow
   domain) join, queued and parked connections are closed, and the
   socket is closed and unlinked. Trace emission is the caller's
   concern (the CLI installs its usual at_exit observer). *)

open Fdbs_kernel
open Fdbs_rpr

type listen = [ `Unix of string | `Tcp of string * int ]

let address : listen -> Unix.sockaddr = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let describe : listen -> string = function
  | `Unix path -> path
  | `Tcp (host, port) -> Fmt.str "%s:%d" host port

(* One client connection. A connection is owned by exactly one party at
   a time: the ready queue, the domain serving it, or the parked table
   the poller watches. *)
type conn = {
  fd : Unix.file_descr;
  reader : Protocol.Reader.t;
  out : string list ref;
      (* frames answered but not yet sent, newest first; they leave only
         through [flush_conn] *)
  oc : out_channel;
  closed : bool ref;
  wlock : Mutex.t;
      (* guards [out], [oc] and [closed]: the serving domain's replies and
         event frames pushed by committing domains interleave at frame
         granularity. Never held across Session calls; a committing
         domain pushing events takes it inside the store lock. *)
  session : Session.t ref;  (* rebound by [attach] *)
  bucket : Budget.Bucket.t option;  (* per-connection request admission *)
  stopping : bool ref;  (* this connection carried a shutdown request *)
}

let with_wlock conn f =
  Mutex.lock conn.wlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.wlock) f

let add_frames conn frames =
  with_wlock conn (fun () -> conn.out := List.rev_append frames !(conn.out))

type t = {
  store : Session.Store.t;
  schema : Schema.t;
  spec : Fdbs_algebra.Spec.t option;
  config : Config.t;  (* the adjusted (post-role) configuration *)
  auth : string option;  (* token required by [attach], when set *)
  max_queue : int;  (* accepted connections queued beyond this are shed *)
  role : Protocol.role;
  sock : Unix.file_descr;
  stop : bool Atomic.t;
  (* [queue], [parked] and [polling] are guarded by [qlock] *)
  queue : conn Queue.t;  (* connections with input waiting to be served *)
  parked : (Unix.file_descr, conn) Hashtbl.t;  (* quiet connections *)
  mutable polling : bool;  (* a domain is selecting over [parked] *)
  qlock : Mutex.t;
  qcond : Condition.t;
  wake_r : Unix.file_descr;  (* self-pipe: interrupts the poller's select *)
  wake_w : Unix.file_descr;
  namespaces : (string, Session.Store.t) Hashtbl.t;
  ns_lock : Mutex.t;
  subscribers : (Unix.file_descr, conn) Hashtbl.t;
      (* connections that asked for event frames; guarded by [sub_lock] *)
  sub_lock : Mutex.t;
  connections : int Atomic.t;
  requests : int Atomic.t;
  failed : Error.t option Atomic.t;  (* a journal sync failed: stopping *)
}

type stats = {
  served_connections : int;
  served_requests : int;
}

let h_request_us = Metrics.histogram "service.request_us"
let c_workers = Metrics.counter "service.workers"
let c_bad_frames = Metrics.counter "service.bad_frames"
let c_throttled = Metrics.counter "service.throttled"
let c_shed = Metrics.counter "service.shed"
let c_attached = Metrics.counter "service.attached"
let c_subscribed = Metrics.counter "service.subscribed"
let c_events_pushed = Metrics.counter "service.events_pushed"
let c_wakes = Metrics.counter "service.wakes"

let wake_byte = Bytes.of_string "x"

(* Takes no lock, so the signal handler can call it. *)
let wake server =
  Metrics.incr c_wakes;
  try ignore (Unix.write server.wake_w wake_byte 0 1)
  with Unix.Unix_error _ -> ()

let request_stop server =
  Atomic.set server.stop true;
  Mutex.lock server.qlock;
  Condition.broadcast server.qcond;
  let poke = server.polling in
  Mutex.unlock server.qlock;
  if poke then wake server

(* A journal sync failed: the commits it should have covered may not
   survive power loss, so nothing more is acknowledged. Stops the way a
   signal does, taking no lock: a committing domain pushing events
   calls it with the store lock held. *)
let fail server (e : Error.t) =
  if Atomic.compare_and_set server.failed None (Some e) then
    Fmt.epr "fds: %s; stopping, restart recovers from the journal@."
      (Error.to_string e);
  Atomic.set server.stop true;
  wake server

(* Every byte bound for a client leaves through here. The journal is
   first made durable up to every entry appended so far — one atomic
   comparison when nothing is pending — so nothing reaches a client
   ahead of the fsync that covers the commits it depends on. [false]
   when nothing was sent and the connection is done for. *)
let flush_conn server conn =
  with_wlock conn @@ fun () ->
  if !(conn.closed) || Atomic.get server.failed <> None then false
  else if !(conn.out) = [] then true
  else
    match Journal.sync () with
    | Result.Error e ->
      fail server e;
      false
    | Ok () ->
      let frames = List.rev !(conn.out) in
      conn.out := [];
      (* the channel writes whenever its buffer fills, so a long burst
         can fail on a vanished peer before the final flush *)
      (match
         List.iter (Protocol.output_frame conn.oc) frames;
         flush conn.oc
       with
       | () -> true
       | exception Sys_error _ -> false)

let bad_request fmt =
  Fmt.kstr (fun m -> Error.make Error.Parse Error.Exec_failure m) fmt

(* ------------------------------------------------------------------ *)
(* multi-tenant namespaces                                             *)
(* ------------------------------------------------------------------ *)

let valid_namespace name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.')
       name

(* Find or create the namespace's store. Every namespace is an
   independent store — own state, own domain, own journal
   ([base ^ "." ^ ns], recovered at first attach) — but all of them
   share the process-wide planner cache: plan keys mix the schema
   fingerprint, so tenants with identical schemas reuse each other's
   compiled plans. *)
let namespace_store server ns : (Session.Store.t, Error.t) result =
  Mutex.lock server.ns_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock server.ns_lock) @@ fun () ->
  match Hashtbl.find_opt server.namespaces ns with
  | Some st -> Ok st
  | None ->
    let ( let* ) = Result.bind in
    let config =
      match server.config.Config.journal with
      | None -> server.config
      | Some base -> { server.config with Config.journal = Some (base ^ "." ^ ns) }
    in
    let* st = Session.Store.create ~config ?spec:server.spec server.schema in
    let* () =
      match config.Config.journal with
      | Some journal when Sys.file_exists journal ->
        let boot = Session.on_store st in
        let* replayed = Session.replay boot journal in
        (match replayed.Session.rep_torn with
         | Some what -> Fmt.epr "fds: warning: journal %s: %s@." journal what
         | None -> ());
        Ok ()
      | _ -> Ok ()
    in
    Hashtbl.add server.namespaces ns st;
    Metrics.incr c_attached;
    Ok st

(* The [attach] op lives here rather than in Protocol.handle because it
   swaps the connection onto another store's session. Followers reject
   it (namespaces live on the leader); with [--auth-token] the request
   must carry the matching ["token"]. *)
let handle_attach server (req : Protocol.request) :
  (Session.Store.t * string, Error.t) result =
  let ( let* ) = Result.bind in
  let* () =
    match server.role with
    | Protocol.Follower _ ->
      Result.Error
        (Error.make
           ~context:[ ("op", "attach") ]
           Error.Exec Error.Read_only
           "read-only replica: attach must go to the leader")
    | _ -> Ok ()
  in
  let* () =
    match server.auth with
    | None -> Ok ()
    | Some expected ->
      let token =
        Option.bind (Json.field "token" req.Protocol.body) Json.to_string_opt
      in
      if token = Some expected then Ok ()
      else
        Result.Error
          (Error.make Error.Exec Error.Unauthorized
             "attach: missing or invalid token")
  in
  let* ns =
    match
      Option.bind (Json.field "namespace" req.Protocol.body) Json.to_string_opt
    with
    | None -> Result.Error (bad_request "attach needs a \"namespace\" string")
    | Some ns when not (valid_namespace ns) ->
      Result.Error
        (bad_request
           "invalid namespace %S: up to 64 characters of [A-Za-z0-9_.-]" ns)
    | Some ns -> Ok ns
  in
  let* st = namespace_store server ns in
  Ok (st, ns)

(* ------------------------------------------------------------------ *)
(* monitor subscriptions                                               *)
(* ------------------------------------------------------------------ *)

(* Fan a batch of monitor events out to every subscribed connection as
   violation frames. Runs on the committing domain (the store sink is
   called from the commit's publish phase, under the store lock), and
   the frames go through the flush gate: on a journaled store that
   fsyncs the commit first. A subscriber whose socket fails is dropped
   from the registry and closed when the poller next finds it at EOF. *)
let broadcast_events server (events : Monitor.event list) =
  Mutex.lock server.sub_lock;
  let subs = Hashtbl.fold (fun _ c acc -> c :: acc) server.subscribers [] in
  Mutex.unlock server.sub_lock;
  if subs <> [] then begin
    let frames = List.map Protocol.violation_frame events in
    List.iter
      (fun conn ->
        add_frames conn frames;
        if flush_conn server conn then
          Metrics.add c_events_pushed (List.length frames)
        else (
          Mutex.lock server.sub_lock;
          Hashtbl.remove server.subscribers conn.fd;
          Mutex.unlock server.sub_lock))
      subs
  end

(* The [subscribe] op lives here rather than in Protocol.handle because
   it changes what the connection receives from now on. The reply is
   followed by one deterministic heartbeat frame, so a client can sync
   its counters before the first violation arrives. *)
let handle_subscribe server conn (req : Protocol.request) : unit =
  let id = req.Protocol.id in
  match Session.monitor !(conn.session) with
  | Result.Error e ->
    add_frames conn [ Protocol.error_response ~id e ]
  | Ok status ->
    Mutex.lock server.sub_lock;
    Hashtbl.replace server.subscribers conn.fd conn;
    Mutex.unlock server.sub_lock;
    Metrics.incr c_subscribed;
    add_frames conn
      [
        Protocol.ok_response ~id
          (Json.Obj
             [
               ("subscribed", Json.Bool true);
               ("theory", Json.Str status.Session.mon_theory);
             ]);
        Protocol.heartbeat_frame ~commits:status.Session.mon_commits
          ~violations:status.Session.mon_violations;
      ]

let unsubscribe server conn =
  Mutex.lock server.sub_lock;
  Hashtbl.remove server.subscribers conn.fd;
  Mutex.unlock server.sub_lock

(* ------------------------------------------------------------------ *)
(* connections                                                         *)
(* ------------------------------------------------------------------ *)

(* Connections are multiplexed, not owned: a domain serves a *ready*
   connection by draining every frame the client has already sent
   (answering into the output buffer), flushing once the pipeline is
   empty — at once, or when its batch settles if a commit left the
   journal unsynced — and parking the quiet connection where the
   poller watches it. No domain ever blocks on a socket read — a
   client may hold any number of open connections (`fds client
   --pool`, or simply an idle session) without starving the others,
   and a pipelined burst of N requests gets N responses in order
   behind one write. *)

let new_conn server fd =
  {
    fd;
    reader = Protocol.Reader.create fd;
    out = ref [];
    oc = Unix.out_channel_of_descr fd;
    closed = ref false;
    wlock = Mutex.create ();
    session = ref (Session.on_store server.store);
    bucket =
      (match server.config.Config.rate_limit with
      | None -> None
      | Some rate ->
        Some
          (Budget.Bucket.make ?burst:server.config.Config.rate_burst ~rate ()));
    stopping = ref false;
  }

let admit server conn () =
  match conn.bucket with
  | None ->
    Atomic.incr server.requests;
    Ok ()
  | Some b ->
    (match Budget.Bucket.take b 1.0 with
     | Ok () ->
       Atomic.incr server.requests;
       Ok ()
     | Result.Error wait ->
       Metrics.incr c_throttled;
       Result.Error
         (Error.overloaded ~retry_after_s:wait
            "connection overloaded: request rate exceeded"))

(* The [hello] feature flags for this connection: what the server
   layers on top of the per-request protocol. *)
let features_of server conn =
  (match server.role with
   | Protocol.Follower _ -> []
   | _ -> [ "namespaces" ])
  @
  match Session.Store.monitors (Session.store !(conn.session)) with
  | Some _ -> [ "monitors"; "subscribe" ]
  | None -> []

let handle_frame server conn payload =
  let write r = add_frames conn [ r ] in
  match Protocol.request_of_string payload with
  | Result.Error (id, e) ->
    (* a parse failure is the client's malformed frame, not a served
       request: account it separately *)
    Metrics.incr c_bad_frames;
    write (Protocol.error_response ~id e)
  | Ok req ->
    let id = req.Protocol.id in
    (* a batch admits (and counts) each sub-request inside the
       handler instead of paying once for the envelope *)
    (match if req.Protocol.op = "batch" then Ok () else admit server conn ()
     with
     | Result.Error e -> write (Protocol.error_response ~id e)
     | Ok () ->
       (match req.Protocol.op with
        | "attach" ->
          (match handle_attach server req with
           | Result.Error e -> write (Protocol.error_response ~id e)
           | Ok (st, ns) ->
             Session.close !(conn.session);
             (* a subscription follows the session it was made on, not
                the connection: attaching elsewhere drops it *)
             unsubscribe server conn;
             conn.session := Session.on_store st;
             write
               (Protocol.ok_response ~id
                  (Json.Obj [ ("namespace", Json.Str ns) ])))
        | "subscribe" -> handle_subscribe server conn req
        | _ ->
          (match
             (* Per-request budgets are rebuilt inside the handler
                from the store config, so accounting stays exact
                whichever domain serves the request; reads
                evaluate against a shared snapshot outside the store
                lock. *)
             let t0 = Mclock.now_us () in
             Fun.protect
               ~finally:(fun () ->
                 Metrics.observe_us h_request_us (Mclock.now_us () -. t0))
               (fun () ->
                 Trace.with_span ~cat:"service"
                   ~args:[ ("op", req.Protocol.op) ]
                   "service.request"
                   (fun () ->
                     Protocol.handle ~role:server.role
                       ~admit:(admit server conn)
                       ~features:(features_of server conn)
                       !(conn.session) req))
           with
           | Protocol.Reply r -> write r
           | Protocol.Final r ->
             write r;
             conn.stopping := true)))

(* Buffered replies (the shutdown "bye" included) are flushed through
   the gate before the fd is closed. *)
let close_conn server conn =
  if !(conn.stopping) then request_stop server;
  unsubscribe server conn;
  Session.close !(conn.session);
  ignore (flush_conn server conn);
  with_wlock conn (fun () ->
      conn.closed := true;
      close_out_noerr conn.oc)

(* Park a drained connection where the poller watches it. Data that
   arrives between the last read and the next select is not lost:
   select is level-triggered, so the fd reports readable the moment it
   is watched. Only a domain in select at this moment watches a set
   without this connection, so only then is the wake pipe written. *)
let park server conn =
  Mutex.lock server.qlock;
  Hashtbl.replace server.parked conn.fd conn;
  let poke = server.polling in
  Mutex.unlock server.qlock;
  if poke then wake server

(* Answer every frame [conn] has buffered into its output buffer,
   without flushing; say whether it goes back to the watch set. *)
let drain server conn =
  let rec go () =
    if !(conn.stopping) then `Close
    else
      match Protocol.Reader.next conn.reader ~block:false with
      | `Eof -> `Close
      | `Frame payload ->
        handle_frame server conn payload;
        go ()
      | `Pending -> `Park
  in
  try go () with
  | Error.Error e ->
    (* malformed frame: report once, then drop the connection *)
    Metrics.incr c_bad_frames;
    add_frames conn [ Protocol.error_response ~id:Json.Null e ];
    `Close
  | End_of_file | Sys_error _ -> `Close
  | Fault.Injected _ ->
    (* an armed replication fault (e.g. replication.fetch) cuts the
       stream mid-exchange: drop the connection without a reply, the
       follower reconnects *)
    `Close

(* Send a drained connection's replies, then park or close it. *)
let finish server (conn, next) =
  match next with
  | `Park when flush_conn server conn -> park server conn
  | `Park | `Close -> close_conn server conn

(* Shed load instead of queueing without bound: a connection accepted
   while the queue is already [max_queue] deep gets one structured
   Overloaded frame (with a retry hint) and is closed instead of
   waiting behind them. *)
let shed_connection fd =
  Metrics.incr c_shed;
  let oc = Unix.out_channel_of_descr fd in
  (try
     Protocol.write_frame oc
       (Protocol.error_response ~id:Json.Null
          (Error.overloaded ~retry_after_s:0.1
             "server overloaded: accept queue is full"))
   with Sys_error _ -> ());
  close_out_noerr oc

(* Called with [qlock] held, after the connections found ready in the
   same select are queued, so [max_queue] counts those too. *)
let accept_one server =
  match Unix.accept server.sock with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
    if Queue.length server.queue >= server.max_queue then shed_connection fd
    else (
      Atomic.incr server.connections;
      (* straight to the ready queue: the first service pass answers
         whatever the client sent with the connect, or parks it *)
      Queue.push (new_conn server fd) server.queue)

(* Select over the listening socket, the wake pipe and the parked
   connections; queue those with input, then accept a new one. Called
   and returns with [qlock] held; the select runs without it. *)
let poll ?(timeout = 0.2) server =
  server.polling <- true;
  let watch =
    server.sock :: server.wake_r
    :: Hashtbl.fold (fun fd _ acc -> fd :: acc) server.parked []
  in
  Mutex.unlock server.qlock;
  let ready =
    match Unix.select watch [] [] timeout with
    | ready, _, _ -> ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  Mutex.lock server.qlock;
  server.polling <- false;
  List.iter
    (fun fd ->
      match Hashtbl.find_opt server.parked fd with
      | Some conn ->
        Hashtbl.remove server.parked fd;
        Queue.push conn server.queue
      | None -> ())
    ready;
  (* a byte left over wakes the next select early, harmlessly *)
  if List.mem server.wake_r ready then (
    try ignore (Unix.read server.wake_r (Bytes.create 64) 0 64)
    with Unix.Unix_error _ -> ());
  if List.mem server.sock ready then accept_one server

(* The loop every serving domain runs, the main one included: take a
   ready connection, or poll for some when no other domain is polling,
   or wait on [qcond] until that one queues work or stops polling. A
   domain that takes a connection signals [qcond] when work is still
   queued or nobody polls, so the poll passes on while it serves; with
   one serving domain nobody waits and the signal costs no syscall.

   A served connection whose replies may depend on an unsynced journal
   entry joins the domain's batch instead of being flushed. Once the
   ready queue is empty the domain polls once more without waiting, so
   a commit that arrived while the batch was served joins it; then the
   batch settles: the first flush runs the one fsync, the rest find the
   journal durable. Without that poll two closed-loop committers fall
   into lockstep, each request arriving during the other's batch, and
   every fsync covers one commit. With nothing pending (no journal, or
   no commit) each connection is flushed at once. *)
let serving_loop server () =
  Journal.deferring @@ fun () ->
  let settle batch = List.iter (finish server) (List.rev batch) in
  Mutex.lock server.qlock;
  let rec loop ~repolled batch =
    if Atomic.get server.stop then (
      Condition.broadcast server.qcond;
      Mutex.unlock server.qlock;
      settle batch)
    else
      match Queue.take_opt server.queue with
      | Some conn ->
        if not (server.polling && Queue.is_empty server.queue) then
          Condition.signal server.qcond;
        Mutex.unlock server.qlock;
        let served = (conn, drain server conn) in
        let batch =
          if Journal.pending () then served :: batch
          else (
            finish server served;
            batch)
        in
        Mutex.lock server.qlock;
        loop ~repolled batch
      | None when batch <> [] && not (repolled || server.polling) ->
        poll ~timeout:0. server;
        loop ~repolled:true batch
      | None when batch <> [] ->
        (* the poll passes on while this domain fsyncs *)
        if not server.polling then Condition.signal server.qcond;
        Mutex.unlock server.qlock;
        settle batch;
        Mutex.lock server.qlock;
        loop ~repolled:false []
      | None ->
        if server.polling then Condition.wait server.qcond server.qlock
        else poll server;
        loop ~repolled:false []
  in
  loop ~repolled:false []

let io_error fmt =
  Fmt.kstr (fun m -> Error.make Error.Io Error.Io_failure m) fmt

(* ------------------------------------------------------------------ *)
(* the follower's streaming loop                                       *)
(* ------------------------------------------------------------------ *)

(* Interruptible sleep: the follow domain polls the stop flag so a
   shutdown never waits out a full backoff. *)
let sleep_poll server seconds =
  let slice = 0.05 in
  let rec go left =
    if left > 0.0 && not (Atomic.get server.stop) then (
      Unix.sleepf (Stdlib.min slice left);
      go (left -. slice))
  in
  go seconds

let connect_leader (addr : Unix.sockaddr) =
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  match Unix.connect sock addr with
  | () -> Some sock
  | exception Unix.Unix_error (_, _, _) ->
    Unix.close sock;
    None

(* Stream committed entries from the leader and apply them. One fetch
   round-trip per poll tick when caught up (heartbeats), back-to-back
   when behind. Any connection failure degrades the replica to
   read-only service and reconnects with capped backoff; a shutdown
   request stops the loop at the next tick. *)
let follow_loop server (replica : Replica.t) (leader : Unix.sockaddr)
    (description : string) =
  let schema = Session.Store.schema server.store in
  let warned = ref false in
  let backoff = ref 0.05 in
  while not (Atomic.get server.stop) do
    match connect_leader leader with
    | None ->
      if not !warned then (
        Fmt.epr "fds: leader %s unreachable; serving reads only@." description;
        warned := true);
      Replica.set_degraded replica true;
      sleep_poll server !backoff;
      backoff := Stdlib.min 0.5 (!backoff *. 2.)
    | Some fd ->
      let r = Protocol.Reader.create fd in
      let oc = Unix.out_channel_of_descr fd in
      (try
         let streaming = ref true in
         while !streaming && not (Atomic.get server.stop) do
           Protocol.write_frame oc
             (Protocol.fetch_request ~id:(Json.Num 0.)
                ~from:(Replica.applied replica) ~epoch:(Replica.epoch replica));
           match Protocol.Reader.next r ~block:true with
           | `Eof | `Pending -> streaming := false
           | `Frame payload ->
             (match Protocol.fetched_of_response ~schema payload with
              | Result.Error e ->
                (* e.g. this leader is stale (our epoch is newer): keep
                   serving reads, retry — a newer leader may come up on
                   the same address *)
                Fmt.epr "fds: fetch rejected: %s@." e.Error.message;
                sleep_poll server 0.2
              | Ok f ->
                if !warned then (
                  Fmt.epr "fds: leader %s reachable again@." description;
                  warned := false);
                Replica.set_degraded replica false;
                backoff := 0.05;
                Replica.note_leader replica f.Protocol.f_last;
                (match f.Protocol.f_snapshot with
                 | Some snap ->
                   (match Replica.install_snapshot replica snap with
                    | Ok () -> ()
                    | Result.Error e ->
                      Fmt.epr "fds: snapshot install failed: %s@."
                        e.Error.message;
                      sleep_poll server 0.2)
                 | None ->
                   if f.Protocol.f_entries = [] then
                     (* heartbeat: caught up *)
                     sleep_poll server 0.05
                   else (
                     match Replica.apply replica f.Protocol.f_entries with
                     | Ok () -> ()
                     | Result.Error e ->
                       Fmt.epr "fds: apply failed: %s@." e.Error.message;
                       sleep_poll server 0.2)))
         done
       with
       | End_of_file | Sys_error _ | Unix.Unix_error _ | Error.Error _ -> ());
      close_out_noerr oc
  done

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* Serving domains, the main one included: one core is left spare and
   a follower's stream takes another, at least 1. At most one live
   domain per core: every minor collection stops all domains, so one
   without a core of its own holds the others up. *)
let worker_count ~requested ~cores ~follow =
  let cap = Stdlib.max 1 (cores - 1 - Bool.to_int follow) in
  if requested <= 0 then cap else Stdlib.min requested cap

let serve ?workers:(requested = 0) ?spec ?(config = Config.default)
    ?(ready = fun () -> ()) ?follow ?snapshot_every ?auth ?(max_queue = 1024)
    ?monitors (listen : listen) schema : (stats, Error.t) result =
  let ( let* ) = Result.bind in
  (* Serving domains never block on a socket read (quiet connections
     are parked), and they share one store — and one process-wide
     planner cache, safe because plan keys mix the schema fingerprint —
     so every domain serves requests against warm plans. *)
  let workers =
    worker_count ~requested ~cores:(Pool.recommended_jobs ())
      ~follow:(Option.is_some follow)
  in
  if requested > workers then
    Fmt.epr "fds: --workers %d capped to %d (one live domain per core)@."
      requested workers;
  Metrics.set c_workers workers;
  (* Followers apply leader entries as checked transactions journaled
     locally, so their mode is forced transactional; leaders journal
     with fsync (grouped per served batch) so an acknowledged commit
     survives power loss. *)
  let* config =
    match (follow, config.Config.journal) with
    | Some _, None ->
      Result.Error
        (io_error "follower mode needs --journal (the replica's own journal)")
    | Some _, Some _ -> Ok { config with Config.transactional = true }
    | None, Some _ -> Ok { config with Config.fsync = true }
    | None, None -> Ok config
  in
  let* store = Session.Store.create ~config ?spec schema in
  (* Boot-time recovery and role assignment, before the socket opens:
     a leader replays its journal's committed state and stamps a fresh
     epoch; a follower recovers from its snapshot + journal tail. *)
  let* role, replica =
    match (follow, config.Config.journal) with
    | Some _, None -> assert false (* rejected above *)
    | Some _, Some journal ->
      let* replica =
        Replica.recover ?snapshot_every ~store ~journal ()
      in
      Ok (Protocol.Follower replica, Some replica)
    | None, Some journal ->
      let* () =
        if Sys.file_exists journal then
          let boot = Session.on_store store in
          let* replayed = Session.replay boot journal in
          (match replayed.Session.rep_torn with
           | Some what ->
             Fmt.epr "fds: warning: journal %s: %s@." journal what
           | None -> ());
          Ok ()
        else Ok ()
      in
      let* log = Replication.lead ~journal in
      Ok (Protocol.Leader log, None)
    | None, None -> Ok (Protocol.Standalone, None)
  in
  (* Monitors attach after recovery, so the replayed history does not
     re-fire events; from here every commit — a leader's client write
     or a follower's applied entry — advances them. A follower cannot
     reject entries the leader already committed, so enforcement
     downgrades to observation there. *)
  (match monitors with
   | None -> ()
   | Some (m, mode) ->
     let mode =
       match (mode, role) with
       | `Enforce, Protocol.Follower _ ->
         Fmt.epr
           "fds: warning: followers cannot enforce monitors (entries are \
            already committed on the leader); observing@.";
         `Observe
       | mode, _ -> mode
     in
     Session.Store.attach_monitors ~mode store m);
  let addr = address listen in
  (* a SIGKILLed predecessor leaves its Unix socket file behind; if
     nothing answers on it any more, reclaim the address *)
  (match listen with
   | `Unix path when Sys.file_exists path ->
     (match connect_leader addr with
      | Some fd -> Unix.close fd (* a live server owns it: bind will say so *)
      | None -> (try Unix.unlink path with Unix.Unix_error _ -> ()))
   | _ -> ());
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  match Unix.bind sock addr with
  | exception Unix.Unix_error (err, _, _) ->
    Unix.close sock;
    Result.Error
      (io_error "cannot bind %s: %s" (describe listen) (Unix.error_message err))
  | () ->
    Unix.listen sock 128;
    let namespaces = Hashtbl.create 7 in
    (* the boot store is the "default" namespace: attach default is a
       no-op rebind, not a second store *)
    Hashtbl.add namespaces "default" store;
    let wake_r, wake_w = Unix.pipe () in
    Unix.set_nonblock wake_r;
    Unix.set_nonblock wake_w;
    let server =
      {
        store;
        schema;
        spec;
        config;
        auth;
        max_queue = Stdlib.max 1 max_queue;
        role;
        sock;
        stop = Atomic.make false;
        queue = Queue.create ();
        parked = Hashtbl.create 64;
        polling = false;
        qlock = Mutex.create ();
        qcond = Condition.create ();
        wake_r;
        wake_w;
        namespaces;
        ns_lock = Mutex.create ();
        subscribers = Hashtbl.create 16;
        sub_lock = Mutex.create ();
        connections = Atomic.make 0;
        requests = Atomic.make 0;
        failed = Atomic.make None;
      }
    in
    (* monitor events fan out to subscribed connections from the
       committing domain's publish phase *)
    (match Session.Store.monitors store with
     | Some _ ->
       (match
          Session.Store.on_monitor_events store (broadcast_events server)
        with
        | Ok () -> ()
        | Result.Error _ -> ())
     | None -> ());
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* the handler may run while its domain holds [qlock], so it takes
       no lock: the poller sees the flag and the first domain to leave
       its loop wakes the others *)
    let on_signal =
      Sys.Signal_handle (fun _ -> Atomic.set server.stop true; wake server)
    in
    Sys.set_signal Sys.sigint on_signal;
    Sys.set_signal Sys.sigterm on_signal;
    (* spawned serving domains record trace spans into their own
       domain-local collector; collect them with [Trace.isolated] and
       graft them into the main domain's trace after the join, the same
       dance {!Fdbs_kernel.Pool} does for its chunks *)
    let domains =
      List.init (workers - 1) (fun _ ->
          Stdlib.Domain.spawn (fun () ->
              snd (Trace.isolated (serving_loop server))))
    in
    let follower_domain =
      match (replica, follow) with
      | Some r, Some leader_listen ->
        let leader_addr = address leader_listen in
        let description = describe leader_listen in
        Some
          (Stdlib.Domain.spawn (fun () ->
               snd
                 (Trace.isolated (fun () ->
                      follow_loop server r leader_addr description))))
      | _ -> None
    in
    ready ();
    serving_loop server ();
    List.iter (fun d -> Trace.graft (Stdlib.Domain.join d)) domains;
    (match follower_domain with
     | Some d -> Trace.graft (Stdlib.Domain.join d)
     | None -> ());
    (* every serving domain has left its loop: close the connections
       still queued or parked, then the self-pipe *)
    Queue.iter (close_conn server) server.queue;
    Hashtbl.iter (fun _ conn -> close_conn server conn) server.parked;
    (* a commit whose client left before its reply is still made
       durable by a graceful stop *)
    if Atomic.get server.failed = None then
      Result.iter_error (fail server) (Journal.sync ());
    Unix.close wake_r;
    Unix.close wake_w;
    Unix.close sock;
    (match listen with
     | `Unix path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
     | `Tcp _ -> ());
    match Atomic.get server.failed with
    | Some e -> Result.Error e
    | None ->
      Ok
        {
          served_connections = Atomic.get server.connections;
          served_requests = Atomic.get server.requests;
        }
