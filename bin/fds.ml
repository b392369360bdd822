(* fds — the formal database specification toolkit.

   Subcommands:
     verify        full verification pipeline on the built-in university
                   design (paper Sections 4.4 and 5.4)
     verify-files  the same pipeline on a (theory, spec, schema) triple
                   of files bound by the canonical name correspondence
     check-spec    parse an algebraic specification file and check
                   sufficient completeness
     check-schema  parse an RPR schema file and check well-formedness
     grammar       check a schema file against the RPR W-grammar
     analyze       critical pairs / observability of a specification
     derive        structured descriptions -> conditional equations
     synthesize    structured descriptions -> RPR procedures
     eval          evaluate a ground query term (--trace shows the
                   rewriting derivation)
     run           execute a sequence of procedure calls against a schema
     serve         long-running daemon: sessions over a socket
     client        send protocol requests to a running server
     demo          a compact tour of the framework

   The execution subcommands (run, eval, explain, replay) are thin
   clients of Fdbs_service.Session — the same code path the serve
   daemon drives — so CLI and server behavior cannot drift. *)

open Cmdliner
open Fdbs_kernel
module Session = Fdbs_service.Session
module Protocol = Fdbs_service.Protocol
module Server = Fdbs_service.Server

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let exit_err fmt = Fmt.kstr (fun s -> Fmt.epr "fds: %s@." s; exit 1) fmt

(* --jobs/-j, shared by the verification subcommands; 0 means "use the
   machine's available parallelism". Also settable via FDBS_JOBS. *)
let jobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Spread the verification sweeps over N domains (0 = all \
               available cores). Defaults to \\$FDBS_JOBS or 1; the \
               results are identical for every N.")

let apply_jobs = function
  | None -> ()
  | Some 0 -> Pool.set_default_jobs (Pool.recommended_jobs ())
  | Some n -> Pool.set_default_jobs n

(* --trace[=FILE] / --stats, shared by the execution and verification
   subcommands. The trace file and the stats snapshot are emitted from
   an [at_exit] hook, so they appear even on the [exit 1] failure
   paths. *)
let trace_arg =
  Arg.(value & opt ~vopt:(Some "trace.json") (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record hierarchical spans of the run and write them as \
                 Chrome-trace-format JSON to FILE (default trace.json); open \
                 in chrome://tracing or Perfetto. With \
                 \\$FDBS_TRACE_VIRTUAL_TS set, timestamps are deterministic \
                 pre-order ranks, so traces of the same workload are \
                 byte-identical for every --jobs value.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print the process-wide metrics snapshot (counters and latency \
               histograms) to stderr when the subcommand finishes.")

let observe trace stats =
  if trace <> None || stats then
    at_exit (fun () ->
        (match trace with
         | None -> ()
         | Some file ->
           Trace.set_enabled false;
           let virtual_ts = Sys.getenv_opt "FDBS_TRACE_VIRTUAL_TS" <> None in
           let spans = Trace.write_chrome ~virtual_ts file in
           Fmt.epr "fds: wrote Chrome trace to %s (%d spans)@." file spans);
        if stats then
          Fmt.epr "@[<v>metrics:@,%a@]@." Metrics.pp_snapshot (Metrics.snapshot ()));
  if trace <> None then Trace.set_enabled true

(* ------------------------------------------------------------------ *)
(* the unified execution configuration                                 *)
(* ------------------------------------------------------------------ *)

(* Every knob that used to be plumbed per-subcommand, folded into one
   Fdbs_service.Config.t term shared by run, replay, serve, verify,
   verify-files and stats. *)

let check_constraints_arg =
  Arg.(value & flag & info [ "check-constraints" ]
         ~doc:"Check the schema's integrity constraints at commit time.")

let budget_steps_arg =
  Arg.(value & opt (some int) None & info [ "budget-steps" ] ~docv:"N"
         ~doc:"Step fuel: abort (and roll back) after N statement executions.")

let budget_states_arg =
  Arg.(value & opt (some int) None & info [ "budget-states" ] ~docv:"N"
         ~doc:"Distinct-state cap per request for fixpoint exploration.")

let budget_ms_arg =
  Arg.(value & opt (some int) None & info [ "budget-ms" ] ~docv:"MS"
         ~doc:"Wall-clock deadline in milliseconds for the transaction.")

let fault_arg =
  Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"SITE[:AFTER][:ACTION]"
         ~doc:"Inject a fault at a site (e.g. semantics.exec, txn.commit); \
               ACTION is abort (default), exhaust-steps, exhaust-states, \
               exhaust-time, or flip.")

let strategy_arg =
  let strategy_conv =
    Arg.enum [ ("auto", `Auto); ("naive", `Naive); ("compiled", `Compiled) ]
  in
  Arg.(value & opt strategy_conv `Auto & info [ "strategy" ] ~docv:"STRATEGY"
         ~doc:"Evaluation strategy for relational terms and wffs: \
               $(b,auto) runs compiled plans for safe bodies and falls back \
               to naive enumeration, $(b,compiled) requires every body to \
               compile (structured not-compilable error otherwise), \
               $(b,naive) always enumerates the carriers.")

let transactional_arg =
  Arg.(value & flag & info [ "transactional" ]
         ~doc:"Run all calls as one atomic transaction: commit everything \
               or roll back to the initial state with a structured error.")

let journal_arg =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
         ~doc:"Append committed transactions to this write-ahead journal.")

let fsync_arg =
  Arg.(value & flag & info [ "fsync" ]
         ~doc:"fsync the journal so a commit survives power loss, not just a \
               process crash: after each committed append, or in fds serve \
               once per served batch of commits (group commit), always \
               before the commit is acknowledged. Implied for a \
               replication leader (fds serve --journal).")

let rate_limit_arg =
  Arg.(value & opt (some float) None & info [ "rate-limit" ] ~docv:"RPS"
         ~doc:"Admission control: requests per second admitted per server \
               connection (token bucket); over-limit requests get a \
               structured overloaded error with a retry-after-ms hint \
               instead of stalling.")

let rate_burst_arg =
  Arg.(value & opt (some float) None & info [ "rate-burst" ] ~docv:"N"
         ~doc:"Burst capacity of the per-connection request bucket; the \
               default is one second's worth (the rate itself).")

let step_rate_arg =
  Arg.(value & opt (some float) None & info [ "step-rate" ] ~docv:"STEPS"
         ~doc:"Admission control: budget steps per second admitted per \
               store, post-charged with each request's actual spend — a \
               heavy request puts the bucket in debt and later requests \
               are rejected (overloaded, with retry-after-ms) until it \
               refills.")

let config_term =
  let combine jobs strategy steps states ms check_constraints transactional
      journal fsync trace stats rate_limit rate_burst step_rate =
    Config.make ?jobs ~strategy ?steps ?states ?ms ~check_constraints
      ~transactional ?journal ~fsync ?trace ~stats ?rate_limit ?rate_burst
      ?step_rate ()
  in
  Term.(const combine $ jobs_arg $ strategy_arg $ budget_steps_arg
        $ budget_states_arg $ budget_ms_arg $ check_constraints_arg
        $ transactional_arg $ journal_arg $ fsync_arg $ trace_arg $ stats_arg
        $ rate_limit_arg $ rate_burst_arg $ step_rate_arg)

(* Apply the process-level parts of a configuration: the pool width and
   the at_exit trace/stats observers. The session-level parts travel
   inside the record. *)
let setup (config : Config.t) =
  apply_jobs config.Config.jobs;
  observe config.Config.trace config.Config.stats

let open_session ?spec ~config path =
  match Session.open_text ?spec ~config (read_file path) with
  | Ok s -> s
  | Error e -> exit_err "%s" e.Error.message

let arm_faults specs =
  List.iter
    (fun spec ->
      match Fault.arm_spec spec with
      | Ok () -> ()
      | Error e -> exit_err "--fault %s: %s" spec e)
    specs

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let small =
    Arg.(value & flag & info [ "small" ] ~doc:"Use the 1-course/1-student domain.")
  in
  let depth =
    Arg.(value & opt int 2 & info [ "depth" ] ~docv:"N"
           ~doc:"Ground-probing and agreement sweep depth.")
  in
  let run small depth config =
    let open Fdbs in
    setup config;
    let domain = if small then University.small_domain else University.domain in
    Fmt.pr "verifying the university design (domain: %s, depth %d)...@."
      (if small then "1x1" else "2x2") depth;
    let v = Design.verify ~domain ~depth ~config University.design in
    Fmt.pr "%a@." Design.pp_verification v;
    if Design.verified v then Fmt.pr "VERIFIED@." else exit 1
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify the built-in university design end to end.")
    Term.(const run $ small $ depth $ config_term)

(* ------------------------------------------------------------------ *)
(* check-spec                                                          *)
(* ------------------------------------------------------------------ *)

let spec_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC-FILE")

let check_spec_cmd =
  let depth =
    Arg.(value & opt int 2 & info [ "depth" ] ~docv:"N" ~doc:"Ground-probing depth.")
  in
  let run path depth =
    match Fdbs_algebra.Aparser.spec (read_file path) with
    | Error e -> exit_err "%s" e
    | Ok spec ->
      Fmt.pr "%a@.@." Fdbs_algebra.Spec.pp spec;
      let report = Fdbs_algebra.Completeness.check ~depth spec in
      Fmt.pr "%a@." Fdbs_algebra.Completeness.pp_report report;
      if not (Fdbs_algebra.Completeness.is_complete report) then exit 1
  in
  Cmd.v
    (Cmd.info "check-spec"
       ~doc:"Parse an algebraic specification and check sufficient completeness.")
    Term.(const run $ spec_file $ depth)

(* ------------------------------------------------------------------ *)
(* check-schema / grammar                                              *)
(* ------------------------------------------------------------------ *)

let schema_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SCHEMA-FILE")

let check_schema_cmd =
  let run path =
    match Fdbs_rpr.Rparser.schema (read_file path) with
    | Error e -> exit_err "%s" e.Fdbs_kernel.Error.message
    | Ok schema ->
      Fmt.pr "%a@.@." Fdbs_rpr.Schema.pp schema;
      Fmt.pr "well-formed: every relation declared, every wff well-sorted.@."
  in
  Cmd.v
    (Cmd.info "check-schema"
       ~doc:"Parse an RPR schema and check context-sensitive well-formedness.")
    Term.(const run $ schema_file)

let grammar_cmd =
  let run path =
    let src = read_file path in
    match Fdbs_wgrammar.Rpr_grammar.check_source src with
    | Ok () -> Fmt.pr "generated by the RPR W-grammar: yes@."
    | Error e ->
      Fmt.pr "generated by the RPR W-grammar: NO (%s)@." e;
      exit 1
  in
  Cmd.v
    (Cmd.info "grammar"
       ~doc:"Check a schema text against the RPR W-grammar (Section 5.1.1).")
    Term.(const run $ schema_file)

(* ------------------------------------------------------------------ *)
(* eval                                                                *)
(* ------------------------------------------------------------------ *)

(* A session over a bare schema carrying just the algebraic level: eval
   is a pure T2 operation, but it rides the same Session path as the
   server's "eval" op. *)
let eval_session path =
  match Fdbs_algebra.Aparser.spec (read_file path) with
  | Error e -> exit_err "%s" e
  | Ok spec ->
    let schema =
      {
        Fdbs_rpr.Schema.name = spec.Fdbs_algebra.Spec.name;
        relations = [];
        consts = [];
        constraints = [];
        procs = [];
      }
    in
    (match Session.open_ ~spec ~schema () with
     | Ok s -> s
     | Error e -> exit_err "%s" e.Error.message)

let eval_cmd =
  let term_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TERM"
           ~doc:"Ground term, e.g. 'offered(cs101, offer(cs101, initiate))'.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print the rewriting derivation, innermost step first.")
  in
  let run path src trace =
    let session = eval_session path in
    match Session.eval session ~trace src with
    | Ok out -> print_string out
    | Error e -> exit_err "%s" e.Error.message
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Evaluate a ground query term against an algebraic specification.")
    Term.(const run $ spec_file $ term_arg $ trace)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let calls =
    Arg.(value & opt_all string [] & info [ "call"; "c" ] ~docv:"CALL"
           ~doc:"Procedure call, e.g. 'offer(cs101)'. Repeatable; applied in order.")
  in
  let pp_ok (name, args) =
    Fmt.pr "%s(%a) ok@." name Fmt.(list ~sep:(any ", ") Value.pp) args
  in
  let run path calls faults (config : Config.t) =
    setup config;
    let parsed =
      List.map
        (fun c ->
          match Protocol.parse_call c with
          | Ok x -> x
          | Error e -> exit_err "%s" e.Error.message)
        calls
    in
    let session = open_session ~config path in
    arm_faults faults;
    match Session.run session parsed with
    | Ok o ->
      if config.Config.transactional then
        Fmt.pr "committed %d calls@.@.final state:@.%a@."
          (List.length o.Session.completed) Fdbs_rpr.Db.pp o.Session.state
      else begin
        List.iter pp_ok o.Session.completed;
        Fmt.pr "@.final state:@.%a@." Fdbs_rpr.Db.pp o.Session.state
      end
    | Error f ->
      let e = f.Session.fail_error in
      (* errors from batch validation (unknown procedure, arity) keep
         the historical one-line form regardless of mode *)
      if List.mem_assoc "stage" e.Error.context then exit_err "%s" e.Error.message
      else if config.Config.transactional then begin
        Fmt.pr "transaction %a@.@.restored state:@.%a@." Fdbs_rpr.Txn.pp_rollback
          { Fdbs_rpr.Txn.error = e; restored = f.Session.fail_state }
          Fdbs_rpr.Db.pp f.Session.fail_state;
        exit 1
      end
      else begin
        List.iter pp_ok f.Session.fail_completed;
        match List.assoc_opt "call" e.Error.context with
        | Some name -> exit_err "%s: %s" name e.Error.message
        | None ->
          Fmt.epr "fds: %s@." e.Error.message;
          exit 2
      end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a sequence of procedure calls against a schema.")
    Term.(const run $ schema_file $ calls $ fault_arg $ config_term)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let delta_arg =
    Arg.(
      value & flag
      & info [ "delta" ]
          ~doc:
            "Also show each constraint's derivative plan: the per-relation \
             insert-derivatives the differential layer feeds commit deltas \
             through, and where it must fall back to full re-evaluation.")
  in
  let run path delta =
    let session = open_session ~config:Config.default path in
    print_string (Session.explain ~delta session)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the query plans of a schema: every constraint wff and every \
          (desugared) relational term, as compiled and as optimized, with the \
          live cardinality estimates the join order draws on.")
    Term.(const run $ schema_file $ delta_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let journal =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"JOURNAL-FILE")
  in
  let run path journal (config : Config.t) =
    setup config;
    (* the journal positional is the input; never re-journal the replay *)
    let config = { config with Config.journal = None } in
    let session = open_session ~config path in
    match Session.replay session journal with
    | Ok r ->
      (match r.Session.rep_torn with
       | Some what -> Fmt.epr "fds: warning: journal %s: %s@." journal what
       | None -> ());
      (match r.Session.rep_snapshot with
       | Some off -> Fmt.pr "installed snapshot (offset %d)@." off
       | None -> ());
      Fmt.pr "replayed %d transactions (%d calls)@.@.final state:@.%a@."
        r.Session.rep_entries r.Session.rep_calls Fdbs_rpr.Db.pp
        r.Session.rep_state
    | Error e ->
      (match List.assoc_opt "stage" e.Error.context with
       | Some "load" ->
         let e =
           { e with
             Error.context =
               List.filter (fun (k, _) -> k <> "stage") e.Error.context }
         in
         exit_err "%s" (Fdbs_kernel.Error.to_string e)
       | Some _ -> exit_err "%s" e.Error.message
       | None ->
         Fmt.epr "fds: replay failed: %s@." (Fdbs_kernel.Error.to_string e);
         exit 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Recover the committed state by replaying a write-ahead journal \
             against a schema.")
    Term.(const run $ schema_file $ journal $ config_term)

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path (default fds.sock).")

let tcp_arg =
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Listen on (or connect to) a TCP endpoint instead of a \
               Unix-domain socket; HOST must be an IP literal.")

let listen_of socket tcp : Server.listen =
  match tcp with
  | None -> `Unix (Option.value ~default:"fds.sock" socket)
  | Some hp ->
    (match String.rindex_opt hp ':' with
     | None -> exit_err "--tcp expects HOST:PORT, got %S" hp
     | Some i ->
       let host = String.sub hp 0 i in
       let port = String.sub hp (i + 1) (String.length hp - i - 1) in
       (match int_of_string_opt port with
        | Some p when String.length host > 0 -> `Tcp (host, p)
        | _ -> exit_err "--tcp expects HOST:PORT, got %S" hp))

(* A replication peer address: HOST:PORT when the suffix parses as a
   port on a non-empty host, a Unix-domain socket path otherwise. *)
let peer_of (addr : string) : Server.listen =
  match String.rindex_opt addr ':' with
  | None -> `Unix addr
  | Some i ->
    let host = String.sub addr 0 i in
    let port = String.sub addr (i + 1) (String.length addr - i - 1) in
    (match int_of_string_opt port with
     | Some p when String.length host > 0 -> `Tcp (host, p)
     | _ -> `Unix addr)

let serve_cmd =
  let workers =
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
           ~doc:"Most domains serving connections concurrently, the main \
                 one included. The server keeps at most one live domain \
                 per core with one core spare: a $(b,--follow) stream \
                 takes one more, the serving domains the rest, at least \
                 1; 0 (the default) means that cap, and a larger N is \
                 capped with a note on stderr. Below 3 cores this leaves \
                 one domain that accepts, polls and serves, so one long \
                 request delays the other ready connections.")
  in
  let spec_opt =
    Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"SPEC-FILE"
           ~doc:"Attach an algebraic specification so clients can use the \
                 'eval' operation.")
  in
  let follow_arg =
    Arg.(value & opt (some string) None & info [ "follow" ] ~docv:"ADDR"
           ~doc:"Run as a read-only replication follower of the leader at \
                 ADDR (a Unix socket path or HOST:PORT): stream its \
                 committed transactions, apply them locally, reject writes. \
                 Requires --journal (the replica's own journal).")
  in
  let snapshot_every_arg =
    Arg.(value & opt int 64 & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Follower snapshot/truncation period in applied entries: \
                 bounds crash recovery to at most N replayed entries.")
  in
  let auth_arg =
    Arg.(value & opt (some string) None & info [ "auth-token" ] ~docv:"TOKEN"
           ~doc:"Require this token on 'attach' requests; without it \
                 attaching to a namespace is unauthenticated.")
  in
  let max_queue_arg =
    Arg.(value & opt int 1024 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Shed accepted connections once N ready connections \
                 already await service: the shed connection gets one \
                 structured overloaded frame and is closed, never parked.")
  in
  let monitors_arg =
    Arg.(value & opt (some file) None & info [ "monitors" ] ~docv:"THEORY-FILE"
           ~doc:"Attach streaming temporal monitors compiled from this theory \
                 file: every commit advances them, violations become event \
                 frames on subscribed connections (see the 'subscribe' op) \
                 and monitor.* metrics. Attached after recovery, so a \
                 replayed journal does not re-fire events.")
  in
  let enforce_arg =
    Arg.(value & flag & info [ "enforce-monitors" ]
           ~doc:"Roll back commits that violate a monitored axiom (structured \
                 monitor-violation error) instead of only reporting them. \
                 Followers always observe: they cannot reject entries the \
                 leader already committed.")
  in
  let run path socket tcp workers spec_path follow snapshot_every auth
      max_queue monitors_path enforce faults (config : Config.t) =
    setup config;
    let listen = listen_of socket tcp in
    let follow = Option.map peer_of follow in
    let spec =
      Option.map
        (fun p ->
          match Fdbs_algebra.Aparser.spec (read_file p) with
          | Ok s -> s
          | Error e -> exit_err "%s: %s" p e)
        spec_path
    in
    let schema =
      match Fdbs_rpr.Rparser.schema (read_file path) with
      | Ok s -> s
      | Error e -> exit_err "%s" e.Fdbs_kernel.Error.message
    in
    let monitors =
      Option.map
        (fun p ->
          match Fdbs_rpr.Monitor.of_file ~schema p with
          | Ok m ->
            List.iter
              (fun (axiom, why) ->
                Fmt.epr "fds: warning: monitor %s skipped: %s@." axiom why)
              (Fdbs_rpr.Monitor.skipped m);
            (m, if enforce then `Enforce else `Observe)
          | Error e -> exit_err "%s: %s" p (Fdbs_kernel.Error.to_string e))
        monitors_path
    in
    arm_faults faults;
    let ready () =
      match follow with
      | Some leader ->
        Fmt.epr "fds: serving %s on %s (following %s)@."
          schema.Fdbs_rpr.Schema.name (Server.describe listen)
          (Server.describe leader)
      | None ->
        Fmt.epr "fds: serving %s on %s@." schema.Fdbs_rpr.Schema.name
          (Server.describe listen)
    in
    match
      Server.serve ~workers ?spec ~config ~ready ?follow ~snapshot_every
        ?auth ~max_queue ?monitors listen schema
    with
    | Ok st ->
      Fmt.epr "fds: server stopped (%d connections, %d requests)@."
        st.Server.served_connections st.Server.served_requests
    | Error e -> exit_err "%s" (Fdbs_kernel.Error.to_string e)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a schema over a socket: one warm session per connection, \
          length-prefixed JSON frames (see the protocol reference in the \
          README). With --journal the server is a replication leader \
          (fsynced journal, serves the 'fetch' op); with --follow it is a \
          read-only follower of a leader. A leader fsyncs its journal once \
          per served batch of commits and acknowledges each commit only \
          after the fsync that covers it; a failed fsync stops the server \
          with an error. A 'shutdown' request, SIGINT or SIGTERM stops the \
          server gracefully: every acknowledged commit is already durable, \
          the trace observer fires on exit.")
    Term.(const run $ schema_file $ socket_arg $ tcp_arg $ workers $ spec_opt
          $ follow_arg $ snapshot_every_arg $ auth_arg $ max_queue_arg
          $ monitors_arg $ enforce_arg $ fault_arg $ config_term)

let client_cmd =
  let requests =
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST"
           ~doc:"JSON request objects, e.g. '{\"id\": 1, \"op\": \"ping\"}'. \
                 With no positional requests, one request per stdin line.")
  in
  let retries_arg =
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry a transient connection failure (connection refused or \
                 reset, missing socket, or a close before the first \
                 response) up to N times with capped exponential backoff \
                 plus jitter — de-flakes scripts racing a server boot.")
  in
  let pool_arg =
    Arg.(value & opt int 1 & info [ "pool" ] ~docv:"N"
           ~doc:"Open N persistent connections and spread the requests over \
                 them round-robin, reusing each connection across requests.")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "requests" ] ~docv:"N"
           ~doc:"Send the request script N times over (combine with --pool \
                 for a quick load drive).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ]
           ~doc:"Suppress per-response output; print only a final response \
                 count.")
  in
  let run socket tcp retries pool repeat quiet requests =
    let addr =
      match listen_of socket tcp with
      | `Unix path -> Unix.ADDR_UNIX path
      | `Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
    in
    Random.self_init ();
    let backoff attempt =
      (* 0.1s * 2^attempt, capped at 1s, with +/-25% jitter so racing
         clients don't reconnect in lockstep *)
      let base = Stdlib.min 1.0 (0.1 *. (2. ** float_of_int attempt)) in
      Unix.sleepf (base *. (0.75 +. Random.float 0.5))
    in
    let transient = function
      | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT
      | Unix.ENETUNREACH | Unix.EPIPE -> true
      | _ -> false
    in
    let rec connect attempt =
      let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      match Unix.connect sock addr with
      | () -> sock
      | exception Unix.Unix_error (err, _, _) ->
        Unix.close sock;
        if attempt < retries && transient err then (
          backoff attempt;
          connect (attempt + 1))
        else exit_err "cannot connect: %s" (Unix.error_message err)
    in
    let responded = ref 0 in
    (* A close before any response usually means the server died (or was
       killed) between accept and reply: for positional requests nothing
       was consumed yet, so the whole batch can retry on a fresh
       connection. Once a response has printed, or in stdin mode (lines
       already consumed), a close is fatal. *)
    let rec session attempt =
      let sock = connect attempt in
      let r = Protocol.Reader.create sock in
      let oc = Unix.out_channel_of_descr sock in
      let exchange req =
        Protocol.write_frame oc req;
        match Protocol.Reader.next r ~block:true with
        | `Frame resp ->
          print_endline resp;
          incr responded
        | `Eof | `Pending -> raise End_of_file
      in
      let rec stdin_loop () =
        (* catch only stdin's own end: a close from the server side
           (exchange) must propagate *)
        match input_line stdin with
        | exception End_of_file -> ()
        | line ->
          let line = String.trim line in
          if line <> "" then exchange line;
          stdin_loop ()
      in
      match
        match requests with
        | [] -> stdin_loop ()
        | reqs -> List.iter exchange reqs
      with
      | () -> close_out_noerr oc
      | exception (End_of_file | Sys_error _ | Error.Error _)
        when !responded = 0 && requests <> [] && attempt < retries ->
        close_out_noerr oc;
        backoff attempt;
        session (attempt + 1)
      | exception (End_of_file | Sys_error _) ->
        close_out_noerr oc;
        exit_err "server closed the connection"
    in
    if pool <= 1 && repeat <= 1 && not quiet then session 0
    else begin
      (* pooled mode: read the whole script up front, repeat it
         --requests times, and spread it round-robin over --pool
         persistent connections — each reused across its share of the
         script rather than reopened per request *)
      let script =
        match requests with
        | [] ->
          let rec go acc =
            match input_line stdin with
            | exception End_of_file -> List.rev acc
            | line ->
              let line = String.trim line in
              go (if line = "" then acc else line :: acc)
          in
          go []
        | reqs -> reqs
      in
      let script =
        List.concat (List.init (Stdlib.max 1 repeat) (fun _ -> script))
      in
      let pool = Stdlib.max 1 pool in
      let conns =
        Array.init pool (fun _ ->
            let sock = connect 0 in
            (Protocol.Reader.create sock, Unix.out_channel_of_descr sock))
      in
      let count = ref 0 in
      List.iteri
        (fun i req ->
          let r, oc = conns.(i mod pool) in
          match
            Protocol.write_frame oc req;
            Protocol.Reader.next r ~block:true
          with
          | `Frame resp ->
            incr count;
            if not quiet then print_endline resp
          | `Eof | `Pending -> exit_err "server closed the connection"
          | exception (End_of_file | Sys_error _) ->
            exit_err "server closed the connection"
          | exception Error.Error e -> exit_err "%s" (Error.to_string e))
        script;
      Array.iter (fun (_, oc) -> close_out_noerr oc) conns;
      if quiet then Fmt.pr "%d responses@." !count
    end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send protocol requests to a running fds server and print one \
             JSON response per line. Transient connection failures retry \
             with backoff (see --retries); --pool N reuses N persistent \
             connections round-robin and --requests N repeats the script.")
    Term.(const run $ socket_arg $ tcp_arg $ retries_arg $ pool_arg
          $ repeat_arg $ quiet_arg $ requests)

(* ------------------------------------------------------------------ *)
(* monitor                                                             *)
(* ------------------------------------------------------------------ *)

let kind_name = function
  | Fdbs_temporal.Tformula.Static -> "static"
  | Fdbs_temporal.Tformula.Transition -> "transition"

let monitor_cmd =
  let schema_pos =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"SCHEMA-FILE")
  in
  let theory_pos =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"THEORY-FILE")
  in
  let subscribe_arg =
    Arg.(value & flag & info [ "subscribe" ]
           ~doc:"Connect to a running server (--socket/--tcp), negotiate \
                 protocol v2, subscribe, and print each event frame as one \
                 JSON line; requires the server to run with --monitors.")
  in
  let events_arg =
    Arg.(value & opt int 0 & info [ "events" ] ~docv:"N"
           ~doc:"With --subscribe: exit after N violation events (0 = stream \
                 until the server closes the connection).")
  in
  let run schema_path theory_path subscribe socket tcp events
      (config : Config.t) =
    setup config;
    if subscribe then begin
      (* live mode: raw protocol client over the typed frame helpers *)
      let addr =
        match listen_of socket tcp with
        | `Unix path -> Unix.ADDR_UNIX path
        | `Tcp (host, port) ->
          Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
      in
      let rec connect attempt =
        let sock =
          Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
        in
        match Unix.connect sock addr with
        | () -> sock
        | exception Unix.Unix_error (err, _, _) ->
          Unix.close sock;
          (match err with
           | (Unix.ECONNREFUSED | Unix.ENOENT) when attempt < 50 ->
             Unix.sleepf 0.1;
             connect (attempt + 1)
           | _ -> exit_err "cannot connect: %s" (Unix.error_message err))
      in
      let sock = connect 0 in
      let r = Protocol.Reader.create sock in
      let oc = Unix.out_channel_of_descr sock in
      let exchange req =
        Protocol.write_frame oc (Json.to_string req);
        match Protocol.Reader.next r ~block:true with
        | `Eof | `Pending -> exit_err "server closed the connection"
        | `Frame payload ->
          (match Json.parse payload with
           | exception Json.Parse_error m -> exit_err "bad reply: %s" m
           | v -> v)
      in
      (* hello first: an old server answers "unknown operation" and a
         monitor-less one omits the feature, both reported cleanly *)
      let hello =
        exchange
          (Json.Obj
             [
               ("id", Json.Num 0.);
               ("op", Json.Str "hello");
               ("version", Json.Num 2.);
             ])
      in
      let features =
        match
          Option.bind (Json.field "result" hello) (Json.field "features")
        with
        | Some (Json.Arr items) -> List.filter_map Json.to_string_opt items
        | _ -> []
      in
      if Option.bind (Json.field "ok" hello) Json.to_bool_opt <> Some true then
        exit_err "server does not speak protocol v2 (no hello)"
      else if not (List.mem "monitors" features) then
        exit_err "server has no monitors attached (fds serve --monitors)";
      let sub =
        exchange (Json.Obj [ ("id", Json.Num 1.); ("op", Json.Str "subscribe") ])
      in
      (match Option.bind (Json.field "ok" sub) Json.to_bool_opt with
       | Some true -> ()
       | _ -> exit_err "subscribe rejected: %s" (Json.to_string sub));
      (* the reply is followed by event frames only: a heartbeat first,
         then one violation frame per fired monitor *)
      let rec stream seen =
        if events > 0 && seen >= events then ()
        else
          match Protocol.Reader.next r ~block:true with
          | `Eof | `Pending -> ()
          | `Frame payload ->
            print_endline payload;
            flush stdout;
            let seen =
              match Json.parse payload with
              | exception Json.Parse_error _ -> seen
              | v ->
                (match Protocol.classify_frame v with
                 | `Event "violation" -> seen + 1
                 | _ -> seen)
            in
            stream seen
      in
      stream 0;
      close_out_noerr oc
    end
    else begin
      let require what = function
        | Some p -> p
        | None ->
          exit_err "monitor needs %s (or --subscribe for the live mode)" what
      in
      let schema_path = require "a SCHEMA-FILE" schema_path in
      let theory_path = require "a THEORY-FILE" theory_path in
      let schema =
        match Fdbs_rpr.Rparser.schema (read_file schema_path) with
        | Ok s -> s
        | Error e -> exit_err "%s" e.Error.message
      in
      let m =
        match Fdbs_rpr.Monitor.of_file ~schema theory_path with
        | Ok m -> m
        | Error e -> exit_err "%s" (Error.to_string e)
      in
      Fmt.pr "theory %s against schema %s:@." (Fdbs_rpr.Monitor.name m)
        schema.Fdbs_rpr.Schema.name;
      List.iter
        (fun (c : Fdbs_rpr.Monitor.compiled) ->
          Fmt.pr "  %s: %s, depth %d%s@." c.Fdbs_rpr.Monitor.m_name
            (kind_name c.Fdbs_rpr.Monitor.m_kind) c.Fdbs_rpr.Monitor.m_depth
            (if c.Fdbs_rpr.Monitor.m_compiled then "" else " (naive)"))
        (Fdbs_rpr.Monitor.monitors m);
      List.iter
        (fun (axiom, why) -> Fmt.pr "  %s: skipped (%s)@." axiom why)
        (Fdbs_rpr.Monitor.skipped m);
      match config.Config.journal with
      | None -> ()
      | Some journal ->
        (* replay the journal through the session machinery with the
           monitors attached and observing: every violation in the
           history is reported, the replay itself always completes *)
        let config =
          { config with Config.journal = None; Config.transactional = true }
        in
        let session =
          match Session.open_ ~config ~schema () with
          | Ok s -> s
          | Error e -> exit_err "%s" e.Error.message
        in
        Session.Store.attach_monitors (Session.store session) m;
        (match
           Session.subscribe session (fun events ->
               List.iter
                 (fun ev -> Fmt.pr "%a@." Fdbs_rpr.Monitor.pp_event ev)
                 events)
         with
         | Ok () -> ()
         | Error e -> exit_err "%s" (Error.to_string e));
        (match Fdbs_rpr.Journal.load journal with
         | Error e -> exit_err "%s" (Error.to_string e)
         | Ok (entries, torn) ->
           (match torn with
            | Some what -> Fmt.epr "fds: warning: journal %s: %s@." journal what
            | None -> ());
           List.iteri
             (fun i (entry : Fdbs_rpr.Journal.entry) ->
               match Session.run session entry.Fdbs_rpr.Journal.calls with
               | Ok _ -> ()
               | Error f ->
                 exit_err "entry %d: %s" (i + 1)
                   (Error.to_string f.Session.fail_error))
             entries;
           (match Session.monitor session with
            | Ok st ->
              Fmt.pr "replayed %d entries: %d violations@." (List.length entries)
                st.Session.mon_violations
            | Error e -> exit_err "%s" (Error.to_string e)))
    end
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Streaming temporal monitors. Offline: compile a theory's axioms \
          against a schema, report which are monitorable (and why the rest \
          are skipped), and — with --journal — replay a write-ahead journal \
          through them, printing every violation. With --subscribe: connect \
          to a running 'fds serve --monitors' server and stream its \
          violation/heartbeat event frames.")
    Term.(const run $ schema_pos $ theory_pos $ subscribe_arg $ socket_arg
          $ tcp_arg $ events_arg $ config_term)

(* ------------------------------------------------------------------ *)
(* verify-files                                                        *)
(* ------------------------------------------------------------------ *)

let verify_files_cmd =
  let theory_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"THEORY-FILE")
  in
  let spec_pos =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"SPEC-FILE")
  in
  let schema_pos =
    Arg.(required & pos 2 (some file) None & info [] ~docv:"SCHEMA-FILE")
  in
  let depth =
    Arg.(value & opt int 2 & info [ "depth" ] ~docv:"N"
           ~doc:"Ground-probing and agreement sweep depth.")
  in
  let run theory_path spec_path schema_path depth config =
    setup config;
    let info =
      match Fdbs_temporal.Tparser.theory (read_file theory_path) with
      | Ok t -> t
      | Error e -> exit_err "%s: %s" theory_path e
    in
    let functions =
      match Fdbs_algebra.Aparser.spec (read_file spec_path) with
      | Ok s -> s
      | Error e -> exit_err "%s: %s" spec_path e
    in
    let representation =
      match Fdbs_rpr.Rparser.schema (read_file schema_path) with
      | Ok s -> s
      | Error e -> exit_err "%s: %s" schema_path e.Fdbs_kernel.Error.message
    in
    let design =
      match
        Fdbs.Design.canonical ~name:info.Fdbs_temporal.Ttheory.name ~info ~functions
          ~representation
      with
      | Ok d -> d
      | Error e -> exit_err "%s" e.Fdbs_kernel.Error.message
    in
    Fmt.pr "verifying design %s (domain: the spec's parameter names, depth %d)...@."
      info.Fdbs_temporal.Ttheory.name depth;
    let v = Fdbs.Design.verify ~depth ~config design in
    Fmt.pr "%a@." Fdbs.Design.pp_verification v;
    if Fdbs.Design.verified v then Fmt.pr "VERIFIED@." else exit 1
  in
  Cmd.v
    (Cmd.info "verify-files"
       ~doc:
         "Verify a three-level design given as files (theory, algebraic \
          specification, schema) bound by the canonical name correspondence.")
    Term.(const run $ theory_file $ spec_pos $ schema_pos $ depth $ config_term)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let depth =
    Arg.(value & opt int 2 & info [ "depth" ] ~docv:"N"
           ~doc:"Ground instance depth for joinability.")
  in
  let run path depth =
    match Fdbs_algebra.Aparser.spec (read_file path) with
    | Error e -> exit_err "%s" e
    | Ok spec ->
      let open Fdbs_algebra in
      Fmt.pr "== sufficient completeness ==@.";
      Fmt.pr "%a@.@." Completeness.pp_report (Completeness.check ~depth spec);
      Fmt.pr "== critical pairs / confluence ==@.";
      (match Confluence.check ~depth spec with
       | Error e -> exit_err "%a" Eval.pp_error e
       | Ok report ->
         Fmt.pr "%a@.@." Confluence.pp_report report;
         Fmt.pr "== observability ==@.";
         (match Reach.explore spec with
          | Error e -> exit_err "%a" Eval.pp_error e
          | Ok g ->
            Fmt.pr "reachable quotient: %a@." Reach.pp_stats g;
            Fmt.pr "full query set identifies every state: %b@."
              (Observability.observable g);
            Fmt.pr "%a@." Observability.pp_ablation (Observability.ablation spec g)))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analyses of an algebraic specification: completeness, \
          critical pairs, observability ablation.")
    Term.(const run $ spec_file $ depth)

(* ------------------------------------------------------------------ *)
(* derive / synthesize                                                 *)
(* ------------------------------------------------------------------ *)

let parse_with_descriptions path =
  match Fdbs_algebra.Aparser.spec_with_descriptions (read_file path) with
  | Error e -> exit_err "%s" e
  | Ok (spec, []) ->
    ignore spec;
    exit_err "%s contains no 'describe' blocks" path
  | Ok (spec, descriptions) -> (spec, descriptions)

let derive_cmd =
  let run path =
    let spec, descriptions = parse_with_descriptions path in
    let sg = spec.Fdbs_algebra.Spec.signature in
    match Fdbs_algebra.Derive.equations sg descriptions with
    | Error e -> exit_err "%s" e
    | Ok eqs ->
      Fmt.pr "# equations derived from the structured descriptions (Sec 4.2)@.";
      List.iter (fun eq -> Fmt.pr "%a@." Fdbs_algebra.Equation.pp eq) eqs
  in
  Cmd.v
    (Cmd.info "derive"
       ~doc:
         "Derive conditional equations from a specification's structured \
          descriptions (the paper's constructive method, Section 4.2).")
    Term.(const run $ spec_file)

let synthesize_cmd =
  let run path =
    let spec, descriptions = parse_with_descriptions path in
    let sg = spec.Fdbs_algebra.Spec.signature in
    match
      Fdbs_refine.Synthesize.schema ~name:spec.Fdbs_algebra.Spec.name sg descriptions
    with
    | Error e -> exit_err "%s" e.Fdbs_kernel.Error.message
    | Ok schema -> Fmt.pr "%a@." Fdbs_rpr.Schema.pp schema
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:
         "Synthesize representation-level procedures from structured \
          descriptions (the paper's constructive pattern, Section 5.2).")
    Term.(const run $ spec_file)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let depth =
    Arg.(value & opt int 1 & info [ "depth" ] ~docv:"N"
           ~doc:"Ground-probing and agreement sweep depth of the workload.")
  in
  let run depth config =
    let open Fdbs in
    setup config;
    let v =
      Design.verify ~domain:University.small_domain ~depth ~config
        University.design
    in
    ignore (Design.verified v);
    Fmt.pr "%a@." Metrics.pp_snapshot (Metrics.snapshot ())
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the built-in university verification (small domain) and print \
          the metrics snapshot it produces: every process-wide counter and \
          latency histogram of the toolkit, by name. Use --stats on the \
          other subcommands to snapshot their own workloads.")
    Term.(const run $ depth $ config_term)

(* ------------------------------------------------------------------ *)
(* demo                                                                *)
(* ------------------------------------------------------------------ *)

let demo_cmd =
  let run () =
    let open Fdbs in
    Fmt.pr "fdbs: formal database specification, an eclectic perspective@.";
    Fmt.pr "(Casanova, Veloso & Furtado, PODS 1984)@.@.";
    Fmt.pr "The university example, three levels:@.@.";
    Fmt.pr "T1 (temporal): %s@." University.static_axiom_src;
    Fmt.pr "               %s@.@." University.transition_axiom_src;
    Fmt.pr "T2 (algebraic): %d conditional equations@."
      (List.length University.functions.Fdbs_algebra.Spec.equations);
    Fmt.pr "T3 (RPR): %d relations, %d procedures@.@."
      (List.length University.representation.Fdbs_rpr.Schema.relations)
      (List.length University.representation.Fdbs_rpr.Schema.procs);
    let v = Design.verify ~domain:University.small_domain ~depth:2 University.design in
    Fmt.pr "%a@.@." Design.pp_verification v;
    Fmt.pr "Run 'fds verify' for the full 2x2 check, or the examples:@.";
    Fmt.pr "  dune exec examples/quickstart.exe@.";
    Fmt.pr "  dune exec examples/library_loans.exe@.";
    Fmt.pr "  dune exec examples/banking.exe@."
  in
  Cmd.v (Cmd.info "demo" ~doc:"A compact tour of the framework.") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "fds" ~version:"1.0.0"
      ~doc:"Formal database specification at three bound levels (PODS 1984)."
  in
  (* Top-level robustness: any exception that escapes a subcommand —
     unreadable files, execution errors, parse failures on paths that
     bypass argument validation — exits 2 with a one-line message
     instead of an OCaml backtrace. *)
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [ verify_cmd; verify_files_cmd; check_spec_cmd; check_schema_cmd;
             grammar_cmd; analyze_cmd; derive_cmd; synthesize_cmd; eval_cmd;
             explain_cmd; run_cmd; replay_cmd; serve_cmd; client_cmd;
             monitor_cmd; stats_cmd; demo_cmd ])
    with
    | Sys_error msg -> Fmt.epr "fds: %s@." msg; 2
    | Fdbs_rpr.Semantics.Exec_error msg -> Fmt.epr "fds: execution error: %s@." msg; 2
    | Error.Error e -> Fmt.epr "fds: %s@." (Error.to_string e); 2
    | Budget.Exhausted r ->
      Fmt.epr "fds: budget exhausted (%s)@." (Budget.resource_name r); 2
    | Fault.Injected site -> Fmt.epr "fds: fault injected at %s@." site; 2
    | Parse.Error (msg, _) -> Fmt.epr "fds: parse error: %s@." msg; 2
    | Invalid_argument msg | Failure msg -> Fmt.epr "fds: %s@." msg; 2
  in
  exit code
