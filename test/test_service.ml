(* Tests for the session-based service layer: warm planner caches
   shared across session calls, transaction isolation between sessions
   over one store, serializable concurrent commits (two client domains
   against one store, checked against both serial reference orders),
   structured budget errors that leave the store alive, and the wire
   protocol's framing and dispatch. *)

open Fdbs_kernel
open Fdbs_rpr
module Session = Fdbs_service.Session
module Protocol = Fdbs_service.Protocol
module Server = Fdbs_service.Server

let v s = Value.Sym s

let guarded_src =
  {|
schema guarded

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc enroll_unchecked(s: student, c: course) = insert TAKES(s, c)

end-schema
|}

let schema = Rparser.schema_exn guarded_src
let db = Alcotest.testable Db.pp Db.equal

let session_exn ?config () =
  match Session.open_ ?config ~schema () with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_ failed: %s" (Error.to_string e)

let run_exn s calls =
  match Session.run s calls with
  | Ok o -> o.Session.state
  | Error f -> Alcotest.failf "run failed: %s" (Error.to_string f.Session.fail_error)

(* --- planner cache stays warm across session calls --- *)

let test_planner_cache_warm () =
  let s = session_exn () in
  (* creation compiled every constraint and assignment already *)
  let h0, m0 = Planner.stats () in
  ignore (run_exn s [ ("initiate", []); ("offer", [ v "cs101" ]) ]);
  let h1, m1 = Planner.stats () in
  Alcotest.(check bool) "first batch hits the warm cache" true (h1 > h0);
  Alcotest.(check int) "no new plans compiled" m0 m1;
  (* a later batch re-evaluating the same assignments hits again;
     plain inserts never consult the planner, so route through initiate *)
  ignore (run_exn s [ ("initiate", []); ("offer", [ v "cs102" ]) ]);
  let h2, m2 = Planner.stats () in
  Alcotest.(check bool) "hits keep rising across calls" true (h2 > h1);
  Alcotest.(check int) "still no new plans" m1 m2

(* --- transaction isolation between sessions over one store --- *)

let test_txn_isolation () =
  let a = session_exn () in
  let b = Session.on_store (Session.store a) in
  (match Session.begin_txn a with
   | Ok () -> ()
   | Error e -> Alcotest.failf "begin: %s" (Error.to_string e));
  (match Session.run a [ ("offer", [ v "cs101" ]) ] with
   | Ok _ -> ()
   | Error f -> Alcotest.failf "txn run: %s" (Error.to_string f.Session.fail_error));
  let offered st = Relation.cardinal (Db.relation_exn st "OFFERED") in
  Alcotest.(check int) "A sees its uncommitted insert" 1 (offered (Session.db a));
  Alcotest.(check int) "B does not" 0 (offered (Session.db b));
  Alcotest.(check bool) "A is in a transaction" true (Session.in_txn a);
  (match Session.commit a with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "commit: %s" (Error.to_string e));
  Alcotest.(check int) "commit publishes to B" 1 (offered (Session.db b));
  (* a rolled-back transaction leaves no trace *)
  ignore (Session.begin_txn b);
  ignore (Session.run b [ ("offer", [ v "cs102" ]) ]);
  (match Session.rollback b with
   | Ok st -> Alcotest.(check int) "rollback restores the store" 1 (offered st)
   | Error e -> Alcotest.failf "rollback: %s" (Error.to_string e))

(* --- serializable concurrent commits (QCheck) --- *)

let call_gen =
  QCheck.Gen.(
    oneof
      [
        return ("initiate", []);
        map (fun c -> ("offer", [ v c ])) (oneofl [ "cs101"; "cs102" ]);
        map2
          (fun s c -> ("enroll_unchecked", [ v s; v c ]))
          (oneofl [ "ana"; "bob" ])
          (oneofl [ "cs101"; "cs102" ]);
      ])

let batch_gen = QCheck.Gen.(list_size (int_range 1 4) call_gen)

let pp_batch ppf calls =
  Fmt.(list ~sep:(any "; ") Journal.pp_call) ppf calls

let arbitrary_batches =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "A=[%a] B=[%a]" pp_batch a pp_batch b)
    QCheck.Gen.(pair batch_gen batch_gen)

(* The reference model: apply the batch as one constraint-checked
   transaction; a rollback is the identity. *)
let serial_apply st batch =
  let domain =
    Domain.of_list
      [
        ("course", [ v "cs101"; v "cs102" ]);
        ("student", [ v "ana"; v "bob" ]);
      ]
  in
  let env = Semantics.env ~domain schema in
  let txn = Txn.make ~check_constraints:true env in
  match Txn.run txn batch st with Ok st' -> st' | Error rb -> rb.Txn.restored

let concurrent_commits_serializable =
  QCheck.Test.make ~name:"concurrent commits are serializable" ~count:25
    arbitrary_batches (fun (batch_a, batch_b) ->
      let config = Config.make ~check_constraints:true () in
      let a = session_exn ~config () in
      let b = Session.on_store (Session.store a) in
      let client s batch () =
        ignore (Session.begin_txn s);
        ignore (Session.run s batch);
        ignore (Session.commit s)
      in
      let da = Stdlib.Domain.spawn (client a batch_a) in
      let db_ = Stdlib.Domain.spawn (client b batch_b) in
      Stdlib.Domain.join da;
      Stdlib.Domain.join db_;
      let final = Session.db a in
      let empty = Schema.empty_db schema in
      let ab = serial_apply (serial_apply empty batch_a) batch_b in
      let ba = serial_apply (serial_apply empty batch_b) batch_a in
      Db.equal final ab || Db.equal final ba)

(* --- budget exhaustion is a structured error, not a crash --- *)

let test_budget_error () =
  let config = Config.make ~steps:1 () in
  let s = session_exn ~config () in
  (match Session.run s [ ("initiate", []); ("offer", [ v "cs101" ]) ] with
   | Ok _ -> Alcotest.fail "expected budget exhaustion"
   | Error f ->
     Alcotest.(check string)
       "structured budget code" "budget-steps"
       (Error.code_name f.Session.fail_error.Error.code));
  (* the store survives: state intact, the session keeps answering *)
  Alcotest.check db "state rolled to last good prefix" (Schema.empty_db schema)
    (Session.db s);
  (match Session.run s [ ("initiate", []) ] with
   | Ok _ -> Alcotest.fail "budget still armed"
   | Error f ->
     Alcotest.(check string)
       "every batch draws a fresh budget, same structured error" "budget-steps"
       (Error.code_name f.Session.fail_error.Error.code))

(* --- wire protocol: framing, dispatch, shutdown --- *)

(* Every frame of a file, through the same buffered reader the server
   uses on its sockets. *)
let read_frames path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let r = Protocol.Reader.create fd in
      let rec go acc =
        match Protocol.Reader.next r ~block:true with
        | `Frame p -> go (p :: acc)
        | `Eof | `Pending -> List.rev acc
      in
      go [])

let roundtrip_frames payloads =
  let path = Filename.temp_file "fds_proto" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      List.iter (Protocol.write_frame oc) payloads;
      close_out oc;
      read_frames path)

let test_protocol_frames () =
  let payloads = [ "{\"op\": \"ping\"}"; "{}"; String.make 300 'x' ] in
  Alcotest.(check (list string)) "frames round-trip" payloads
    (roundtrip_frames payloads)

let has_prefix ~affix s =
  String.length s >= String.length affix
  && String.sub s 0 (String.length affix) = affix

let handle_exn session src =
  match Protocol.request_of_string src with
  | Error (_, e) -> Alcotest.failf "bad request: %s" (Error.to_string e)
  | Ok req -> Protocol.handle session req

let test_protocol_dispatch () =
  let s = session_exn ~config:(Config.make ~transactional:true ()) () in
  (match handle_exn s {|{"id": 1, "op": "ping"}|} with
   | Protocol.Reply r ->
     Alcotest.(check string)
       "ping" {|{"id": 1, "ok": true, "result": "pong"}|} r
   | Protocol.Final _ -> Alcotest.fail "ping must not stop the server");
  (match
     handle_exn s {|{"id": 2, "op": "run", "calls": ["offer(cs101)"]}|}
   with
   | Protocol.Reply r ->
     Alcotest.(check bool) "run ok" true
       (has_prefix ~affix:{|{"id": 2, "ok": true|} r)
   | Protocol.Final _ -> Alcotest.fail "run must not stop the server");
  (match
     handle_exn s {|{"id": 3, "op": "query", "wff": "exists c:course. OFFERED(c)"}|}
   with
   | Protocol.Reply r ->
     Alcotest.(check string)
       "query sees the committed state" {|{"id": 3, "ok": true, "result": true}|} r
   | Protocol.Final _ -> Alcotest.fail "query must not stop the server");
  (match handle_exn s {|{"id": 4, "op": "nope"}|} with
   | Protocol.Reply r ->
     Alcotest.(check bool) "unknown op is a structured error" true
       (has_prefix ~affix:{|{"id": 4, "ok": false|} r)
   | Protocol.Final _ -> Alcotest.fail "unknown op must not stop the server");
  (match handle_exn s {|{"id": 5, "op": "shutdown"}|} with
   | Protocol.Final _ -> ()
   | Protocol.Reply _ -> Alcotest.fail "shutdown must stop the server")

(* ------------------------------------------------------------------ *)
(* replication: leader log, follower replica, failover, convergence    *)
(* ------------------------------------------------------------------ *)

module Replication = Fdbs_rpr.Replication
module Replica = Fdbs_service.Replica

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* A fresh path that does not exist yet: journals and snapshots are
   created by their writers. *)
let temp_path name =
  let path = Filename.temp_file ("fds_" ^ name) ".journal" in
  Sys.remove path;
  path

(* Remove a journal and every file its machinery may leave next to it. *)
let with_journals names f =
  let paths = List.map temp_path names in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_all ();
      List.iter
        (fun p ->
          List.iter
            (fun q -> if Sys.file_exists q then Sys.remove q)
            [
              p;
              p ^ ".tmp";
              Replication.snapshot_path p;
              Replication.snapshot_path p ^ ".tmp";
            ])
        paths)
    (fun () -> f paths)

(* A leader: a journaled transactional session plus the leadership
   log over the same journal (stamps epoch 1). *)
let leader_exn journal =
  let log =
    match Replication.lead ~journal with
    | Ok log -> log
    | Error e -> Alcotest.failf "lead: %s" (Error.to_string e)
  in
  let config = Config.make ~transactional:true ~journal () in
  (session_exn ~config (), log)

let replica_exn ?snapshot_every journal =
  let config = Config.make ~transactional:true ~journal () in
  match Session.Store.create ~config schema with
  | Error e -> Alcotest.failf "store: %s" (Error.to_string e)
  | Ok store -> (
      match Replica.recover ?snapshot_every ~store ~journal () with
      | Ok r -> r
      | Error e -> Alcotest.failf "recover: %s" (Error.to_string e))

(* Drive the replica to the leader's last offset, the way the server's
   follow loop does: refresh, fetch, apply, repeat. Apply failures
   (armed faults) are retried — faults are one-shot. *)
let catch_up log replica =
  (match Replication.refresh log with
   | Ok () -> ()
   | Error e -> Alcotest.failf "refresh: %s" (Error.to_string e));
  let rec go guard =
    if guard = 0 then Alcotest.fail "catch-up did not converge";
    if Replica.applied replica < Replication.last_offset log then (
      (match Replication.entries_from log (Replica.applied replica) with
       | [] ->
         (* behind the leader's truncation base: install its snapshot *)
         (match
            Replication.load_snapshot ~schema
              (Replication.snapshot_path (Replication.path log))
          with
          | Ok (Some snap, _) ->
            (match Replica.install_snapshot replica snap with
             | Ok () -> ()
             | Error e -> Alcotest.failf "install: %s" (Error.to_string e))
          | _ -> Alcotest.fail "no entries and no leader snapshot")
       | entries -> ignore (Replica.apply replica entries));
      go (guard - 1))
  in
  go 1000

let follower_db replica = Session.db (Replica.session replica)

(* --- basic convergence: leader commits stream to the follower --- *)

let test_replication_convergence () =
  with_journals [ "conv_l"; "conv_f" ] @@ fun paths ->
  let lj, fj = match paths with [ a; b ] -> (a, b) | _ -> assert false in
  let leader, log = leader_exn lj in
  ignore (run_exn leader [ ("initiate", []); ("offer", [ v "cs101" ]) ]);
  ignore (run_exn leader [ ("offer", [ v "cs102" ]) ]);
  let r = replica_exn fj in
  catch_up log r;
  Alcotest.check db "follower state equals leader state" (Session.db leader)
    (follower_db r);
  Alcotest.(check int) "applied the whole history" 2 (Replica.applied r);
  Alcotest.(check int)
    "carries the leader's epoch" (Replication.epoch log) (Replica.epoch r)

(* --- writes on a follower are rejected as structured Read_only --- *)

let test_read_only_rejection () =
  with_journals [ "ro" ] @@ fun paths ->
  let fj = List.hd paths in
  let r = replica_exn fj in
  let role = Protocol.Follower r in
  let handle src =
    match Protocol.request_of_string src with
    | Error (_, e) -> Alcotest.failf "bad request: %s" (Error.to_string e)
    | Ok req -> (
        match Protocol.handle ~role (Replica.session r) req with
        | Protocol.Reply resp -> resp
        | Protocol.Final _ -> Alcotest.fail "must not stop the server")
  in
  Alcotest.(check string)
    "the exact structured Read_only JSON"
    {|{"id": 1, "ok": false, "error": {"phase": "exec", "code": "read-only", "message": "read-only replica: writes must go to the leader", "context": {"op": "run"}}}|}
    (handle {|{"id": 1, "op": "run", "calls": ["offer(cs101)"]}|});
  (* every write op is covered; reads still answer *)
  List.iter
    (fun op ->
      let resp = handle (Fmt.str {|{"id": 2, "op": %S}|} op) in
      Alcotest.(check bool)
        (op ^ " rejected as read-only") true
        (has_prefix ~affix:{|{"id": 2, "ok": false|} resp
        && contains ~sub:{|"code": "read-only"|} resp))
    [ "begin"; "commit"; "rollback"; "replay" ];
  Alcotest.(check string)
    "reads still served" {|{"id": 3, "ok": true, "result": false}|}
    (handle {|{"id": 3, "op": "query", "wff": "exists c:course. OFFERED(c)"}|})

(* --- a fetch from an epoch ahead of the leader is rejected --- *)

let test_stale_epoch_fetch () =
  with_journals [ "stale" ] @@ fun paths ->
  let lj = List.hd paths in
  let leader, log = leader_exn lj in
  ignore (run_exn leader [ ("initiate", []) ]);
  let fetch ~epoch =
    match Protocol.request_of_string (Protocol.fetch_request ~id:(Json.Num 1.) ~from:0 ~epoch) with
    | Error (_, e) -> Alcotest.failf "bad fetch: %s" (Error.to_string e)
    | Ok req -> (
        match Protocol.handle ~role:(Protocol.Leader log) leader req with
        | Protocol.Reply resp -> resp
        | Protocol.Final _ -> Alcotest.fail "fetch must not stop the server")
  in
  Alcotest.(check bool)
    "an up-to-date fetch streams the history" true
    (contains ~sub:{|"ok": true|} (fetch ~epoch:1));
  let stale = fetch ~epoch:5 in
  Alcotest.(check bool)
    "epoch ahead of the leader is a structured stale-epoch error" true
    (has_prefix ~affix:{|{"id": 1, "ok": false|} stale
    && contains ~sub:{|"code": "stale-epoch"|} stale);
  (* and a standalone server does not serve fetch at all *)
  (match
     Protocol.request_of_string
       (Protocol.fetch_request ~id:(Json.Num 2.) ~from:0 ~epoch:1)
   with
   | Error (_, e) -> Alcotest.failf "bad fetch: %s" (Error.to_string e)
   | Ok req -> (
       match Protocol.handle leader req with
       | Protocol.Reply resp ->
         Alcotest.(check bool)
           "standalone rejects fetch" true
           (contains ~sub:{|"ok": false|} resp)
       | Protocol.Final _ -> Alcotest.fail "fetch must not stop the server"))

(* --- a torn snapshot never loses data --- *)

let test_torn_snapshot_recovery () =
  with_journals [ "torn_l"; "torn_f" ] @@ fun paths ->
  let lj, fj = match paths with [ a; b ] -> (a, b) | _ -> assert false in
  let leader, log = leader_exn lj in
  ignore (run_exn leader [ ("initiate", []) ]);
  ignore (run_exn leader [ ("offer", [ v "cs101" ]) ]);
  ignore (run_exn leader [ ("offer", [ v "cs102" ]) ]);
  ignore (run_exn leader [ ("enroll_unchecked", [ v "ana"; v "cs101" ]) ]);
  (* the only snapshot boundary (applied = 4) hits the torn window:
     the fault fires between fsync and rename. The fault is one-shot,
     so the period must make this the single boundary. *)
  Fault.arm ~site:"replication.snapshot" Fault.Abort;
  let r = replica_exn ~snapshot_every:4 fj in
  catch_up log r;
  Alcotest.check db "the replica converged anyway" (Session.db leader)
    (follower_db r);
  Alcotest.(check bool)
    "no snapshot was installed" false
    (Sys.file_exists (Replication.snapshot_path fj));
  Alcotest.(check int) "so nothing was truncated behind one" 0
    (Replica.snapshot_offset r);
  (* a restart falls back to the full (untruncated) replay *)
  Fault.disarm_all ();
  let r2 = replica_exn ~snapshot_every:100 fj in
  Alcotest.check db "recovered from the full journal" (Session.db leader)
    (follower_db r2);
  Alcotest.(check int) "all four entries re-ran" 4 (Replica.recovered_entries r2);
  (* a torn snapshot *file* (no end terminator) is unusable, not fatal:
     recovery warns and replays the full journal *)
  let oc = open_out (Replication.snapshot_path fj) in
  output_string oc "fdbs-snapshot 1\nepoch 1\noffset 2\nrel OFFERED\nt cs101\n";
  close_out oc;
  let r3 = replica_exn ~snapshot_every:100 fj in
  Alcotest.check db "torn snapshot file falls back to full replay"
    (Session.db leader) (follower_db r3);
  Alcotest.(check int) "full history re-ran" 4 (Replica.recovered_entries r3)

(* --- recovery is bounded by the snapshot period --- *)

let test_bounded_recovery () =
  with_journals [ "bound_l"; "bound_f" ] @@ fun paths ->
  let lj, fj = match paths with [ a; b ] -> (a, b) | _ -> assert false in
  let leader, log = leader_exn lj in
  ignore (run_exn leader [ ("initiate", []) ]);
  List.iter
    (fun c -> ignore (run_exn leader [ ("offer", [ v c ]) ]))
    [ "cs1"; "cs2"; "cs3"; "cs4"; "cs5"; "cs6"; "cs7" ];
  let r = replica_exn ~snapshot_every:3 fj in
  catch_up log r;
  Alcotest.(check int) "eight entries applied" 8 (Replica.applied r);
  Alcotest.(check int) "snapshot at the last boundary" 6
    (Replica.snapshot_offset r);
  (* restart: only the tail past the snapshot re-runs *)
  let r2 = replica_exn ~snapshot_every:3 fj in
  Alcotest.(check int) "recovery replayed only the tail" 2
    (Replica.recovered_entries r2);
  Alcotest.(check bool) "bounded by the snapshot period" true
    (Replica.recovered_entries r2 <= 3);
  Alcotest.(check int) "at the right offset" 8 (Replica.applied r2);
  Alcotest.check db "with the right state" (Session.db leader) (follower_db r2)

(* --- QCheck: any interleaving of commits, catch-up rounds, follower
   restarts and injected faults converges to the leader's state --- *)

type repl_op =
  | Commit of Journal.call list
  | Sync  (** one fetch/apply round *)
  | Restart  (** crash the follower, recover from snapshot + tail *)
  | Fault_snapshot  (** arm the torn-snapshot window *)
  | Fault_apply  (** arm a one-shot apply failure *)

let pp_repl_op ppf = function
  | Commit calls -> Fmt.pf ppf "commit[%a]" pp_batch calls
  | Sync -> Fmt.string ppf "sync"
  | Restart -> Fmt.string ppf "restart"
  | Fault_snapshot -> Fmt.string ppf "fault-snapshot"
  | Fault_apply -> Fmt.string ppf "fault-apply"

let repl_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun b -> Commit b) batch_gen);
        (3, return Sync);
        (1, return Restart);
        (1, return Fault_snapshot);
        (1, return Fault_apply);
      ])

let arbitrary_repl_ops =
  QCheck.make
    ~print:(Fmt.str "%a" (Fmt.Dump.list pp_repl_op))
    QCheck.Gen.(list_size (int_range 1 12) repl_op_gen)

let replication_converges =
  QCheck.Test.make ~name:"replicated interleavings converge to leader state"
    ~count:20 arbitrary_repl_ops (fun ops ->
      with_journals [ "prop_l"; "prop_f" ] @@ fun paths ->
      let lj, fj =
        match paths with [ a; b ] -> (a, b) | _ -> assert false
      in
      let leader, log = leader_exn lj in
      let replica = ref (replica_exn ~snapshot_every:2 fj) in
      let sync_once () =
        ignore (Replication.refresh log);
        match Replication.entries_from log (Replica.applied !replica) with
        | [] -> ()
        | entries -> ignore (Replica.apply !replica entries)
      in
      List.iter
        (fun op ->
          match op with
          | Commit calls -> ignore (Session.run leader calls)
          | Sync -> sync_once ()
          | Restart -> replica := replica_exn ~snapshot_every:2 fj
          | Fault_snapshot -> Fault.arm ~site:"replication.snapshot" Fault.Abort
          | Fault_apply -> Fault.arm ~site:"replication.apply" Fault.Abort)
        ops;
      (* quiesce: disarm and drive the follower to the leader's offset *)
      Fault.disarm_all ();
      catch_up log !replica;
      let converged = Db.equal (Session.db leader) (follower_db !replica) in
      (* and a fresh replay of the leader's journal agrees too *)
      let fresh = session_exn ~config:(Config.make ~transactional:true ()) () in
      let replay_agrees =
        match Session.replay fresh lj with
        | Ok rep -> Db.equal rep.Session.rep_state (Session.db leader)
        | Error e -> Alcotest.failf "fresh replay: %s" (Error.to_string e)
      in
      converged && replay_agrees)

(* ------------------------------------------------------------------ *)
(* gateway: framing edge cases, batch, admission, tenancy              *)
(* ------------------------------------------------------------------ *)

let read_all_from_string (s : string) =
  let path = Filename.temp_file "fds_frames" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      read_frames path)

(* the blank-header regression: stray newlines between frames used to
   read as end-of-stream and silently drop the rest of the pipeline *)
let test_blank_header_skipped () =
  Alcotest.(check (list string))
    "blank lines between frames are skipped" [ "abc"; "de" ]
    (read_all_from_string "3\nabc\n\n\n2\nde\n")

let test_oversized_frame_rejected () =
  match read_all_from_string "999999999\nx\n" with
  | _ -> Alcotest.fail "oversized frame must raise"
  | exception Error.Error e ->
    Alcotest.(check bool) "structured length error" true
      (contains ~sub:"bad frame length" e.Error.message)

let test_missing_trailing_newline () =
  (* tolerated at EOF... *)
  Alcotest.(check (list string))
    "missing newline at EOF tolerated" [ "abc" ]
    (read_all_from_string "3\nabc");
  (* ...but mid-stream the byte after the payload must be the newline *)
  match read_all_from_string "3\nabcX2\nde\n" with
  | _ -> Alcotest.fail "mid-stream missing newline must raise"
  | exception Error.Error e ->
    Alcotest.(check bool) "structured framing error" true
      (contains ~sub:"trailing newline" e.Error.message)

let test_reader_pipelines () =
  let rfd, wfd = Unix.pipe () in
  let r = Protocol.Reader.create rfd in
  let send s = ignore (Unix.write_substring wfd s 0 (String.length s)) in
  send "3\nabc\n\n2\nde\n";
  (match Protocol.Reader.next r ~block:true with
   | `Frame p -> Alcotest.(check string) "first frame" "abc" p
   | _ -> Alcotest.fail "expected the first frame");
  (match Protocol.Reader.next r ~block:false with
   | `Frame p ->
     Alcotest.(check string) "second frame drained without blocking" "de" p
   | _ -> Alcotest.fail "expected the buffered second frame");
  (match Protocol.Reader.next r ~block:false with
   | `Pending -> ()
   | _ -> Alcotest.fail "a drained pipeline must report pending");
  send "4\nwxyz" (* missing trailing newline, then EOF *);
  Unix.close wfd;
  (match Protocol.Reader.next r ~block:true with
   | `Frame p -> Alcotest.(check string) "newline tolerated at EOF" "wxyz" p
   | _ -> Alcotest.fail "expected the EOF-terminated frame");
  (match Protocol.Reader.next r ~block:true with
   | `Eof -> ()
   | _ -> Alcotest.fail "expected a clean EOF");
  Unix.close rfd

(* the id-echo regression: malformed requests used to answer id: null
   even when the JSON parsed enough to carry the id *)
let test_error_id_echo () =
  (match Protocol.request_of_string {|{"id": 7, "nop": "ping"}|} with
   | Ok _ -> Alcotest.fail "missing op must be an error"
   | Error (id, e) ->
     Alcotest.(check string) "the id is echoed" "7" (Json.to_string id);
     Alcotest.(check bool) "op mentioned" true
       (contains ~sub:"op" e.Error.message));
  match Protocol.request_of_string "{nope" with
  | Ok _ -> Alcotest.fail "bad JSON must be an error"
  | Error (id, _) ->
    Alcotest.(check string) "null id when unparsable" "null" (Json.to_string id)

let test_batch_dispatch () =
  let s = session_exn ~config:(Config.make ~transactional:true ()) () in
  (match
     handle_exn s
       {|{"id": 9, "op": "batch", "requests": [{"id": 1, "op": "ping"}, {"id": 2, "op": "run", "calls": ["initiate()", "offer(cs101)"]}, {"id": 3, "op": "query", "wff": "exists c:course. OFFERED(c)"}]}|}
   with
   | Protocol.Final _ -> Alcotest.fail "batch must not stop the server"
   | Protocol.Reply r ->
     Alcotest.(check bool) "batch envelope ok" true
       (has_prefix ~affix:{|{"id": 9, "ok": true|} r);
     Alcotest.(check bool) "sub-responses carried in order" true
       (contains ~sub:{|{"id": 1, "ok": true, "result": "pong"}|} r);
     Alcotest.(check bool) "the query saw the run's commit" true
       (contains ~sub:{|{"id": 3, "ok": true, "result": true}|} r));
  (match
     handle_exn s
       {|{"id": 10, "op": "batch", "requests": [{"id": 1, "op": "batch", "requests": []}, {"id": 2, "op": "shutdown"}]}|}
   with
   | Protocol.Final _ -> Alcotest.fail "nested shutdown must not stop the server"
   | Protocol.Reply r ->
     Alcotest.(check bool) "envelope still ok" true
       (has_prefix ~affix:{|{"id": 10, "ok": true|} r);
     Alcotest.(check bool) "nesting rejected per item" true
       (contains ~sub:"not allowed inside a batch" r));
  match handle_exn s {|{"id": 11, "op": "batch"}|} with
  | Protocol.Final _ -> Alcotest.fail "empty batch must not stop the server"
  | Protocol.Reply r ->
    Alcotest.(check bool) "an empty batch is an error" true
      (has_prefix ~affix:{|{"id": 11, "ok": false|} r)

let test_batch_admission () =
  let s = session_exn () in
  let admitted = ref 0 in
  let admit () =
    incr admitted;
    if !admitted > 2 then
      Result.Error (Error.overloaded ~retry_after_s:0.5 "rate exceeded")
    else Ok ()
  in
  match
    Protocol.request_of_string
      {|{"id": 1, "op": "batch", "requests": [{"id": 1, "op": "ping"}, {"id": 2, "op": "ping"}, {"id": 3, "op": "ping"}]}|}
  with
  | Error (_, e) -> Alcotest.failf "bad request: %s" (Error.to_string e)
  | Ok req ->
    (match Protocol.handle ~admit s req with
     | Protocol.Final _ -> Alcotest.fail "batch must not stop the server"
     | Protocol.Reply r ->
       Alcotest.(check int) "each sub-request admitted once" 3 !admitted;
       Alcotest.(check bool) "first two served" true
         (contains ~sub:{|{"id": 1, "ok": true, "result": "pong"}|} r
         && contains ~sub:{|{"id": 2, "ok": true, "result": "pong"}|} r);
       Alcotest.(check bool) "third overloaded with a retry hint" true
         (contains ~sub:{|"code": "overloaded"|} r
         && contains ~sub:{|"retry-after-ms": "500"|} r))

let test_bucket () =
  let now = ref 0.0 in
  let b = Budget.Bucket.make ~clock:(fun () -> !now) ~rate:2.0 ~burst:2.0 () in
  Alcotest.(check bool) "burst admits" true (Budget.Bucket.take b 1.0 = Ok ());
  Alcotest.(check bool) "burst admits twice" true
    (Budget.Bucket.take b 1.0 = Ok ());
  (match Budget.Bucket.take b 1.0 with
   | Ok () -> Alcotest.fail "an empty bucket must reject"
   | Error wait ->
     Alcotest.(check (float 1e-6)) "retry hint is the refill time" 0.5 wait);
  now := !now +. 0.5;
  Alcotest.(check bool) "refills at the rate" true
    (Budget.Bucket.take b 1.0 = Ok ());
  (* post-charging actual spend can drive the bucket into debt *)
  Budget.Bucket.charge b 4.0;
  match Budget.Bucket.take b 0.0 with
  | Ok () -> Alcotest.fail "in debt even a free take must reject"
  | Error wait ->
    Alcotest.(check bool) "the debt must be paid off first" true (wait >= 1.9)

(* step-rate admission: a heavy first request is admitted (the bucket
   starts full) and its actual spend puts the store in debt, so the
   next requests are rejected with a structured Overloaded — reads
   included. Deterministic: paying off the debt takes seconds, the test
   runs in milliseconds. *)
let test_step_rate_overload () =
  let config = Config.make ~step_rate:1.0 () in
  let s = session_exn ~config () in
  ignore (run_exn s [ ("initiate", []); ("offer", [ v "cs101" ]) ]);
  (match Session.run s [ ("offer", [ v "cs102" ]) ] with
   | Ok _ -> Alcotest.fail "expected overload"
   | Error f ->
     Alcotest.(check string) "structured overloaded" "overloaded"
       (Error.code_name f.Session.fail_error.Error.code);
     Alcotest.(check bool) "carries a retry hint" true
       (List.mem_assoc "retry-after-ms" f.Session.fail_error.Error.context));
  match Session.query s "exists c:course. OFFERED(c)" with
  | Ok _ -> Alcotest.fail "reads are metered by the same bucket"
  | Error e ->
    Alcotest.(check string) "query overloaded too" "overloaded"
      (Error.code_name e.Error.code)

(* the multi-tenant substrate: independent stores over one schema share
   the planner cache (plan keys mix the schema fingerprint) while their
   states stay isolated *)
let test_store_planner_sharing () =
  let a = session_exn () in
  let _, m0 = Planner.stats () in
  let b = session_exn () in
  let _, m1 = Planner.stats () in
  Alcotest.(check int) "a second identical-schema store compiles nothing" m0 m1;
  ignore (run_exn a [ ("initiate", []); ("offer", [ v "cs101" ]) ]);
  let offered st = Relation.cardinal (Db.relation_exn st "OFFERED") in
  Alcotest.(check int) "writes land in A" 1 (offered (Session.db a));
  Alcotest.(check int) "and are invisible in B" 0 (offered (Session.db b))

let arbitrary_batch_requests =
  let sub_gen =
    QCheck.Gen.(
      oneof
        [
          map
            (fun id ->
              Json.Obj
                [ ("id", Json.Num (float_of_int id)); ("op", Json.Str "ping") ])
            (int_bound 100);
          map
            (fun w ->
              Json.Obj
                [
                  ("id", Json.Str w);
                  ("op", Json.Str "query");
                  ("wff", Json.Str "exists c:course. OFFERED(c)");
                ])
            (oneofl [ "a"; "b"; "c" ]);
          map
            (fun c ->
              Json.Obj
                [
                  ("op", Json.Str "run");
                  ("calls", Json.Arr [ Json.Str (Fmt.str "offer(%s)" c) ]);
                ])
            (oneofl [ "cs101"; "cs102" ]);
        ])
  in
  QCheck.make
    ~print:(fun reqs -> Json.to_string (Json.Arr reqs))
    QCheck.Gen.(list_size (int_range 1 8) sub_gen)

let batch_frames_roundtrip =
  QCheck.Test.make ~name:"random batch frames round-trip the framing layer"
    ~count:50 arbitrary_batch_requests (fun reqs ->
      let payload =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Num 1.);
               ("op", Json.Str "batch");
               ("requests", Json.Arr reqs);
             ])
      in
      match roundtrip_frames [ payload; payload ] with
      | [ p1; p2 ] ->
        p1 = payload && p2 = payload
        && (match Protocol.request_of_string p1 with
            | Ok req ->
              req.Protocol.op = "batch"
              && (match Json.field "requests" req.Protocol.body with
                 | Some (Json.Arr items) ->
                   List.length items = List.length reqs
                 | _ -> false)
            | Error _ -> false)
      | _ -> false)

(* --- point transactions cost O(log n), not O(|relation|) ---

   A committed write makes a fresh relation version. Point reads and
   point writes on it, and the commit's constraint check, must not
   rebuild a whole-relation cache: a ground selection is one tree
   probe, and a fresh version never takes enough probes to pay for a
   membership table. The index-build counters pin this
   machine-independently. *)

let transfer_src =
  {|
schema transfer

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc enroll(s: student, c: course) =
  if (OFFERED(c)) then insert TAKES(s, c)

proc transfer(s: student, c: course, c2: course) =
  if (TAKES(s, c) & ~TAKES(s, c2) & OFFERED(c2))
  then (delete TAKES(s, c) ; insert TAKES(s, c2))

end-schema
|}

let student i = v (Fmt.str "s%d" i)
let course i = v (Fmt.str "c%d" i)

let test_point_txns_build_no_index () =
  let schema = Rparser.schema_exn transfer_src in
  let config = Config.make ~transactional:true ~check_constraints:true () in
  let s =
    match Session.open_ ~config ~schema () with
    | Ok s -> s
    | Error e -> Alcotest.failf "open_ failed: %s" (Error.to_string e)
  in
  (* 250 students, each in courses c(i mod 20) and c((i + 1) mod 20);
     c20 is offered and empty *)
  let students = 250 in
  ignore
    (run_exn s
       ((("initiate", []) :: List.init 21 (fun i -> ("offer", [ course i ])))
       @ List.concat
           (List.init students (fun i ->
                [
                  ("enroll", [ student i; course (i mod 20) ]);
                  ("enroll", [ student i; course ((i + 1) mod 20) ]);
                ]))));
  let takes () = Relation.cardinal (Db.relation_exn (Session.db s) "TAKES") in
  Alcotest.(check int) "500 TAKES rows" 500 (takes ());
  let point i c =
    match
      Session.query s
        ~params:[ ("x", "student", student i); ("y", "course", course c) ]
        "TAKES(x, y)"
    with
    | Ok b -> b
    | Error e -> Alcotest.failf "query: %s" (Error.to_string e)
  in
  let ok what = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)
  in
  let transfer k =
    (* student k mod 20 moves from its first course to c20, then back *)
    let i = k mod 20 in
    let from_, to_ = if k < 20 then (i, 20) else (20, i) in
    ok "begin" (Session.begin_txn s);
    (match Session.run s [ ("transfer", [ student i; course from_; course to_ ]) ] with
     | Ok _ -> ()
     | Error f -> Alcotest.failf "transfer: %s" (Error.to_string f.Session.fail_error));
    ok "commit" (Session.commit s);
    Alcotest.(check bool) "moved in" true (point i to_);
    Alcotest.(check bool) "moved out" false (point i from_);
    Alcotest.(check bool) "others untouched" true (point (100 + k) ((100 + k) mod 20))
  in
  let builds name = Metrics.value (Metrics.counter name) in
  let mem0 = builds "relation.mem_index_builds"
  and col0 = builds "relation.col_index_builds" in
  for k = 0 to 39 do
    transfer k
  done;
  Alcotest.(check int) "still 500 TAKES rows" 500 (takes ());
  Alcotest.(check int) "no membership table built" mem0
    (builds "relation.mem_index_builds");
  Alcotest.(check int) "no column index built" col0
    (builds "relation.col_index_builds")

(* A bulk load grows the carriers by one merge per sort and batch, so
   20k rows load in about a second; the per-argument re-sort this
   replaced took minutes. The test stops at the first batch past 30 s,
   so a quadratic fold fails fast instead of stalling the suite. *)
let test_bulk_load_linear () =
  let schema = Rparser.schema_exn transfer_src in
  let s =
    match Session.open_ ~schema () with
    | Ok s -> s
    | Error e -> Alcotest.failf "open_ failed: %s" (Error.to_string e)
  in
  ignore (run_exn s (("initiate", []) :: List.init 20 (fun i -> ("offer", [ course i ]))));
  let t0 = Unix.gettimeofday () in
  for b = 0 to 19 do
    ignore
      (run_exn s
         (List.init 1000 (fun j ->
              let i = (b * 1000) + j in
              ("enroll", [ student i; course (i mod 20) ]))));
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed > 30. then
      Alcotest.failf "batch %d of 20 done after %.1f s (limit 30 s)" (b + 1) elapsed
  done;
  Alcotest.(check int) "20k TAKES rows" 20_000
    (Relation.cardinal (Db.relation_exn (Session.db s) "TAKES"));
  let _, dom = Session.Store.snapshot (Session.store s) in
  Alcotest.(check int) "student carrier" 20_000 (Domain.size dom "student");
  Alcotest.(check int) "course carrier" 20 (Domain.size dom "course")

(* Serving domains, the main one included: one per core less a spare
   core and a follower's stream, at least 1. *)
let test_worker_count () =
  let check name want ~requested ~cores ~follow =
    Alcotest.(check int)
      (name ^ ": serving domains, the main one included")
      want
      (Server.worker_count ~requested ~cores ~follow)
  in
  check "default, 2 cores" 1 ~requested:0 ~cores:2 ~follow:false;
  check "2 requested, 2 cores" 1 ~requested:2 ~cores:2 ~follow:false;
  check "default, 4 cores" 3 ~requested:0 ~cores:4 ~follow:false;
  check "4 requested, 8 cores" 4 ~requested:4 ~cores:8 ~follow:false;
  check "default follower, 8 cores" 6 ~requested:0 ~cores:8 ~follow:true;
  check "default, 1 core" 1 ~requested:0 ~cores:1 ~follow:false;
  check "follower, 2 cores" 1 ~requested:0 ~cores:2 ~follow:true

(* The ground-selection probe against the naive evaluator: hit, miss,
   negated, and a ground atom whose extra equality contradicts the
   tuple it names. *)
let test_ground_atoms_match_naive () =
  let schema = Rparser.schema_exn transfer_src in
  let env = Semantics.env ~domain:Domain.empty schema in
  let db =
    List.fold_left
      (fun db (name, args) -> Semantics.call_det_exn env name args db)
      (Schema.empty_db schema)
      ([ ("initiate", []); ("offer", [ course 0 ]); ("offer", [ course 1 ]) ]
      @ List.init 12 (fun i -> ("enroll", [ student i; course (i mod 2) ])))
  in
  let domain =
    Domain.of_list
      [
        ("student", List.init 14 student);
        ("course", [ course 0; course 1; course 2 ]);
      ]
  in
  let params = [ ("x", "student"); ("x2", "student"); ("y", "course") ] in
  let check name src consts expected =
    let f = Rparser.wff_exn ~params schema src in
    Alcotest.(check bool) (name ^ ": compiles") true (Planner.plan_wff schema f <> None);
    let naive = Relcalc.holds ~domain ~consts db f in
    let planned = Planner.holds ~strategy:`Compiled ~schema ~domain ~consts db f in
    Alcotest.(check bool) (name ^ ": naive") expected naive;
    Alcotest.(check bool) (name ^ ": planned = naive") naive planned
  in
  let at i c = [ ("x", student i); ("x2", student i); ("y", course c) ] in
  check "hit" "TAKES(x, y)" (at 3 1) true;
  check "miss" "TAKES(x, y)" (at 3 0) false;
  check "absent student" "TAKES(x, y)" (at 13 0) false;
  check "negated hit" "~TAKES(x, y)" (at 3 1) false;
  check "negated miss" "~TAKES(x, y)" (at 3 0) true;
  let clash = [ ("x", student 3); ("x2", student 5); ("y", course 1) ] in
  check "contradicting equality"
    "exists s:student. (TAKES(s, y) & s = x & s = x2)" clash false;
  check "agreeing equality"
    "exists s:student. (TAKES(s, y) & s = x & s = x2)" (at 3 1) true

(* --- Reader fuzz: random streams in random chunk splits --- *)

(* A stream is well-formed segments (frames, blank lines) followed by
   one tail. The tail decides the outcome once every byte is written
   and the writer is still open: [`Pending] for a clean end or a frame
   cut short, [`Error] for a malformed header or frame (bytes after
   the first malformed one are arbitrary). *)
type fuzz_tail =
  | Clean
  | Partial_header of string  (* length digits, no newline yet *)
  | Truncated of string * int  (* the payload and how much of it arrives *)
  | Bad_header of string
  | Oversized
  | Long_header of string  (* a header line past 32 bytes *)
  | No_newline of string  (* a payload followed by a byte other than '\n' *)

type fuzz_stream = {
  segments : [ `Frame of string | `Blank of string ] list;
  tail : fuzz_tail;
  garbage : string;
  splits : int list;  (* chunk sizes, cycled *)
  size : int;  (* the reader's initial buffer *)
}

let frame_bytes p = Fmt.str "%d\n%s\n" (String.length p) p

let fuzz_bytes s =
  let seg = function `Frame p -> frame_bytes p | `Blank b -> b ^ "\n" in
  let tail =
    match s.tail with
    | Clean -> ""
    | Partial_header d -> d
    | Truncated (p, k) -> Fmt.str "%d\n%s" (String.length p) (String.sub p 0 k)
    | Bad_header h -> h ^ "\n" ^ s.garbage
    | Oversized -> Fmt.str "%d\n%s" (16 * 1024 * 1024 + 1) s.garbage
    | Long_header pad -> pad ^ "1\nx\n" ^ s.garbage
    | No_newline p -> Fmt.str "%d\n%sX%s" (String.length p) p s.garbage
  in
  String.concat "" (List.map seg s.segments) ^ tail

let fuzz_expected s =
  ( List.filter_map (function `Frame p -> Some p | `Blank _ -> None) s.segments,
    match s.tail with
    | Clean | Partial_header _ | Truncated _ -> `Pending
    | Bad_header _ | Oversized | Long_header _ | No_newline _ -> `Error )

let fuzz_gen =
  let open QCheck.Gen in
  let payload = string_size ~gen:char (int_range 0 120) in
  let segment =
    frequency
      [
        (4, map (fun p -> `Frame p) payload);
        (1, map (fun b -> `Blank b) (oneofl [ ""; " "; "\r"; " \t " ]));
      ]
  in
  let tail =
    frequency
      [
        (2, return Clean);
        (1, map (fun n -> Partial_header (string_of_int n)) (int_range 0 99999));
        ( 2,
          payload >>= fun p ->
          map (fun k -> Truncated (p, k)) (int_range 0 (String.length p)) );
        (1, map (fun h -> Bad_header h) (oneofl [ "abc"; "12z"; "-1"; "1 2"; "x" ]));
        (1, return Oversized);
        (1, map (fun n -> Long_header (String.make n ' ')) (int_range 32 40));
        (1, map (fun p -> No_newline p) payload);
      ]
  in
  map
    (fun ((segments, tail), (garbage, (splits, size))) ->
      { segments; tail; garbage; splits; size })
    (pair
       (pair (list_size (int_range 0 12) segment) tail)
       (pair
          (string_size ~gen:char (int_range 0 40))
          (pair
             (list_size (int_range 1 8) (int_range 1 64))
             (oneofl [ 1; 7; 64; 65536 ]))))

(* Feed the stream chunk by chunk through a socketpair, draining the
   reader with [~block:false] after each chunk. The reader's end is
   non-blocking, so a read that would have blocked raises [Unix_error]
   and fails the property instead of hanging it. *)
let fuzz_run s =
  let bytes = fuzz_bytes s in
  let rfd, wfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock rfd;
  let r = Protocol.Reader.create ~size:s.size rfd in
  let frames = ref [] in
  let rec drain () =
    match Protocol.Reader.next r ~block:false with
    | `Frame p ->
      frames := p :: !frames;
      drain ()
    | `Pending -> ()
    | `Eof -> failwith "`Eof while the writer is open"
  in
  let rec feed pos splits =
    if pos < String.length bytes then (
      let k, rest =
        match splits with [] -> (max_int, []) | k :: rest -> (k, rest @ [ k ])
      in
      let k = min k (String.length bytes - pos) in
      ignore (Unix.write_substring wfd bytes pos k);
      drain ();
      feed (pos + k) rest)
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Unix.close rfd; Unix.close wfd)
      (fun () ->
        match feed 0 s.splits; drain () with
        | () -> `Pending
        | exception Error.Error _ -> `Error)
  in
  (List.rev !frames, outcome)

let reader_fuzz =
  QCheck.Test.make ~name:"framing: the reader never blocks on random streams"
    ~count:500
    (QCheck.make
       ~print:(fun s -> Fmt.str "%S in chunks of %a, buffer %d"
                  (fuzz_bytes s) Fmt.(Dump.list int) s.splits s.size)
       fuzz_gen)
    (fun s -> fuzz_run s = fuzz_expected s)

(* --- a one-domain server does not stall on quiet connections --- *)

(* With one serving domain, the domain that polls also serves: a
   connection holding half a frame and one that never speaks must not
   hold up a third. Every client read times out after 5 s, so a stall
   fails the test instead of hanging it. *)
let test_one_domain_no_stall () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "fds_stall_%d.sock" (Unix.getpid ()))
  in
  let up = Atomic.make false and finished = Atomic.make false in
  let server =
    Stdlib.Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            Server.serve ~workers:1 ~ready:(fun () -> Atomic.set up true)
              (`Unix path) schema))
  in
  while not (Atomic.get up || Atomic.get finished) do Unix.sleepf 0.01 done;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    fd
  in
  let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let reply r =
    match Protocol.Reader.next r ~block:true with
    | `Frame p -> p
    | `Eof | `Pending -> Alcotest.fail "connection closed without a reply"
  in
  let ping id = Fmt.str {|{"id": %d, "op": "ping"}|} id in
  let pong id = Fmt.str {|{"id": %d, "ok": true, "result": "pong"}|} id in
  let half = connect () and silent = connect () and busy = connect () in
  let frame = frame_bytes (ping 0) in
  let cut = String.length frame / 2 in
  send half (String.sub frame 0 cut);
  let t0 = Unix.gettimeofday () in
  let r = Protocol.Reader.create busy in
  for i = 1 to 100 do
    send busy (frame_bytes (ping i));
    Alcotest.(check string) "busy reply" (pong i) (reply r)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 5. then Alcotest.failf "100 requests took %.1f s" elapsed;
  send half (String.sub frame cut (String.length frame - cut));
  Alcotest.(check string) "the half frame, completed" (pong 0)
    (reply (Protocol.Reader.create half));
  send busy (frame_bytes {|{"id": 101, "op": "shutdown"}|});
  Alcotest.(check string) "shutdown"
    {|{"id": 101, "ok": true, "result": "bye"}|} (reply r);
  let deadline = Unix.gettimeofday () +. 5. in
  while not (Atomic.get finished) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get finished) then Alcotest.fail "still serving 5 s after shutdown";
  (match Stdlib.Domain.join server with
   | Ok stats -> Alcotest.(check int) "connections" 3 stats.Server.served_connections
   | Error e -> Alcotest.failf "serve: %s" (Error.to_string e));
  List.iter Unix.close [ half; silent; busy ];
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

(* --- group commit: one fsync per served batch --- *)

let client path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a reply that never comes fails the test instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

let send_frames fd payloads =
  let s = String.concat "" (List.map frame_bytes payloads) in
  ignore (Unix.write_substring fd s 0 (String.length s))

let next_frame r =
  match Protocol.Reader.next r ~block:true with
  | `Frame p -> Some p
  | `Eof | `Pending -> None
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Alcotest.fail "no reply and no close within 5 s"
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None

(* Every frame until the server closes the connection. *)
let frames_until_eof fd =
  let r = Protocol.Reader.create fd in
  let rec go acc =
    match next_frame r with Some p -> go (p :: acc) | None -> List.rev acc
  in
  go []

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Fmt.str "fds_%s_%d.sock" tag (Unix.getpid ()))

let run_frame id call = Fmt.str {|{"id": %d, "op": "run", "calls": ["%s"]}|} id call

let syncs = Metrics.counter "journal.syncs"

(* An in-process [--workers 1] server: [f] gets its socket path. *)
let with_server ?config f =
  let path = sock_path "group" in
  let up = Atomic.make false and finished = Atomic.make false in
  let server =
    Stdlib.Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            Server.serve ~workers:1 ?config
              ~ready:(fun () -> Atomic.set up true)
              (`Unix path) schema))
  in
  while not (Atomic.get up || Atomic.get finished) do Unix.sleepf 0.01 done;
  let result = f path in
  let fd = client path in
  send_frames fd [ {|{"id": 0, "op": "shutdown"}|} ];
  ignore (frames_until_eof fd);
  Unix.close fd;
  (match Stdlib.Domain.join server with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "serve: %s" (Error.to_string e));
  result

(* Ten commits pipelined in one write are served in one batch: ten
   acks behind one fsync, where an fsync per commit would make ten. *)
let ten_commits_syncs path =
  let fd = client path in
  let s0 = Metrics.value syncs in
  send_frames fd
    (run_frame 1 "initiate()"
    :: List.init 9 (fun i -> run_frame (i + 2) (Fmt.str "offer(c%d)" i)));
  let r = Protocol.Reader.create fd in
  for i = 1 to 10 do
    match next_frame r with
    | Some p ->
      Alcotest.(check bool)
        (Fmt.str "reply %d is ok" i)
        true
        (Json.field "ok" (Json.parse p) = Some (Json.Bool true))
    | None -> Alcotest.failf "closed after %d replies" (i - 1)
  done;
  Unix.close fd;
  Metrics.value syncs - s0

let test_group_commit_one_sync () =
  let journal = Filename.temp_file "fds_group" ".journal" in
  Sys.remove journal;
  Fun.protect ~finally:(fun () -> if Sys.file_exists journal then Sys.remove journal)
  @@ fun () ->
  let config = Config.make ~transactional:true ~journal () in
  Alcotest.(check int) "journaled: one fsync for the batch" 1
    (with_server ~config ten_commits_syncs);
  (match Journal.load journal with
   | Ok (entries, None) ->
     Alcotest.(check int) "every acknowledged commit journaled" 10
       (List.length entries)
   | Ok (_, Some torn) -> Alcotest.failf "torn journal: %s" torn
   | Error e -> Alcotest.failf "journal: %s" (Error.to_string e));
  Alcotest.(check int) "no journal: no fsync" 0
    (with_server ~config:(Config.make ~transactional:true ()) ten_commits_syncs)

(* The fault tests run the real binary: a failed sync stops the whole
   server, and the exit status is part of what they check. *)

let fds_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/fds.exe"

let monitored_schema =
  {|
schema guarded

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc retract(c: course) =
  if (~(exists s:student. TAKES(s, c))) then delete OFFERED(c)

end-schema
|}

let monitored_theory =
  {|
theory guarded

sort course
sort student

pred offered : course
pred takes : student, course

axiom takes_offered: forall s:student, c:course. (takes(s, c) -> offered(c))

axiom no_retract: forall c:course. (offered(c) -> box offered(c))
|}

let write_temp suffix text =
  let path = Filename.temp_file "fds_group" suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  path

type proc = { pid : int; sock : string; journal : string }

(* Servers spawned by the current test, reaped by [with_files] even
   when the test fails. *)
let spawned = ref []

let reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* Boot [fds serve] as a journaled leader with [args] appended. *)
let spawn_leader ?(args = []) ~schema_file ~journal tag =
  let sock = sock_path tag in
  if Sys.file_exists sock then Sys.remove sock;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    Array.of_list
      ([ fds_exe; "serve"; schema_file; "--socket"; sock; "--transactional";
         "--journal"; journal ]
      @ args)
  in
  let pid = Unix.create_process fds_exe argv null null null in
  Unix.close null;
  spawned := pid :: !spawned;
  let rec wait n =
    if Sys.file_exists sock then ()
    else if n = 0 then Alcotest.fail "server did not come up"
    else (Unix.sleepf 0.02; wait (n - 1))
  in
  wait 500;
  { pid; sock; journal }

(* The exit code of [p], which must stop on its own within 5 s. *)
let exit_code p =
  let rec go n =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ when n > 0 -> Unix.sleepf 0.02; go (n - 1)
    | 0, _ -> Alcotest.fail "server still running 5 s after it should stop"
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "server killed by signal %d" s
  in
  go 250

(* Run the client side [f] while the server is stopped, so that its
   next poll finds everything [f] sent at once. *)
let while_stopped p f =
  Unix.kill p.pid Sys.sigstop;
  (match Unix.waitpid [ Unix.WUNTRACED ] p.pid with
   | _, Unix.WSTOPPED _ -> ()
   | _ -> Alcotest.fail "server did not stop");
  Fun.protect ~finally:(fun () -> Unix.kill p.pid Sys.sigcont) f

let journal_entries path =
  match Journal.load path with
  | Ok (entries, _) -> List.map (fun (e : Journal.entry) -> e.Journal.calls) entries
  | Error e -> Alcotest.failf "journal: %s" (Error.to_string e)

let with_files f =
  let schema_file = write_temp ".schema" monitored_schema in
  let theory_file = write_temp ".theory" monitored_theory in
  let journal = Filename.temp_file "fds_group" ".journal" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () ->
      List.iter reap !spawned;
      spawned := [];
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ schema_file; theory_file; journal ])
    (fun () -> f ~schema_file ~theory_file ~journal)

let query_frame id =
  Fmt.str
    {|{"id": %d, "op": "query", "wff": "OFFERED(c)", "params": [["c", "course", "cs101"]]}|}
    id

(* With the journal.sync fault armed, a pipelined [run, query] gets
   neither reply — no ack, and no read that saw the unsynced commit —
   and the server stops with an error; a restart replays the journal
   to a committed prefix. *)
let test_failed_sync_acks_nothing () =
  with_files @@ fun ~schema_file ~theory_file:_ ~journal ->
  let p = spawn_leader ~schema_file ~journal ~args:[ "--fault"; "journal.sync" ] "nosync" in
  let fd = client p.sock in
  send_frames fd [ run_frame 1 "offer(cs101)"; query_frame 2 ];
  Alcotest.(check (list string)) "no reply at all" [] (frames_until_eof fd);
  Unix.close fd;
  Alcotest.(check bool) "exit status is an error" true (exit_code p <> 0);
  let entries = journal_entries journal in
  Alcotest.(check bool) "the journal holds a prefix of the commits" true
    (List.length entries <= 1);
  let again = spawn_leader ~schema_file ~journal "restart" in
  let fd = client again.sock in
  send_frames fd [ query_frame 3; {|{"id": 4, "op": "shutdown"}|} ];
  (match frames_until_eof fd with
   | [ q; _bye ] ->
     Alcotest.(check string) "the restart serves the journal's state"
       (Fmt.str {|{"id": 3, "ok": true, "result": %b}|} (entries <> []))
       q
   | fs -> Alcotest.failf "restart replied %d frames" (List.length fs));
  Unix.close fd;
  Alcotest.(check int) "the restart stops cleanly" 0 (exit_code again)

(* A subscriber gets no violation frame for a commit whose sync failed:
   the push goes through the same gate as the replies. *)
let test_failed_sync_pushes_nothing () =
  with_files @@ fun ~schema_file ~theory_file ~journal ->
  let p =
    spawn_leader ~schema_file ~journal
      ~args:[ "--monitors"; theory_file; "--fault"; "journal.sync:1" ]
      "nopush"
  in
  let sub = client p.sock in
  send_frames sub [ {|{"id": 1, "op": "subscribe"}|} ];
  let sr = Protocol.Reader.create sub in
  let subscribed = next_frame sr and heartbeat = next_frame sr in
  Alcotest.(check bool) "subscribed, heartbeat" true
    (subscribed <> None && heartbeat <> None);
  let w = client p.sock in
  let wr = Protocol.Reader.create w in
  send_frames w [ {|{"id": 2, "op": "run", "calls": ["initiate()", "offer(cs101)"]}|} ];
  Alcotest.(check bool) "the first commit is acknowledged" true (next_frame wr <> None);
  (* breaks no_retract: the second sync, armed to fail, covers it *)
  send_frames w [ run_frame 3 "retract(cs101)" ];
  Alcotest.(check (option string)) "no ack" None (next_frame wr);
  let rec rest acc = match next_frame sr with Some f -> rest (f :: acc) | None -> acc in
  Alcotest.(check (list string)) "no violation frame" [] (rest []);
  List.iter Unix.close [ sub; w ];
  Alcotest.(check bool) "exit status is an error" true (exit_code p <> 0)

(* A fetch served in the same batch as a commit reads the commit's
   entry from the journal file, so its reply waits for the sync too:
   delivered after it (control), never when it fails. The committer is
   parked and the fetcher still unaccepted when both send, so one poll
   queues the committer first and accepts the fetcher behind it; with
   one serving domain they are served in that order. *)
let test_fetch_waits_for_sync () =
  with_files @@ fun ~schema_file ~theory_file:_ ~journal ->
  let fetch = {|{"id": 9, "op": "fetch", "from": 0}|} in
  let fetched_offsets reply =
    match Json.field "result" (Json.parse reply) with
    | Some res ->
      (match Json.field "entries" res with
       | Some (Json.Arr es) ->
         List.filter_map
           (fun e -> Option.bind (Json.field "offset" e) Json.to_int_opt)
           es
       | _ -> [])
    | None -> Alcotest.failf "fetch failed: %s" reply
  in
  let round args =
    let p =
      spawn_leader ~schema_file ~journal ~args:("--workers" :: "1" :: args) "fetch"
    in
    let w = client p.sock in
    send_frames w [ {|{"id": 0, "op": "ping"}|} ];
    if next_frame (Protocol.Reader.create w) = None then
      Alcotest.fail "no pong";
    let f =
      while_stopped p (fun () ->
          send_frames w [ run_frame 1 "offer(cs101)" ];
          let f = client p.sock in
          send_frames f [ fetch ];
          f)
    in
    let got = next_frame (Protocol.Reader.create f) in
    List.iter Unix.close [ w; f ];
    (p, got)
  in
  let p, got = round [] in
  (match got with
   | Some reply ->
     Alcotest.(check (list int)) "control: the batch's fetch sees the commit"
       [ 1 ] (fetched_offsets reply)
   | None -> Alcotest.fail "control: no fetch reply");
  Unix.kill p.pid Sys.sigterm;
  Alcotest.(check int) "control server stops cleanly" 0 (exit_code p);
  Sys.remove journal;
  let p, got = round [ "--fault"; "journal.sync" ] in
  Alcotest.(check (option string)) "no fetch reply past a failed sync" None got;
  Alcotest.(check bool) "exit status is an error" true (exit_code p <> 0)

(* A client that pipelines requests whose replies pass the reply
   channel's 64 KB buffer, then leaves without reading, costs only its
   own connection: the failed write closes it and the server goes on
   serving. The server is stopped while the client writes and leaves,
   so one drain answers the whole burst and one flush meets the closed
   peer. *)
let test_vanished_reader () =
  with_files @@ fun ~schema_file ~theory_file:_ ~journal ->
  let p = spawn_leader ~schema_file ~journal ~args:[ "--workers"; "1" ] "vanish" in
  while_stopped p (fun () ->
      let fd = client p.sock in
      send_frames fd
        (List.init 3000 (fun i -> Fmt.str {|{"id": %d, "op": "ping"}|} i));
      Unix.close fd);
  let fd = client p.sock in
  send_frames fd [ {|{"id": 1, "op": "ping"}|}; {|{"id": 2, "op": "shutdown"}|} ];
  Alcotest.(check (list string)) "the next connection is served"
    [ {|{"id": 1, "ok": true, "result": "pong"}|};
      {|{"id": 2, "ok": true, "result": "bye"}|} ]
    (frames_until_eof fd);
  Unix.close fd;
  Alcotest.(check int) "the server stops cleanly" 0 (exit_code p)

let suite =
  [
    Alcotest.test_case "planner cache stays warm across session calls" `Quick
      test_planner_cache_warm;
    Alcotest.test_case "transactions are isolated between sessions" `Quick
      test_txn_isolation;
    Alcotest.test_case "budget exhaustion is structured and survivable" `Quick
      test_budget_error;
    Alcotest.test_case "protocol frames round-trip" `Quick test_protocol_frames;
    Alcotest.test_case "protocol dispatch over a session" `Quick
      test_protocol_dispatch;
    Alcotest.test_case "replication: follower converges on the leader" `Quick
      test_replication_convergence;
    Alcotest.test_case "replication: follower rejects writes as read-only"
      `Quick test_read_only_rejection;
    Alcotest.test_case "replication: stale-epoch fetch is rejected" `Quick
      test_stale_epoch_fetch;
    Alcotest.test_case "replication: torn snapshot never loses data" `Quick
      test_torn_snapshot_recovery;
    Alcotest.test_case "replication: recovery is snapshot-bounded" `Quick
      test_bounded_recovery;
    Alcotest.test_case "framing: blank header lines are skipped" `Quick
      test_blank_header_skipped;
    Alcotest.test_case "framing: oversized frames are rejected" `Quick
      test_oversized_frame_rejected;
    Alcotest.test_case "framing: trailing newline required mid-stream" `Quick
      test_missing_trailing_newline;
    Alcotest.test_case "framing: the reader drains pipelines" `Quick
      test_reader_pipelines;
    Alcotest.test_case "protocol: error replies echo the request id" `Quick
      test_error_id_echo;
    Alcotest.test_case "protocol: batch dispatch" `Quick test_batch_dispatch;
    Alcotest.test_case "protocol: batch admits per sub-request" `Quick
      test_batch_admission;
    Alcotest.test_case "admission: token bucket takes, waits, and debts" `Quick
      test_bucket;
    Alcotest.test_case "admission: step-rate overload is structured" `Quick
      test_step_rate_overload;
    Alcotest.test_case "tenancy: stores share plans, isolate state" `Quick
      test_store_planner_sharing;
    Alcotest.test_case "point transactions build no relation index" `Quick
      test_point_txns_build_no_index;
    Alcotest.test_case "ground atoms: planner agrees with naive" `Quick
      test_ground_atoms_match_naive;
    Alcotest.test_case "bulk load: 20k rows grow carriers linearly" `Quick
      test_bulk_load_linear;
    Alcotest.test_case "serve: one live domain per core" `Quick test_worker_count;
    Alcotest.test_case "serve: one domain serves past quiet connections" `Quick
      test_one_domain_no_stall;
    Alcotest.test_case "group commit: one fsync per served batch" `Quick
      test_group_commit_one_sync;
    Alcotest.test_case "group commit: a failed sync acks nothing" `Quick
      test_failed_sync_acks_nothing;
    Alcotest.test_case "group commit: a failed sync pushes no event" `Quick
      test_failed_sync_pushes_nothing;
    Alcotest.test_case "group commit: a fetch waits for the sync" `Quick
      test_fetch_waits_for_sync;
    Alcotest.test_case "serve: a reader that leaves costs only its connection"
      `Quick test_vanished_reader;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        concurrent_commits_serializable;
        replication_converges;
        batch_frames_roundtrip;
        reader_fuzz;
      ]
