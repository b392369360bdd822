(* Tests for the transactional execution kernel: atomic commit,
   constraint-checked rollback, resource budgets, fault injection at
   every instrumented site, and journal replay. The acceptance property
   throughout: a transaction that fails for any reason leaves the
   database Db.equal to its pre-transaction snapshot. *)

open Fdbs_kernel
open Fdbs_rpr

let v s = Value.Sym s

(* The university schema guarded by a static integrity constraint, plus
   an unguarded insert so the constraint can actually be violated. *)
let guarded_src =
  {|
schema guarded

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc enroll(s: student, c: course) =
  if (OFFERED(c)) then insert TAKES(s, c)

proc enroll_unchecked(s: student, c: course) = insert TAKES(s, c)

proc choose(c: course, c2: course) = (insert OFFERED(c)) u (insert OFFERED(c2))

proc drain(c: course) = while (OFFERED(c)) do ((delete OFFERED(c)) u skip)

end-schema
|}

let schema = Rparser.schema_exn guarded_src

let domain =
  Domain.of_list
    [
      ("course", [ v "cs101"; v "cs102" ]);
      ("student", [ v "ana"; v "bob" ]);
    ]

let env = Semantics.env ~domain schema
let db0 = Schema.empty_db schema
let txn = Txn.make env

(* A nonempty pre-state so rollback is observable. *)
let pre =
  match Txn.run txn [ ("initiate", []); ("offer", [ v "cs102" ]) ] db0 with
  | Ok db -> db
  | Error rb -> Alcotest.failf "pre-state setup rolled back: %a" Txn.pp_rollback rb

let db = Alcotest.testable Db.pp Db.equal

let code_name_of_rollback (rb : Txn.rollback) = Error.code_name rb.Txn.error.Error.code

let check_rolled_back ?code name (result : (Db.t, Txn.rollback) result) =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected a rollback, got a commit" name
  | Error rb ->
    Alcotest.check db (name ^ ": restored = snapshot") pre rb.Txn.restored;
    (match code with
     | Some c -> Alcotest.(check string) (name ^ ": code") c (code_name_of_rollback rb)
     | None -> ())

let test_commit () =
  let calls =
    [ ("initiate", []); ("offer", [ v "cs101" ]); ("enroll", [ v "ana"; v "cs101" ]) ]
  in
  match Txn.run txn calls db0 with
  | Error rb -> Alcotest.failf "commit failed: %a" Txn.pp_rollback rb
  | Ok final ->
    let expected =
      List.fold_left
        (fun d (n, args) -> Semantics.call_det_exn env n args d)
        db0 calls
    in
    Alcotest.check db "transactional = sequential" expected final

let test_constraint_rollback () =
  (* enroll_unchecked violates takes_offered: rollback, structured error *)
  check_rolled_back ~code:"constraint-violation" "constraint"
    (Txn.run txn [ ("enroll_unchecked", [ v "ana"; v "cs101" ]) ] pre);
  (* the same calls commit when constraint checking is off *)
  let lax = Txn.make ~check_constraints:false env in
  match Txn.run lax [ ("enroll_unchecked", [ v "ana"; v "cs101" ]) ] pre with
  | Ok _ -> ()
  | Error rb -> Alcotest.failf "lax transaction rolled back: %a" Txn.pp_rollback rb

let test_blocked_rollback () =
  (* a nondeterministic procedure is not a deterministic transaction *)
  check_rolled_back ~code:"nondeterministic" "nondeterministic"
    (Txn.run txn [ ("choose", [ v "cs101"; v "cs102" ]) ] pre);
  check_rolled_back ~code:"unknown-procedure" "unknown"
    (Txn.run txn [ ("nope", []) ] pre)

(* Every instrumented fault site: an injected abort rolls back to a
   Db.equal pre-state. *)
let fault_sites =
  [ "txn.begin"; "semantics.exec"; "semantics.call"; "relalg.eval"; "txn.commit" ]

let test_fault_sites () =
  List.iter
    (fun site ->
      Fun.protect ~finally:Fault.disarm_all (fun () ->
          Fault.arm ~site Fault.Abort;
          check_rolled_back ~code:"fault-injected" ("abort at " ^ site)
            (Txn.run txn
               [ ("initiate", []); ("offer", [ v "cs101" ]);
                 ("enroll", [ v "ana"; v "cs101" ]) ]
               pre)))
    fault_sites

let test_fault_after () =
  (* countdown arming: fires on the 3rd exec hit, still rolls back *)
  Fun.protect ~finally:Fault.disarm_all (fun () ->
      Fault.arm ~after:2 ~site:"semantics.exec" Fault.Abort;
      check_rolled_back ~code:"fault-injected" "countdown abort"
        (Txn.run txn [ ("initiate", []); ("offer", [ v "cs101" ]) ] pre))

let test_budget_steps () =
  check_rolled_back ~code:"budget-steps" "step fuel"
    (Txn.run ~budget:(Budget.make ~steps:1 ()) txn
       [ ("initiate", []); ("offer", [ v "cs101" ]) ]
       pre)

let test_budget_time () =
  check_rolled_back ~code:"budget-time" "deadline"
    (Txn.run ~budget:(Budget.make ~ms:(-1) ()) txn [ ("offer", [ v "cs101" ]) ] pre)

let test_budget_states () =
  (* the distinct-state cap subsumes star_limit: draining both courses
     needs 3 distinct states through the while fixpoint *)
  let calls = [ ("offer", [ v "cs101" ]); ("drain", [ v "cs101" ]) ] in
  check_rolled_back ~code:"budget-states" "state cap"
    (Txn.run ~budget:(Budget.make ~states:1 ()) txn calls pre);
  match Txn.run ~budget:(Budget.make ~states:100 ()) txn calls pre with
  | Ok _ -> ()
  | Error rb -> Alcotest.failf "ample state cap rolled back: %a" Txn.pp_rollback rb

let test_fault_exhausts_budget () =
  (* an injected exhaustion drains the transaction's budget mid-flight *)
  Fun.protect ~finally:Fault.disarm_all (fun () ->
      Fault.arm ~site:"semantics.exec" (Fault.Exhaust Budget.Steps);
      check_rolled_back ~code:"budget-steps" "injected exhaustion"
        (Txn.run ~budget:(Budget.make ~steps:1_000 ()) txn
           [ ("initiate", []); ("offer", [ v "cs101" ]) ]
           pre))

let test_constraint_flip () =
  (* a flipped verdict rolls back a perfectly valid transaction *)
  Fun.protect ~finally:Fault.disarm_all (fun () ->
      Fault.arm ~site:"txn.constraint" Fault.Flip;
      check_rolled_back ~code:"constraint-violation" "flipped verdict"
        (Txn.run txn [ ("offer", [ v "cs101" ]) ] pre))

(* ------------------------------------------------------------------ *)
(* Journal + replay                                                    *)
(* ------------------------------------------------------------------ *)

let with_temp_journal f =
  let path = Filename.temp_file "fdbs_txn" ".journal" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_journal_replay () =
  with_temp_journal (fun path ->
      let jtxn = Txn.make ~journal:path env in
      let step calls d =
        match Txn.run jtxn calls d with
        | Ok d' -> d'
        | Error rb -> Alcotest.failf "journaled txn rolled back: %a" Txn.pp_rollback rb
      in
      let d1 = step [ ("initiate", []); ("offer", [ v "cs101" ]) ] db0 in
      let d2 = step [ ("enroll", [ v "ana"; v "cs101" ]) ] d1 in
      (* an aborted transaction leaves no journal entry *)
      Fun.protect ~finally:Fault.disarm_all (fun () ->
          Fault.arm ~site:"txn.commit" Fault.Abort;
          match Txn.run jtxn [ ("offer", [ v "cs102" ]) ] d2 with
          | Ok _ -> Alcotest.fail "aborted txn: expected a rollback"
          | Error rb -> Alcotest.check db "aborted txn restored" d2 rb.Txn.restored);
      (match Journal.load path with
       | Ok (entries, torn) ->
         Alcotest.(check int) "two committed entries" 2 (List.length entries);
         Alcotest.(check (option string)) "no torn tail" None torn
       | Error e -> Alcotest.failf "journal load: %s" (Error.to_string e));
      match Txn.replay jtxn path db0 with
      | Ok replayed -> Alcotest.check db "replay reproduces the committed state" d2 replayed
      | Error e -> Alcotest.failf "replay: %s" (Error.to_string e))

let test_journal_ignores_partial_entry () =
  with_temp_journal (fun path ->
      let jtxn = Txn.make ~journal:path env in
      (match Txn.run jtxn [ ("initiate", []); ("offer", [ v "cs101" ]) ] db0 with
       | Ok _ -> ()
       | Error rb -> Alcotest.failf "rolled back: %a" Txn.pp_rollback rb);
      (* simulate a crash mid-entry: calls with no commit marker *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "call offer cs102\n";
      close_out oc;
      match Journal.load path with
      | Ok ([ entry ], torn) ->
        Alcotest.(check int) "committed calls only" 2 (List.length entry.Journal.calls);
        Alcotest.(check bool) "partial entry reported as torn" true (torn <> None)
      | Ok (es, _) -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
      | Error e -> Alcotest.failf "journal load: %s" (Error.to_string e))

let test_journal_malformed_line_context () =
  with_temp_journal (fun path ->
      let jtxn = Txn.make ~journal:path env in
      (match Txn.run jtxn [ ("initiate", []); ("offer", [ v "cs101" ]) ] db0 with
       | Ok _ -> ()
       | Error rb -> Alcotest.failf "rolled back: %a" Txn.pp_rollback rb);
      (* corrupt the middle of the file: a malformed line with entries
         after it cannot be a torn tail, so the error must locate it *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "garbage line\ncall offer cs102\ncommit\n";
      close_out oc;
      match Journal.load path with
      | Ok _ -> Alcotest.fail "malformed mid-file line must be an error"
      | Error e ->
        Alcotest.(check (option string))
          "line number in context" (Some "4")
          (List.assoc_opt "line" e.Error.context);
        (* "call initiate\ncall offer cs101\ncommit\n" = 38 bytes *)
        Alcotest.(check (option string))
          "byte offset in context" (Some "38")
          (List.assoc_opt "byte" e.Error.context);
        Alcotest.(check bool) "message names line and byte" true
          (let m = e.Error.message in
           let has sub =
             let n = String.length sub and l = String.length m in
             let rec at i = i + n <= l && (String.sub m i n = sub || at (i + 1)) in
             at 0
           in
           has "line 4" && has "byte 38"))

let test_journal_fsync_append () =
  (* ~fsync:true must produce the same bytes as the buffered path —
     the guarantee is about durability, not format *)
  with_temp_journal (fun path ->
      let jtxn = Txn.make ~fsync:true ~journal:path env in
      (match Txn.run jtxn [ ("initiate", []); ("offer", [ v "cs101" ]) ] db0 with
       | Ok _ -> ()
       | Error rb -> Alcotest.failf "rolled back: %a" Txn.pp_rollback rb);
      match Journal.load path with
      | Ok ([ entry ], None) ->
        Alcotest.(check int) "both calls landed" 2 (List.length entry.Journal.calls)
      | Ok (es, torn) ->
        Alcotest.failf "expected 1 clean entry, got %d (torn: %a)"
          (List.length es) Fmt.(option string) torn
      | Error e -> Alcotest.failf "journal load: %s" (Error.to_string e))

(* ------------------------------------------------------------------ *)
(* The While visited-set fix                                           *)
(* ------------------------------------------------------------------ *)

let test_while_nondeterministic_body () =
  (* [drain]'s body may skip, revisiting the same state forever; the
     visited set makes the fixpoint converge on 2 distinct states even
     with a tiny limit (the old per-branch fuel re-explored duplicates
     and exhausted any budget) *)
  let tight = Semantics.env ~star_limit:8 ~domain schema in
  let d1 = Semantics.call_det_exn tight "offer" [ v "cs101" ] db0 in
  match Semantics.call_det tight "drain" [ v "cs101" ] d1 with
  | Ok out ->
    Alcotest.(check bool) "course drained" false
      (Semantics.query tight out
         (Fdbs_logic.Formula.pred "OFFERED" [ Fdbs_logic.Term.Lit (v "cs101") ]))
  | Error e -> Alcotest.failf "drain: %s" e.Fdbs_kernel.Error.message

(* ------------------------------------------------------------------ *)
(* Properties (qcheck)                                                 *)
(* ------------------------------------------------------------------ *)

let call_gen =
  let open QCheck.Gen in
  oneof
    [
      return ("initiate", []);
      map (fun c -> ("offer", [ c ])) (oneofl [ v "cs101"; v "cs102" ]);
      map2
        (fun s c -> ("enroll", [ s; c ]))
        (oneofl [ v "ana"; v "bob" ])
        (oneofl [ v "cs101"; v "cs102" ]);
      map (fun c -> ("drain", [ c ])) (oneofl [ v "cs101"; v "cs102" ]);
    ]

let print_scenario ((site, after), calls) =
  Fmt.str "%s:%d [%a]" site after Fmt.(list ~sep:(any "; ") Journal.pp_call) calls

let arbitrary_fault_scenario =
  QCheck.make ~print:print_scenario
    QCheck.Gen.(
      pair
        (pair (oneofl fault_sites) (int_range 0 5))
        (list_size (int_range 1 6) call_gen))

(* (a) rollback restores a Db.equal pre-state under every injected
   fault site, wherever in the run it fires. *)
let prop_rollback_restores_pre_state =
  QCheck.Test.make ~name:"rollback restores the snapshot under any fault" ~count:200
    arbitrary_fault_scenario (fun ((site, after), calls) ->
      Fun.protect ~finally:Fault.disarm_all (fun () ->
          Fault.arm ~after ~site Fault.Abort;
          match Txn.run txn calls pre with
          | Ok _ -> true  (* the fault never fired (countdown too deep) *)
          | Error rb -> Db.equal rb.Txn.restored pre))

let arbitrary_txns =
  QCheck.make
    ~print:
      Fmt.(str "%a" (list ~sep:(any " | ") (list ~sep:(any "; ") Journal.pp_call)))
    QCheck.Gen.(list_size (int_range 1 4) (list_size (int_range 1 4) call_gen))

(* (b) replay of a journal reproduces the committed state exactly. *)
let prop_replay_reproduces_commits =
  QCheck.Test.make ~name:"journal replay reproduces the committed state" ~count:100
    arbitrary_txns (fun txns ->
      with_temp_journal (fun path ->
          let jtxn = Txn.make ~journal:path env in
          let final =
            List.fold_left
              (fun d calls ->
                match Txn.run jtxn calls d with Ok d' -> d' | Error rb -> rb.Txn.restored)
              db0 txns
          in
          match Txn.replay jtxn path db0 with
          | Ok replayed -> Db.equal final replayed
          | Error _ -> false))

(* (c) the commit hook receives the commit's one delta: applied to the
   pre-state it gives the committed state. A constraint violation rolls
   back before the hook, so the hook never sees that commit. *)
let arbitrary_violating_txns =
  let unchecked =
    QCheck.Gen.(
      map2
        (fun s c -> ("enroll_unchecked", [ s; c ]))
        (oneofl [ v "ana"; v "bob" ])
        (oneofl [ v "cs101"; v "cs102" ]))
  in
  QCheck.make
    ~print:
      Fmt.(str "%a" (list ~sep:(any " | ") (list ~sep:(any "; ") Journal.pp_call)))
    QCheck.Gen.(
      list_size (int_range 1 6)
        (list_size (int_range 1 4) (frequency [ (4, call_gen); (1, unchecked) ])))

let prop_hook_delta_is_the_commit =
  QCheck.Test.make ~name:"the commit hook's delta takes before to after" ~count:200
    arbitrary_violating_txns (fun txns ->
      let seen = ref [] in
      let on_commit ~before ~after ~delta =
        seen := (before, after, delta) :: !seen;
        Ok (fun () -> ())
      in
      let htxn = Txn.make ~check_constraints:true ~on_commit env in
      let step d calls =
        seen := [];
        match Txn.run htxn calls d with
        | Ok d' -> (
          match !seen with
          | [ (before, after, delta) ] ->
            if not (before == d && after == d' && Db.equal (Delta.apply delta before) after)
            then QCheck.Test.fail_report "hook delta does not take before to after";
            d'
          | hooks -> QCheck.Test.fail_reportf "commit ran the hook %d times" (List.length hooks))
        | Error rb ->
          (match rb.Txn.error.Error.code with
           | Error.Constraint_violation _ when !seen <> [] ->
             QCheck.Test.fail_report "hook ran on a constraint rollback"
           | _ -> ());
          rb.Txn.restored
      in
      ignore (List.fold_left step pre txns : Db.t);
      true)

let suite =
  [
    Alcotest.test_case "transactional commit = sequential" `Quick test_commit;
    Alcotest.test_case "constraint violation rolls back" `Quick test_constraint_rollback;
    Alcotest.test_case "nondeterministic/unknown roll back" `Quick test_blocked_rollback;
    Alcotest.test_case "abort rolls back at every fault site" `Quick test_fault_sites;
    Alcotest.test_case "countdown fault rolls back" `Quick test_fault_after;
    Alcotest.test_case "step budget rolls back" `Quick test_budget_steps;
    Alcotest.test_case "deadline rolls back" `Quick test_budget_time;
    Alcotest.test_case "state cap rolls back" `Quick test_budget_states;
    Alcotest.test_case "injected exhaustion rolls back" `Quick test_fault_exhausts_budget;
    Alcotest.test_case "flipped constraint rolls back" `Quick test_constraint_flip;
    Alcotest.test_case "journal + replay" `Quick test_journal_replay;
    Alcotest.test_case "partial journal entry ignored" `Quick test_journal_ignores_partial_entry;
    Alcotest.test_case "malformed journal line carries line and byte" `Quick
      test_journal_malformed_line_context;
    Alcotest.test_case "fsynced journal appends round-trip" `Quick
      test_journal_fsync_append;
    Alcotest.test_case "while converges on nondeterministic body" `Quick
      test_while_nondeterministic_body;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_rollback_restores_pre_state;
        prop_replay_reproduces_commits;
        prop_hook_delta_is_the_commit;
      ]
