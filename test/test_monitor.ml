(* Streaming temporal monitors: the incremental verdict over a random
   commit sequence equals the offline Kripke check on the replayed
   universe (QCheck); static, one-step and nested axioms fire at the
   right states; axioms a monitor cannot host are reported, never
   silently dropped; and a monitor that lost sync with the commit
   stream resynchronizes instead of reporting nonsense. *)

open Fdbs_kernel
open Fdbs_temporal
open Fdbs_rpr

let v s = Value.Sym s

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0
let courses = [ v "cs101"; v "cs102" ]
let students = [ v "ana"; v "bob" ]

let domain = Domain.of_list [ ("course", courses); ("student", students) ]

(* Relations deliberately share the theory's predicate names (the
   canonical correspondence is case-insensitive; the cram test covers
   the uppercase convention). *)
let schema : Schema.t =
  {
    Schema.name = "tmon";
    relations =
      [
        Schema.rel_decl "offered" [ "course" ];
        Schema.rel_decl "takes" [ "student"; "course" ];
      ];
    consts = [];
    constraints = [];
    procs = [];
  }

let theory_src =
  {|
theory tmon
sort course
sort student
pred offered : course
pred takes : student, course
axiom ghost: ~(exists s:student, c:course. takes(s, c) & ~offered(c))
axiom keep: forall c:course. (offered(c) -> box offered(c))
axiom keep2: forall c:course. (offered(c) -> box box offered(c))
|}

let theory = Tparser.theory_exn theory_src

(* Deeper nesting over the same schema: the paper's Section 3.2
   transition axiom (depth 2) and a depth-3 axiom share one window
   with a static one. *)
let deep_theory_src =
  {|
theory tmon_deep
sort course
sort student
pred offered : course
pred takes : student, course
axiom ghost: ~(exists s:student, c:course. takes(s, c) & ~offered(c))
axiom transition: ~(exists s:student, c:course.
                      dia (takes(s, c) & dia ~(exists c2:course. takes(s, c2))))
axiom keep3: forall c:course. (offered(c) -> box box box offered(c))
|}

let deep_theory = Tparser.theory_exn deep_theory_src

let compile_exn ?(theory = theory) () =
  match Monitor.compile ~schema theory with
  | Ok m -> m
  | Error e -> Alcotest.failf "monitor compile failed: %a" Error.pp e

let db_of (offered : Value.t list) (takes : (Value.t * Value.t) list) : Db.t =
  Db.empty
  |> Db.with_relation "offered"
       (Relation.of_list [ "course" ] (List.map (fun c -> [ c ]) offered))
  |> Db.with_relation "takes"
       (Relation.of_list [ "student"; "course" ]
          (List.map (fun (s, c) -> [ s; c ]) takes))

(* ------------------------------------------------------------------ *)
(* Directed verdicts                                                   *)
(* ------------------------------------------------------------------ *)

let test_static_fires () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  (* enroll into an unoffered course: the static axiom fails at the
     post-commit state (state 1) *)
  let s1 = db_of [ v "cs101" ] [ (v "ana", v "cs102") ] in
  let events = Monitor.advance m ~domain ~before:s0 ~after:s1 in
  match List.filter (fun e -> e.Monitor.ev_axiom = "ghost") events with
  | [ e ] ->
    Alcotest.(check int) "state" 1 e.Monitor.ev_state;
    Alcotest.(check bool) "kind" true (e.Monitor.ev_kind = Tformula.Static)
  | es -> Alcotest.failf "expected one ghost event, got %d" (List.length es)

let test_transition_fires_about_pre_state () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  (* retracting cs101 violates keep (□ offered) — about state 0 *)
  let s1 = db_of [] [] in
  let events = Monitor.advance m ~domain ~before:s0 ~after:s1 in
  (match List.filter (fun e -> e.Monitor.ev_axiom = "keep") events with
  | [ e ] -> Alcotest.(check int) "state" 0 e.Monitor.ev_state
  | es -> Alcotest.failf "expected one keep event, got %d" (List.length es));
  (* the nested keep2 verdict about state 0 needs one more commit *)
  Alcotest.(check bool)
    "keep2 not yet decidable" true
    (not (List.exists (fun e -> e.Monitor.ev_axiom = "keep2") events));
  let events = Monitor.advance m ~domain ~before:s1 ~after:s1 in
  match List.filter (fun e -> e.Monitor.ev_axiom = "keep2") events with
  | [ e ] -> Alcotest.(check int) "keep2 state" 0 e.Monitor.ev_state
  | es -> Alcotest.failf "expected one keep2 event, got %d" (List.length es)

let test_clean_history_is_quiet () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  let s1 = db_of [ v "cs101" ] [ (v "ana", v "cs101") ] in
  let s2 = db_of [ v "cs101"; v "cs102" ] [ (v "ana", v "cs101") ] in
  let e1 = Monitor.advance m ~domain ~before:s0 ~after:s1 in
  let e2 = Monitor.advance m ~domain ~before:s1 ~after:s2 in
  Alcotest.(check int) "no events" 0 (List.length e1 + List.length e2);
  Alcotest.(check int) "commits" 2 (Monitor.commits m)

let test_unpublished_check_has_no_effect () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  let s1 = db_of [] [] in
  (* a rolled-back commit: check but never publish *)
  let events, _publish = Monitor.check m ~domain ~before:s0 ~after:s1 in
  Alcotest.(check bool) "would fire" true (events <> []);
  Alcotest.(check int) "not advanced" 0 (Monitor.commits m);
  Alcotest.(check int) "not counted" 0 (Monitor.violations m);
  (* the same commit done for real still fires *)
  let events = Monitor.advance m ~domain ~before:s0 ~after:s1 in
  Alcotest.(check bool) "fires" true (events <> [])

let test_resync_after_missed_commit () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  (* a commit the monitor never saw *)
  let s1 = db_of [ v "cs101"; v "cs102" ] [] in
  let s2 = db_of [ v "cs101"; v "cs102" ] [ (v "bob", v "cs102") ] in
  let events = Monitor.advance m ~domain ~before:s1 ~after:s2 in
  Alcotest.(check int) "clean transition" 0 (List.length events)

(* After a resync the window restarts at the [before] it was handed: a
   depth-d axiom stays silent for d - 1 commits, then the monitor
   agrees event for event with one freshly attached at that state. *)
let test_resync_matches_fresh_attach () =
  let resynced = compile_exn ~theory:deep_theory () in
  let fresh = compile_exn ~theory:deep_theory () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach resynced s0;
  ignore
    (Monitor.advance resynced ~domain ~before:s0
       ~after:(db_of [ v "cs101"; v "cs102" ] []));
  (* the stream jumps to [sx], a state [resynced] never saw published *)
  let sx = db_of [ v "cs101" ] [ (v "ana", v "cs101") ] in
  Monitor.attach fresh sx;
  let states =
    [
      sx;
      db_of [ v "cs101" ] [ (v "ana", v "cs101") ];
      db_of [ v "cs101" ] [];  (* ana drops to zero courses *)
      db_of [] [];  (* cs101 retracted three commits after state 0 *)
      db_of [] [];
    ]
  in
  let depth name =
    (List.find (fun (c : Monitor.compiled) -> c.Monitor.m_name = name)
       (Monitor.monitors fresh)).Monitor.m_depth
  in
  let rec go k all = function
    | before :: (after :: _ as rest) ->
      let r = Monitor.advance resynced ~domain ~before ~after in
      let f = Monitor.advance fresh ~domain ~before ~after in
      Alcotest.(check (list (pair string int)))
        (Fmt.str "commit %d agrees" k)
        (List.map (fun e -> (e.Monitor.ev_axiom, e.Monitor.ev_state)) f)
        (List.map (fun e -> (e.Monitor.ev_axiom, e.Monitor.ev_state)) r);
      List.iter
        (fun (e : Monitor.event) ->
          Alcotest.(check bool)
            (Fmt.str "%s silent before its window fills" e.Monitor.ev_axiom)
            true
            (k >= depth e.Monitor.ev_axiom))
        r;
      go (k + 1) (all @ r) rest
    | _ -> all
  in
  let resyncs = Metrics.counter "monitor.resync" in
  let r0 = Metrics.value resyncs in
  let events = go 1 [] states in
  Alcotest.(check int) "one resync" (r0 + 1) (Metrics.value resyncs);
  Alcotest.(check (list (pair string int)))
    "nested axioms fire about the resync state"
    [ ("transition", 0); ("keep3", 0); ("keep3", 1) ]
    (List.map (fun e -> (e.Monitor.ev_axiom, e.Monitor.ev_state)) events);
  Alcotest.(check int) "commits since the resync" 4 (Monitor.commits resynced)

(* Every depth is advanced by its delta: once the first commit has
   materialized the plans, each later commit is one hit per compiled
   axiom and never a miss or a fallback. *)
let test_every_depth_hits () =
  let m = compile_exn ~theory:deep_theory () in
  let compiled =
    List.length
      (List.filter (fun (c : Monitor.compiled) -> c.Monitor.m_compiled) (Monitor.monitors m))
  in
  Alcotest.(check int) "all axioms compile" 3 compiled;
  let hits = Metrics.counter "monitor.delta_hit"
  and misses = Metrics.counter "monitor.delta_miss"
  and fallbacks = Metrics.counter "monitor.delta_fallback" in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  let s1 = db_of [ v "cs101" ] [ (v "ana", v "cs101") ] in
  ignore (Monitor.advance m ~domain ~before:s0 ~after:s1);
  let h0 = Metrics.value hits
  and m0 = Metrics.value misses
  and f0 = Metrics.value fallbacks in
  let n = 6 in
  ignore
    (List.fold_left
       (fun before i ->
         let after =
           if i mod 2 = 0 then db_of [ v "cs101"; v "cs102" ] [ (v "ana", v "cs101") ]
           else db_of [ v "cs101" ] [ (v "ana", v "cs101"); (v "bob", v "cs101") ]
         in
         ignore (Monitor.advance m ~domain ~before ~after);
         after)
       s1 (List.init n Fun.id));
  Alcotest.(check int) "hits" (h0 + (n * compiled)) (Metrics.value hits);
  Alcotest.(check int) "no misses" m0 (Metrics.value misses);
  Alcotest.(check int) "no fallbacks" f0 (Metrics.value fallbacks)

let test_skipped_axioms_reported () =
  let src =
    {|
theory part
sort course
pred offered : course
shared special : course
axiom static_ok: ~(exists c:course. offered(c) & ~offered(c))
axiom uses_shared: ~(exists c:course. special(c) & ~offered(c))
|}
  in
  let theory = Tparser.theory_exn src in
  let schema : Schema.t =
    {
      Schema.name = "part";
      relations = [ Schema.rel_decl "offered" [ "course" ] ];
      consts = [];
      constraints = [];
      procs = [];
    }
  in
  match Monitor.compile ~schema theory with
  | Error e -> Alcotest.failf "compile failed: %a" Error.pp e
  | Ok m ->
    Alcotest.(check int) "monitored" 1 (List.length (Monitor.monitors m));
    (match Monitor.skipped m with
    | [ (name, reason) ] ->
      Alcotest.(check string) "skipped axiom" "uses_shared" name;
      Alcotest.(check bool)
        "reason mentions the predicate" true
        (contains ~sub:"special" reason)
    | sk -> Alcotest.failf "expected one skipped axiom, got %d" (List.length sk))

let test_missing_relation_is_an_error () =
  let src = {|
theory bad
sort course
pred nowhere : course
axiom a: ~(exists c:course. nowhere(c))
|} in
  let theory = Tparser.theory_exn src in
  match Monitor.compile ~schema theory with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error e ->
    Alcotest.(check bool)
      "names the predicate" true
      (contains ~sub:"nowhere" e.Error.message)

let test_static_projections_report_skips () =
  let axioms =
    List.map (fun ax -> (ax.Ttheory.ax_name, ax.Ttheory.ax_formula)) theory.Ttheory.axioms
  in
  let statics, skipped = Check.static_projections axioms in
  Alcotest.(check (list string)) "statics" [ "ghost" ] (List.map fst statics);
  Alcotest.(check (list string)) "skipped" [ "keep"; "keep2" ] skipped

(* ------------------------------------------------------------------ *)
(* QCheck: incremental verdicts = offline Check.check_axioms           *)
(* ------------------------------------------------------------------ *)

(* A random history: start empty, each commit flips one tuple. *)
type flip = Offer of Value.t | Retract of Value.t | Enroll of Value.t * Value.t | Leave of Value.t * Value.t

let apply_flip db = function
  | Offer c -> Db.with_relation "offered" (Relation.add [ c ] (Db.relation_exn db "offered")) db
  | Retract c ->
    Db.with_relation "offered" (Relation.remove [ c ] (Db.relation_exn db "offered")) db
  | Enroll (s, c) ->
    Db.with_relation "takes" (Relation.add [ s; c ] (Db.relation_exn db "takes")) db
  | Leave (s, c) ->
    Db.with_relation "takes" (Relation.remove [ s; c ] (Db.relation_exn db "takes")) db

let flip_gen =
  let open QCheck.Gen in
  let course = oneofl courses and student = oneofl students in
  oneof
    [
      map (fun c -> Offer c) course;
      map (fun c -> Retract c) course;
      map2 (fun s c -> Enroll (s, c)) student course;
      map2 (fun s c -> Leave (s, c)) student course;
    ]

let history_gen = QCheck.Gen.(list_size (int_range 1 12) flip_gen)

let pp_flip ppf = function
  | Offer c -> Fmt.pf ppf "offer %a" Value.pp c
  | Retract c -> Fmt.pf ppf "retract %a" Value.pp c
  | Enroll (s, c) -> Fmt.pf ppf "enroll %a %a" Value.pp s Value.pp c
  | Leave (s, c) -> Fmt.pf ppf "leave %a %a" Value.pp s Value.pp c

let arbitrary_history =
  QCheck.make ~print:(Fmt.str "%a" (Fmt.Dump.list pp_flip)) history_gen

(* Offline: replay the same states into a one-step universe and check
   every axiom everywhere. The monitor can only speak about states
   whose successor window it has seen, so restrict the offline failure
   sets accordingly: a static axiom is monitored at states 1..n (state
   0 predates the stream), an axiom of modal depth d at states
   0..n-d. *)
let offline_failures theory (states : Db.t list) =
  let structures = List.map (fun db -> Relcalc.structure_of_db ~domain db) states in
  let n = List.length states - 1 in
  let u =
    Universe.make ~states:structures
      ~edges:(List.init n (fun i -> (i, i + 1)))
  in
  let axioms =
    List.map (fun ax -> (ax.Ttheory.ax_name, ax.Ttheory.ax_formula)) theory.Ttheory.axioms
  in
  List.map
    (fun (r : Check.report) ->
      let depth =
        Tformula.modal_depth
          (List.assoc r.Check.axiom axioms)
      in
      let keep i = if depth = 0 then i >= 1 else i <= n - depth in
      (r.Check.axiom, List.filter keep r.Check.failures))
    (Check.check_axioms u axioms)

let monitor_failures theory (states : Db.t list) =
  let m = compile_exn ~theory () in
  (match states with
  | s0 :: _ -> Monitor.attach m s0
  | [] -> ());
  let rec go events = function
    | before :: (after :: _ as rest) ->
      let es = Monitor.advance m ~domain ~before ~after in
      go (events @ es) rest
    | _ -> events
  in
  let events = go [] states in
  List.map
    (fun ax ->
      ( ax.Ttheory.ax_name,
        List.filter_map
          (fun (e : Monitor.event) ->
            if e.Monitor.ev_axiom = ax.Ttheory.ax_name then Some e.Monitor.ev_state
            else None)
          events
        |> List.sort_uniq compare ))
    theory.Ttheory.axioms

let prop_incremental_equals_offline =
  QCheck.Test.make ~name:"incremental monitor = offline Check.check_axioms"
    ~count:200 arbitrary_history (fun flips ->
      let states =
        List.rev
          (List.fold_left
             (fun acc f -> apply_flip (List.hd acc) f :: acc)
             [ db_of [] [] ] flips)
      in
      List.for_all
        (fun theory ->
          let inc = monitor_failures theory states in
          List.for_all
            (fun (name, fails) ->
              List.sort_uniq compare fails = List.assoc name inc)
            (offline_failures theory states))
        [ theory; deep_theory ])

let suite =
  [
    Alcotest.test_case "static axiom fires about the post state" `Quick test_static_fires;
    Alcotest.test_case "transition axiom fires about the pre state" `Quick
      test_transition_fires_about_pre_state;
    Alcotest.test_case "clean history is quiet" `Quick test_clean_history_is_quiet;
    Alcotest.test_case "unpublished check has no effect" `Quick
      test_unpublished_check_has_no_effect;
    Alcotest.test_case "resync after a missed commit" `Quick test_resync_after_missed_commit;
    Alcotest.test_case "resync agrees with a fresh attach" `Quick
      test_resync_matches_fresh_attach;
    Alcotest.test_case "every depth is delta-advanced" `Quick test_every_depth_hits;
    Alcotest.test_case "non-monitorable axioms are reported" `Quick
      test_skipped_axioms_reported;
    Alcotest.test_case "missing homonym relation is an error" `Quick
      test_missing_relation_is_an_error;
    Alcotest.test_case "static_projections report skipped modals" `Quick
      test_static_projections_report_skips;
    QCheck_alcotest.to_alcotest prop_incremental_equals_offline;
  ]
