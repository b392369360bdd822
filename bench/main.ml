(* The benchmark harness: one Bechamel test group per experiment
   E1-E17 and E19 of DESIGN.md's experiment index, then the timed
   experiments E18-E24 and E26 (E19 again, at fixed sizes), declared
   once in the [experiments] table that also feeds the --json report.
   The paper (PODS 1984) contains no quantitative tables or figures —
   it is a conceptual framework paper — so the experiments measure
   every checker and evaluator the framework comprises, on the paper's
   own example and controlled sweeps, and EXPERIMENTS.md records the
   expected shapes (who wins, how costs scale) against these
   measurements. *)

open Bechamel
open Toolkit
open Fdbs_kernel
open Fdbs_logic
open Fdbs_temporal
open Fdbs_algebra
open Fdbs_rpr
open Fdbs_refine
open Fdbs_wgrammar
open Fdbs

let v s = Value.Sym s

(* ------------------------------------------------------------------ *)
(* Harness: run a test group, print a table of ns/run                  *)
(* ------------------------------------------------------------------ *)

let cfg =
  Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~stabilize:false ~kde:None ()

let instances = Instance.[ monotonic_clock ]

let measure (test : Test.t) : (string * float) list =
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> (name, t) :: acc
      | Some [] | None -> (name, nan) :: acc)
    results []
  |> List.sort compare

let pp_time ppf ns =
  if Float.is_nan ns then Fmt.string ppf "n/a"
  else if ns < 1e3 then Fmt.pf ppf "%8.1f ns" ns
  else if ns < 1e6 then Fmt.pf ppf "%8.2f us" (ns /. 1e3)
  else if ns < 1e9 then Fmt.pf ppf "%8.2f ms" (ns /. 1e6)
  else Fmt.pf ppf "%8.2f s " (ns /. 1e9)

let print_report ~id ~title ~(notes : string) ?(ratios = []) times =
  Fmt.pr "@.%s: %s@." id title;
  Fmt.pr "%s@." (String.make (String.length id + String.length title + 2) '-');
  List.iter (fun (name, ns) -> Fmt.pr "  %-42s %a@." name pp_time ns) times;
  List.iter (fun (name, x) -> Fmt.pr "  %-42s %8.4f@." name x) ratios;
  if notes <> "" then Fmt.pr "  shape: %s@." notes

let report ~id ~title ~notes (test : Test.t) =
  print_report ~id ~title ~notes (measure test)

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let uni = University.functions
let sg2 = uni.Spec.signature

let domain_n_students n =
  Domain.of_list
    [
      ("course", [ v "cs101"; v "cs102" ]);
      ("student", List.init n (fun i -> v (Fmt.str "s%d" i)));
    ]

(* a trace of length l alternating offers and enrollments *)
let trace_of_length l =
  let rec go k acc =
    if k = 0 then acc
    else
      let step =
        match k mod 4 with
        | 0 -> Strace.apply "offer" [ v "cs101" ] acc
        | 1 -> Strace.apply "enroll" [ v "ana"; v "cs101" ] acc
        | 2 -> Strace.apply "offer" [ v "cs102" ] acc
        | _ -> Strace.apply "enroll" [ v "bob"; v "cs102" ] acc
      in
      go (k - 1) step
  in
  go l (Strace.apply "offer" [ v "cs101" ] (Strace.init "initiate"))

(* ------------------------------------------------------------------ *)
(* E1: temporal model checking vs number of states                     *)
(* ------------------------------------------------------------------ *)

let e1 () =
  let sg1 = University.signature1 in
  let dom =
    Domain.of_list
      [ ("course", [ v "cs101"; v "cs102" ]); ("student", [ v "ana"; v "bob" ]) ]
  in
  let consts = [] in
  let mk_state i =
    (* four cyclic patterns of offered/takes *)
    let offered =
      match i mod 4 with
      | 0 -> []
      | 1 -> [ [ v "cs101" ] ]
      | 2 -> [ [ v "cs101" ]; [ v "cs102" ] ]
      | _ -> [ [ v "cs102" ] ]
    in
    let takes =
      match i mod 4 with
      | 2 -> [ [ v "ana"; v "cs101" ] ]
      | 3 -> [ [ v "bob"; v "cs102" ] ]
      | _ -> []
    in
    Structure.of_tables ~domain:dom ~consts
      ~relations:[ ("offered", offered); ("takes", takes) ]
  in
  let axiom1 =
    Tparser.formula_exn sg1 "~(exists s:student, c:course. takes(s, c) & ~offered(c))"
  in
  let point n =
    let states = List.init n mk_state in
    let edges = List.init n (fun i -> (i, (i + 1) mod n)) in
    let u = Universe.make ~states ~edges in
    Test.make
      ~name:(Fmt.str "states=%3d" n)
      (Staged.stage (fun () -> Check.holds_everywhere u axiom1))
  in
  report ~id:"E1" ~title:"Kripke model checking of the static axiom (Sec 3.2)"
    ~notes:"linear in the number of states; each state pays |student|x|course| quantifier work"
    (Test.make_grouped ~name:"e1-temporal-mc" (List.map point [ 10; 50; 200; 500 ]))

(* ------------------------------------------------------------------ *)
(* E2: rewriting-based query evaluation vs trace length                *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let point name spec l =
    let trace = trace_of_length l in
    Test.make
      ~name:(Fmt.str "%s trace=%3d" name l)
      (Staged.stage (fun () ->
           Eval.query_on_trace spec ~q:"takes" ~params:[ v "ana"; v "cs101" ] trace))
  in
  report ~id:"E2" ~title:"conditional rewriting answers a ground query (Sec 4.2)"
    ~notes:"linear in trace length; the larger derived rule set costs a constant factor more per step"
    (Test.make_grouped ~name:"e2-rewrite-eval"
       (List.map (point "hand-eqs" uni) [ 2; 8; 32; 128 ]
       @ List.map (point "derived " University.derived_functions) [ 8; 32 ]))

(* ------------------------------------------------------------------ *)
(* E3: sufficient-completeness checking                                *)
(* ------------------------------------------------------------------ *)

let e3 () =
  let point name spec depth =
    Test.make
      ~name:(Fmt.str "%s depth=%d" name depth)
      (Staged.stage (fun () -> Completeness.check ~depth spec))
  in
  report ~id:"E3" ~title:"sufficient completeness: coverage + termination + probing (Sec 4.4a)"
    ~notes:"probing dominates and grows with |updates|^depth"
    (Test.make_grouped ~name:"e3-suff-complete"
       [
         point "hand-eqs" uni 1;
         point "hand-eqs" uni 2;
         point "derived " University.derived_functions 1;
         point "derived " University.derived_functions 2;
       ])

(* ------------------------------------------------------------------ *)
(* E4: refinement T1->T2 (static consistency + reachability + modal)   *)
(* ------------------------------------------------------------------ *)

let dom_1x1 =
  Domain.of_list [ ("course", [ v "cs101" ]); ("student", [ v "ana" ]) ]

let dom_2x1 =
  Domain.of_list
    [ ("course", [ v "cs101"; v "cs102" ]); ("student", [ v "ana" ]) ]

let dom_2x2 = University.domain

let e4 () =
  let point name dom =
    Test.make ~name
      (Staged.stage (fun () ->
           Check12.check ~domain:dom University.info uni University.interp))
  in
  report ~id:"E4"
    ~title:"refinement T1->T2: properties (b),(c),(d) of Sec 4.4 over a bounded domain"
    ~notes:"reachable states grow with the domain (3 / 9 / 25); the valid-state sweep is exponential in |tuples|"
    (Test.make_grouped ~name:"e4-check12"
       [ point "domain=1x1 (3 states)" dom_1x1;
         point "domain=2x1 (9 states)" dom_2x1;
         point "domain=2x2 (25 states)" dom_2x2 ])

(* ------------------------------------------------------------------ *)
(* E5: enumerating the valid states (Sec 4.4c)                         *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let dom_3x2 =
    Domain.of_list
      [
        ("course", [ v "cs101"; v "cs102"; v "cs103" ]);
        ("student", [ v "ana"; v "bob" ]);
      ]
  in
  let point name dom =
    Test.make ~name
      (Staged.stage (fun () -> Check12.valid_states University.info ~domain:dom))
  in
  report ~id:"E5" ~title:"valid-state enumeration: all models of the static axioms"
    ~notes:"2^(|offered tuples| + |takes tuples|) candidate structures"
    (Test.make_grouped ~name:"e5-valid-states"
       [ point "domain=1x1 (2^3 candidates)" dom_1x1;
         point "domain=2x2 (2^6 candidates)" dom_2x2;
         point "domain=3x2 (2^9 candidates)" dom_3x2 ])

(* ------------------------------------------------------------------ *)
(* E6: transition-consistency checking on a prebuilt universe          *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let mk dom =
    let g = Reach.explore_exn ~domain:dom uni in
    match Check12.universe_of_graph University.info uni University.interp g with
    | Ok u -> u
    | Error e -> invalid_arg e
  in
  let point name dom =
    let u = mk dom in
    Test.make ~name
      (Staged.stage (fun () -> Ttheory.check_in University.info u))
  in
  report ~id:"E6" ~title:"transition consistency: modal axioms over the reachable universe"
    ~notes:"the nested dia axiom visits successor sets; cost scales with states x edges"
    (Test.make_grouped ~name:"e6-transition"
       [ point "1x1 (3 states)" dom_1x1; point "2x2 (25 states)" dom_2x2 ])

(* ------------------------------------------------------------------ *)
(* E7: RPR procedure execution vs database size + update styles        *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let schema = University.representation in
  let mk_db n =
    let dom = domain_n_students n in
    let env = Semantics.env ~domain:dom schema in
    let db = Semantics.call_det_exn env "initiate" [] (Schema.empty_db schema) in
    let db =
      Db.with_relation "TAKES"
        (Relation.of_list [ "student"; "course" ]
           (List.init n (fun i -> [ v (Fmt.str "s%d" i); v "cs101" ])))
        (Db.with_relation "OFFERED"
           (Relation.of_list [ "course" ] [ [ v "cs101" ]; [ v "cs102" ] ])
           db)
    in
    (env, db)
  in
  let sorts_of = Schema.sorts_of schema in
  let insert_stmt = Stmt.Insert ("TAKES", [ Term.Lit (v "s0"); Term.Lit (v "cs102") ]) in
  let set_stmt = Stmt.desugar ~sorts_of insert_stmt in
  let point n =
    let env, db = mk_db n in
    let env_naive = { env with Semantics.strategy = `Naive } in
    [
      Test.make
        ~name:(Fmt.str "enroll tuple-oriented        n=%5d" n)
        (Staged.stage (fun () -> Semantics.exec env insert_stmt db));
      Test.make
        ~name:(Fmt.str "enroll set-oriented compiled n=%5d" n)
        (Staged.stage (fun () -> Semantics.exec env set_stmt db));
      Test.make
        ~name:(Fmt.str "enroll set-oriented naive    n=%5d" n)
        (Staged.stage (fun () -> Semantics.exec env_naive set_stmt db));
      Test.make
        ~name:(Fmt.str "cancel quantified guard      n=%5d" n)
        (Staged.stage (fun () ->
             Semantics.call_det env "cancel" [ v "cs102" ] db));
    ]
  in
  report ~id:"E7"
    ~title:"procedure execution: tuple- vs set-oriented styles (Sec 5.2 discussion)"
    ~notes:"tuple-oriented point updates are O(log n); set-oriented reassignment rebuilds the relation; naive enumeration pays |student| x |course|"
    (Test.make_grouped ~name:"e7-rpr-exec"
       (List.concat_map point [ 10; 100; 1000 ]))

(* ------------------------------------------------------------------ *)
(* E8: W-grammar recognition vs schema size                            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let schema_src k =
    let rels =
      List.init k (fun i -> Fmt.str "relation R%d(thing)" i) |> String.concat "\n"
    in
    let procs =
      List.init k (fun i ->
          Fmt.str "proc add%d(x: thing) = insert R%d(x)" i i)
      |> String.concat "\n"
    in
    Fmt.str "schema s\n%s\nproc init() = R0 := {(x:thing) | false}\n%s\nend" rels procs
  in
  let point k =
    let src = schema_src k in
    Test.make
      ~name:(Fmt.str "relations=procs=%d (%d tokens)" k
               (List.length (Rpr_grammar.tokens_of_source src)))
      (Staged.stage (fun () -> Rpr_grammar.recognizes src))
  in
  report ~id:"E8" ~title:"W-grammar recognition of schema texts (Sec 5.1.1)"
    ~notes:"superlinear: memoized spans x free-metanotion enumeration (identifiers grow with the schema)"
    (Test.make_grouped ~name:"e8-wgrammar" (List.map point [ 1; 2; 4; 8 ]))

(* ------------------------------------------------------------------ *)
(* E9: refinement T2->T3                                               *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let point name dom =
    let env = Semantics.env ~domain:dom University.representation in
    Test.make ~name
      (Staged.stage (fun () -> Check23.check uni env University.mapping))
  in
  report ~id:"E9" ~title:"refinement T2->T3: every equation valid in the induced model (Sec 5.4)"
    ~notes:"instances = equations x parameter tuples x reachable databases"
    (Test.make_grouped ~name:"e9-check23"
       [ point "domain=1x1" dom_1x1; point "domain=2x1" dom_2x1;
         point "domain=2x2" dom_2x2 ])

(* ------------------------------------------------------------------ *)
(* E10: relational calculus evaluation, naive vs compiled              *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let schema = University.representation in
  let rterm =
    let sv = { Term.vname = "s"; vsort = "student" } in
    let cv = { Term.vname = "c"; vsort = "course" } in
    {
      Stmt.rt_vars = [ sv; cv ];
      rt_body =
        Formula.And
          ( Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]),
            Formula.Not (Formula.Pred ("OFFERED", [ Term.Var cv ])) );
    }
  in
  let compiled = Option.get (Relalg.compile rterm) in
  let point n =
    let dom = domain_n_students n in
    let db =
      Schema.empty_db schema
      |> Db.with_relation "OFFERED" (Relation.of_list [ "course" ] [ [ v "cs101" ] ])
      |> Db.with_relation "TAKES"
           (Relation.of_list [ "student"; "course" ]
              (List.init n (fun i ->
                   [ v (Fmt.str "s%d" i); (if i mod 2 = 0 then v "cs101" else v "cs102") ])))
    in
    [
      Test.make
        ~name:(Fmt.str "naive active-domain n=%4d" n)
        (Staged.stage (fun () -> Relcalc.eval_rterm_naive ~domain:dom db rterm));
      Test.make
        ~name:(Fmt.str "compiled algebra    n=%4d" n)
        (Staged.stage (fun () -> Relalg.eval ~domain:dom db compiled));
    ]
  in
  report ~id:"E10"
    ~title:"relational term {(s,c) | TAKES & ~OFFERED}: naive vs algebra-compiled"
    ~notes:"naive enumerates |student| x |course| tuples and re-tests; compiled scans TAKES once with an antijoin"
    (Test.make_grouped ~name:"e10-relcalc" (List.concat_map point [ 8; 64; 512 ]))

(* ------------------------------------------------------------------ *)
(* E11: equation derivation from structured descriptions               *)
(* ------------------------------------------------------------------ *)

let e11 () =
  report ~id:"E11" ~title:"constructive derivation of equations (Sec 4.2 methodology)"
    ~notes:"cost is |descriptions| x |queries|; negligible next to verification"
    (Test.make_grouped ~name:"e11-derive"
       [
         Test.make ~name:"university (5 updates, 2 queries)"
           (Staged.stage (fun () ->
                Derive.equations_exn sg2 University.descriptions));
       ])

(* ------------------------------------------------------------------ *)
(* E12: cross-level agreement sweep                                    *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let point name dom depth =
    Test.make ~name
      (Staged.stage (fun () -> Design.agreement ~domain:dom ~depth University.design))
  in
  report ~id:"E12" ~title:"cross-level agreement: levels 2 and 3 answer every query alike (Sec 6)"
    ~notes:"traces grow with |updates|^depth; each compared at both levels"
    (Test.make_grouped ~name:"e12-agreement"
       [
         point "domain=1x1 depth=2" dom_1x1 2;
         point "domain=1x1 depth=3" dom_1x1 3;
         point "domain=2x2 depth=2" dom_2x2 2;
       ])

(* ------------------------------------------------------------------ *)
(* E13: observability ablation (extension)                             *)
(* ------------------------------------------------------------------ *)

let e13 () =
  let g = Reach.explore_exn ~domain:dom_2x2 uni in
  report ~id:"E13" ~title:"observability: quotient size under query ablation (Sec 4.1)"
    ~notes:"dropping a load-bearing query collapses the 25-state quotient; the check is linear in states x observations"
    (Test.make_grouped ~name:"e13-observability"
       [
         Test.make ~name:"full repertoire (25 states)"
           (Staged.stage (fun () -> Observability.observable g));
         Test.make ~name:"ablation table"
           (Staged.stage (fun () -> Observability.ablation uni g));
         Test.make ~name:"minimal sufficient sets"
           (Staged.stage (fun () -> Observability.minimal_sufficient_sets uni g));
       ])

(* ------------------------------------------------------------------ *)
(* E14: critical pairs / confluence (extension)                        *)
(* ------------------------------------------------------------------ *)

let e14 () =
  report ~id:"E14" ~title:"critical pairs of the conditional rewrite system"
    ~notes:"pair discovery is |equations|^2 unifications; joinability pays ground instances x rewriting"
    (Test.make_grouped ~name:"e14-confluence"
       [
         Test.make ~name:"discover pairs (hand equations)"
           (Staged.stage (fun () -> Confluence.critical_pairs uni));
         Test.make ~name:"decide joinability depth=1"
           (Staged.stage (fun () -> Confluence.check ~depth:1 uni));
         Test.make ~name:"decide joinability depth=2"
           (Staged.stage (fun () -> Confluence.check ~depth:2 uni));
       ])

(* ------------------------------------------------------------------ *)
(* E15: time-sorted translation vs modal checking (Sec 3.1 variant)    *)
(* ------------------------------------------------------------------ *)

let e15 () =
  let sg1 = University.signature1 in
  let g = Reach.explore_exn ~domain:dom_1x1 uni in
  let u =
    match Check12.universe_of_graph University.info uni University.interp g with
    | Ok u -> u
    | Error e -> invalid_arg e
  in
  let axiom2 =
    Tparser.formula_exn sg1
      "~(exists s:student, c:course. dia (takes(s, c) & dia ~(exists c2:course. takes(s, c2))))"
  in
  report ~id:"E15"
    ~title:"modal vs time-sorted checking of the transition axiom (Sec 3.1 alternative)"
    ~notes:"the time-sorted route quantifies over time points explicitly; same verdicts, comparable cost"
    (Test.make_grouped ~name:"e15-timesort"
       [
         Test.make ~name:"Kripke (modal operators)"
           (Staged.stage (fun () -> Check.holds_everywhere u axiom2));
         Test.make ~name:"time-sorted translation"
           (Staged.stage (fun () ->
                List.init (Universe.num_states u) (fun i ->
                    Timesort.holds_at sg1 u i axiom2)));
       ])

(* ------------------------------------------------------------------ *)
(* E16: semantic vs dynamic-logic route to 2->3 refinement             *)
(* ------------------------------------------------------------------ *)

let e16 () =
  let point name dom =
    let env = Semantics.env ~domain:dom University.representation in
    [
      Test.make
        ~name:(Fmt.str "semantic route (Check23)   %s" name)
        (Staged.stage (fun () -> Check23.check uni env University.mapping));
      Test.make
        ~name:(Fmt.str "dynamic-logic route        %s" name)
        (Staged.stage (fun () -> Dynamic23.check uni env University.mapping));
    ]
  in
  report ~id:"E16"
    ~title:"2->3 refinement: semantic route vs the deferred dynamic-logic route (Sec 5.3)"
    ~notes:"both check all 15 equations over the reachable databases; the DL route re-runs the procedure inside each modality"
    (Test.make_grouped ~name:"e16-dynamic23"
       (List.concat_map (fun (n, d) -> point n d) [ ("1x1", dom_1x1); ("2x1", dom_2x1) ]))

(* ------------------------------------------------------------------ *)
(* E17: transactional overhead over direct execution                   *)
(* ------------------------------------------------------------------ *)

let e17 () =
  let schema = University.representation in
  let calls =
    [
      ("initiate", []);
      ("offer", [ v "cs101" ]);
      ("offer", [ v "cs102" ]);
      ("enroll", [ v "ana"; v "cs101" ]);
      ("enroll", [ v "bob"; v "cs102" ]);
      ("transfer", [ v "bob"; v "cs102"; v "cs101" ]);
      ("cancel", [ v "cs102" ]);
    ]
  in
  let point name dom =
    let env = Semantics.env ~domain:dom schema in
    let db0 = Fdbs_rpr.Schema.empty_db schema in
    let direct () =
      List.fold_left
        (fun db (n, args) -> Semantics.call_det_exn env n args db)
        db0 calls
    in
    let txn = Txn.make env in
    let budgeted = Txn.make env in
    [
      Test.make
        ~name:(Fmt.str "direct call_det           %s" name)
        (Staged.stage direct);
      Test.make
        ~name:(Fmt.str "transactional             %s" name)
        (Staged.stage (fun () -> Txn.run txn calls db0));
      Test.make
        ~name:(Fmt.str "transactional + budget    %s" name)
        (Staged.stage (fun () ->
             Txn.run ~budget:(Budget.make ~steps:10_000 ~ms:10_000 ()) budgeted
               calls db0));
    ]
  in
  report ~id:"E17"
    ~title:"transactional execution: snapshot/commit/constraint overhead over direct calls"
    ~notes:"Db.t is immutable, so the snapshot is free; the cost is the budget accounting and commit-time constraint sweep"
    (Test.make_grouped ~name:"e17-txn"
       (List.concat_map (fun (n, d) -> point n d) [ ("2x2", dom_2x2) ]))

(* ------------------------------------------------------------------ *)
(* E19: the cost-based query planner — quantified bodies, constraint   *)
(* checking, and the plan cache                                        *)
(* ------------------------------------------------------------------ *)

let planner_schema = University.representation

(* {(s,c) | TAKES(s,c) & forall s2. TAKES(s2,c) -> OFFERED(c)} — a
   universally quantified body the naive evaluator pays
   |student|^2 x |course| substitute-and-test steps for (no witness
   short-circuits a true forall), while the compiled plan antijoins
   TAKES against the tiny projected subplan of the negated
   existential. *)
let planner_quantified_rterm =
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  let s2 = { Term.vname = "s2"; vsort = "student" } in
  {
    Stmt.rt_vars = [ sv; cv ];
    rt_body =
      Formula.And
        ( Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]),
          Formula.Forall
            ( s2,
              Formula.Imp
                ( Formula.Pred ("TAKES", [ Term.Var s2; Term.Var cv ]),
                  Formula.Pred ("OFFERED", [ Term.Var cv ]) ) ) );
  }

(* The guarded schema's integrity constraint: every enrollment is in an
   offered course. Compiles to an emptiness test on an antijoin. *)
let takes_offered_wff =
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  Formula.forall [ sv; cv ]
    (Formula.Imp
       ( Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]),
         Formula.Pred ("OFFERED", [ Term.Var cv ]) ))

let planner_db n =
  Schema.empty_db planner_schema
  |> Db.with_relation "OFFERED"
       (Relation.of_list [ "course" ] [ [ v "cs101" ]; [ v "cs102" ] ])
  |> Db.with_relation "TAKES"
       (Relation.of_list [ "student"; "course" ]
          (List.init n (fun i ->
               [ v (Fmt.str "s%d" i); (if i mod 2 = 0 then v "cs101" else v "cs102") ])))

let e19 () =
  let point n =
    let dom = domain_n_students n in
    let db = planner_db n in
    let eval strategy () =
      Planner.eval_rterm ~strategy ~schema:planner_schema ~domain:dom db
        planner_quantified_rterm
    in
    let check strategy () =
      Planner.holds ~strategy ~schema:planner_schema ~domain:dom db
        takes_offered_wff
    in
    [
      Test.make
        ~name:(Fmt.str "quantified rterm naive    n=%4d" n)
        (Staged.stage (eval `Naive));
      Test.make
        ~name:(Fmt.str "quantified rterm compiled n=%4d" n)
        (Staged.stage (eval `Compiled));
      Test.make
        ~name:(Fmt.str "constraint check naive    n=%4d" n)
        (Staged.stage (check `Naive));
      Test.make
        ~name:(Fmt.str "constraint check compiled n=%4d" n)
        (Staged.stage (check `Compiled));
    ]
  in
  report ~id:"E19"
    ~title:"cost-based planner: quantified bodies and constraint checks vs naive"
    ~notes:"naive pays carrier-product enumeration with an inner quantifier sweep per tuple; the plan cache amortizes compilation so compiled scans the live relations"
    (Test.make_grouped ~name:"e19-planner" (List.concat_map point [ 16; 64; 256 ]))

(* ------------------------------------------------------------------ *)
(* E18-E24, E26: timed metrics, machine-readable (--json)              *)
(* ------------------------------------------------------------------ *)

(* These experiments are timed with a plain monotonic loop, not
   Bechamel: several flip process-wide state (tracing, plan
   materialization) that must not interleave with other tests. The
   [experiments] table below declares each one once; the human run
   prints it and --json flattens it into the report the CI perf gate
   reads. The gate normalizes every metric by [calibration_ns] — the
   cost of a fixed pure-OCaml loop on the same machine — so baselines
   survive hardware changes. *)

(* Monotonic, immune to wall-clock adjustments mid-measurement. *)
let now_ns () = Mclock.now () *. 1e9

(* ns per call of [f]: repeat in doubling batches (after one warm-up
   call) until the batch runs at least [min_time_ns]. *)
let time_ns ?(min_time_ns = 5e7) (f : unit -> unit) : float =
  f ();
  let rec go reps =
    let t0 = now_ns () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = now_ns () -. t0 in
    if dt >= min_time_ns || reps >= 1 lsl 24 then dt /. float_of_int reps
    else go (reps * 2)
  in
  go 1

let calibration () =
  let xs = List.init 4096 (fun i -> i) in
  time_ns (fun () ->
      ignore
        (Sys.opaque_identity
           (List.fold_left (fun acc i -> acc + (i * i mod 4093)) 0 xs)))

let bench_relation_mem () =
  let tuples = List.init 1024 (fun i -> [ Value.Int i; Value.Int (i * 7) ]) in
  let r = Relation.of_list [ "a"; "b" ] tuples in
  let present = List.init 256 (fun i -> [ Value.Int (i * 4); Value.Int (i * 4 * 7) ]) in
  let absent = List.init 256 (fun i -> [ Value.Int (i + 2048); Value.Int i ]) in
  let probes = present @ absent in
  let per_batch =
    time_ns (fun () ->
        ignore
          (Sys.opaque_identity
             (List.fold_left
                (fun acc tu -> if Relation.mem tu r then acc + 1 else acc)
                0 probes)))
  in
  per_batch /. float_of_int (List.length probes)

let bench_relation_compose () =
  let a =
    Relation.of_list [ "a"; "m" ]
      (List.init 512 (fun i -> [ Value.Int i; Value.Int (i mod 64) ]))
  in
  let b =
    Relation.of_list [ "m"; "b" ]
      (List.init 512 (fun i -> [ Value.Int (i mod 64); Value.Int i ]))
  in
  time_ns (fun () -> ignore (Sys.opaque_identity (Relation.compose a b)))

let bench_relation_closure () =
  let chain =
    Relation.of_list [ "n"; "n" ]
      (List.init 48 (fun i -> [ Value.Int i; Value.Int (i + 1) ]))
  in
  time_ns (fun () -> ignore (Sys.opaque_identity (Relation.transitive_closure chain)))

(* Shared-snapshot ablation (E23). A parallel sweep can hand every
   worker domain the same immutable relation — indexes built once,
   published one-shot, probed by reference — or give each chunk its own
   copy, which re-canonicalizes the tuple set and rebuilds every index
   from scratch (what per-chunk store copying costs). The probe sweep
   is the same in both arms; only snapshot handling differs. *)
let snapshot_sorts = [ "student"; "course" ]

let snapshot_tuples =
  List.init 1024 (fun i -> [ Value.Int i; Value.Int (i mod 64) ])

let snapshot_probes =
  List.init 256 (fun i -> [ Value.Int (i * 4); Value.Int (i * 4 mod 64) ])
  @ List.init 256 (fun i -> [ Value.Int (i + 2048); Value.Int i ])

let snapshot_sweep r =
  ignore
    (Sys.opaque_identity
       (List.fold_left
          (fun acc tu -> if Relation.mem tu r then acc + 1 else acc)
          0 snapshot_probes))

let bench_snapshot_shared () =
  let r = Relation.of_list snapshot_sorts snapshot_tuples in
  Relation.warm r;
  time_ns (fun () -> snapshot_sweep r)

let bench_snapshot_copy () =
  time_ns (fun () ->
      snapshot_sweep (Relation.of_list snapshot_sorts snapshot_tuples))

let bench_check23 ~jobs () =
  let env = Semantics.env ~domain:dom_2x2 University.representation in
  time_ns ~min_time_ns:2e8 (fun () ->
      let r =
        Check23.check ~config:(Fdbs_kernel.Config.with_jobs jobs) uni env
          University.mapping
      in
      if not (Check23.ok r) then invalid_arg "bench: Check23 unexpectedly failed")

let bench_planner_quantified ~strategy () =
  let n = 256 in
  let dom = domain_n_students n in
  let db = planner_db n in
  time_ns (fun () ->
      ignore
        (Sys.opaque_identity
           (Planner.eval_rterm ~strategy ~schema:planner_schema ~domain:dom db
              planner_quantified_rterm)))

let bench_constraint_check ~strategy () =
  let n = 512 in
  let dom = domain_n_students n in
  let db = planner_db n in
  time_ns (fun () ->
      if
        not
          (Planner.holds ~strategy ~schema:planner_schema ~domain:dom db
             takes_offered_wff)
      then invalid_arg "bench: takes_offered unexpectedly violated")

(* Observability costs (E20). The guard metric is the disabled span:
   one atomic load per [with_span] call site, which the gate requires
   to stay within 2% of a semantics statement. *)
let bench_trace_span ~enabled () =
  Trace.set_enabled enabled;
  let per_call =
    time_ns (fun () ->
        ignore (Sys.opaque_identity (Trace.with_span "bench.span" (fun () -> 1))))
  in
  Trace.set_enabled false;
  Trace.reset ();
  per_call

let bench_metrics_incr () =
  let c = Metrics.counter "bench.e20.incr" in
  time_ns (fun () -> Metrics.incr c)

(* One tuple-oriented statement through the instrumented [Semantics.exec]
   hot path, with tracing off (the deployment default) and on. *)
let bench_semantics_statement ~traced () =
  let n = 100 in
  let dom = domain_n_students n in
  let db = planner_db n in
  let env = Semantics.env ~domain:dom planner_schema in
  let stmt = Stmt.Insert ("TAKES", [ Term.Lit (v "s0"); Term.Lit (v "cs102") ]) in
  Trace.set_enabled traced;
  let per_call =
    time_ns (fun () -> ignore (Sys.opaque_identity (Semantics.exec env stmt db)))
  in
  Trace.set_enabled false;
  Trace.reset ();
  per_call

(* A cache miss pays hashing + compilation + optimization; a hit pays
   hashing + one bucket scan. *)
let bench_plan_cache_miss () =
  time_ns (fun () ->
      Planner.clear ();
      ignore
        (Sys.opaque_identity (Planner.plan_rterm planner_schema planner_quantified_rterm)))

let bench_plan_cache_hit () =
  ignore (Planner.plan_rterm planner_schema planner_quantified_rterm);
  time_ns (fun () ->
      ignore
        (Sys.opaque_identity (Planner.plan_rterm planner_schema planner_quantified_rterm)))

(* Service session costs (E21). The daemon's reason to exist: a warm
   session pays only execution per request, while a one-shot client
   pays session setup every time — parsing and checking the schema and
   warming the planner against a cold plan cache, exactly what each
   fresh `fds run` invocation repeats. Both variants run the same
   request batch. *)
module Session = Fdbs_service.Session

let session_schema_src =
  {|
schema service

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc enroll(s: student, c: course) =
  if (OFFERED(c)) then insert TAKES(s, c)

end-schema
|}

let bench_session_open () =
  match Session.open_text session_schema_src with
  | Ok s -> s
  | Error _ -> invalid_arg "bench: session open failed"

let bench_session_request s =
  match
    Session.run s [ ("offer", [ v "cs101" ]); ("enroll", [ v "s0"; v "cs101" ]) ]
  with
  | Ok _ -> ()
  | Error _ -> invalid_arg "bench: session request failed"

let bench_session_warm () =
  let s = bench_session_open () in
  time_ns (fun () -> bench_session_request s)

let bench_session_cold () =
  time_ns (fun () ->
      Planner.clear ();
      bench_session_request (bench_session_open ()))

(* Recovery costs (E22). Crash recovery re-executes the journal; a
   durable snapshot bounds that work to the tail committed after it.
   Build a journal of [recovery_entries] committed transactions, with
   or without a snapshot covering all but [recovery_tail] of them, and
   time [Session.replay] over it. The replay count is asserted so the
   bench can't silently measure the wrong regime. *)
let recovery_entries = 300
let recovery_tail = 10

let bench_recovery ~snapshot () =
  let journal = Filename.temp_file "fdbs_bench_recovery" ".journal" in
  Sys.remove journal;
  let snap = Replication.snapshot_path journal in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ journal; snap ])
    (fun () ->
      let config = Config.make ~transactional:true ~journal () in
      let s =
        match Session.open_text ~config session_schema_src with
        | Ok s -> s
        | Error _ -> invalid_arg "bench: recovery session open failed"
      in
      (match Session.run s [ ("initiate", []) ] with
      | Ok _ -> ()
      | Error _ -> invalid_arg "bench: recovery initiate failed");
      for i = 2 to recovery_entries do
        (match Session.run s [ ("offer", [ v (Fmt.str "c%d" i) ]) ] with
        | Ok _ -> ()
        | Error _ -> invalid_arg "bench: recovery offer failed");
        if snapshot && i = recovery_entries - recovery_tail then
          let snapshot =
            {
              Replication.snap_epoch = 0;
              snap_offset = i;
              snap_db = Session.db s;
            }
          in
          match Replication.save_snapshot snap snapshot with
          | Ok () -> ()
          | Error _ -> invalid_arg "bench: recovery snapshot failed"
      done;
      let reader =
        match Session.open_text session_schema_src with
        | Ok s -> s
        | Error _ -> invalid_arg "bench: recovery reader open failed"
      in
      let expected = if snapshot then recovery_tail else recovery_entries in
      time_ns (fun () ->
          match Session.replay reader journal with
          | Ok r when r.Session.rep_entries = expected -> ()
          | Ok r ->
            invalid_arg
              (Fmt.str "bench: recovery replayed %d entries, expected %d"
                 r.Session.rep_entries expected)
          | Error _ -> invalid_arg "bench: recovery replay failed"))

(* Write-heavy constraint bursts (E24). A store with K integrity
   constraints absorbs N single-tuple commits; from-scratch checking
   re-evaluates every constraint's compiled plan over the whole
   database per commit (K x O(|db|)), while the differential layer
   diffs the snapshot against the commit state (O(changed relations))
   and pushes the one-tuple delta through each materialized plan
   (K x O(|delta|)). The workload alternates an insert with the
   matching delete, so the store stays bounded while every commit
   carries a real delta through both the insert and delete rules. *)
let burst_k = 12
let burst_n = 2000

let burst_schema_src =
  let rels =
    List.init burst_k (Fmt.str "relation OFFERED%d(course)")
    |> String.concat "\n"
  in
  let cons =
    List.init burst_k (fun i ->
        Fmt.str
          "constraint guard%d: forall s:student. forall c:course. (TAKES(s, c) \
           -> OFFERED%d(c))"
          i i)
    |> String.concat "\n"
  in
  Fmt.str
    "schema burst\nrelation TAKES(student, course)\n%s\n%s\n\
     proc enroll(s: student, c: course) = insert TAKES(s, c)\n\
     proc leave(s: student, c: course) = delete TAKES(s, c)\nend-schema"
    rels cons

let burst_courses = List.init 8 (fun i -> v (Fmt.str "cs%d" i))

let burst_domain =
  Domain.of_list
    [
      ("course", burst_courses);
      ( "student",
        List.init burst_n (fun i -> v (Fmt.str "s%d" i))
        @ List.init 64 (fun i -> v (Fmt.str "w%d" i)) );
    ]

let bench_constraint_burst ~incremental () =
  let schema = Rparser.schema_exn burst_schema_src in
  let env = Semantics.env ~domain:burst_domain schema in
  let offered = Relation.of_list [ "course" ] (List.map (fun c -> [ c ]) burst_courses) in
  let db =
    List.fold_left
      (fun db i -> Db.with_relation (Fmt.str "OFFERED%d" i) offered db)
      (Db.with_relation "TAKES"
         (Relation.of_list [ "student"; "course" ]
            (List.init burst_n (fun i ->
                 [ v (Fmt.str "s%d" i); List.nth burst_courses (i mod 8) ])))
         (Schema.empty_db schema))
      (List.init burst_k Fun.id)
  in
  let txn = Txn.make env in
  Planner.set_materialization incremental;
  Planner.clear ();
  let state = ref db in
  let tick = ref 0 in
  let commit () =
    let i = !tick in
    incr tick;
    let j = i / 2 in
    let s = v (Fmt.str "w%d" (j mod 64))
    and c = List.nth burst_courses (j mod 8) in
    let call = if i mod 2 = 0 then ("enroll", [ s; c ]) else ("leave", [ s; c ]) in
    match Txn.run txn [ call ] !state with
    | Ok db' -> state := db'
    | Error rb ->
      invalid_arg (Fmt.str "bench: burst commit rolled back: %a" Txn.pp_rollback rb)
  in
  (* time_ns's warm-up call pays the one cold materialization miss *)
  let per_commit = time_ns ~min_time_ns:2e8 commit in
  Planner.set_materialization true;
  Planner.clear ();
  per_commit

(* Streaming monitor overhead (E26). The same transactional commit
   loop as the burst bench, through the full [Session.run] path, with
   and without temporal monitors attached to the store. The theory
   holds on the workload (OFFERED never shrinks, every TAKES tuple is
   in an offered course, and every student keeps cs102 while cs101
   comes and goes), so the measured cost is pure monitoring — one
   static axiom and transition axioms of depths 1, 2 and 3, all
   advanced by the delta layer per commit — not the violation path. *)
let monitor_schema_src =
  {|
schema watched

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc enroll(s: student, c: course) =
  if (OFFERED(c)) then insert TAKES(s, c)

proc leave(s: student, c: course) = delete TAKES(s, c)

end-schema
|}

let monitor_theory_src =
  {|
theory watched

sort course
sort student

pred offered : course
pred takes : student, course

axiom takes_offered: forall s:student, c:course. (takes(s, c) -> offered(c))

axiom no_retract: forall c:course. (offered(c) -> box offered(c))

axiom transition: ~(exists s:student, c:course.
                      dia (takes(s, c) & dia ~(exists c2:course. takes(s, c2))))

axiom no_retract3: forall c:course. (offered(c) -> box box box offered(c))
|}

let bench_monitor_commit ~monitored () =
  let config = Config.make ~transactional:true () in
  let s =
    match Session.open_text ~config monitor_schema_src with
    | Ok s -> s
    | Error _ -> invalid_arg "bench: monitor session open failed"
  in
  let run calls =
    match Session.run s calls with
    | Ok _ -> ()
    | Error _ -> invalid_arg "bench: monitor commit failed"
  in
  let student j = v (Fmt.str "w%d" (j mod 64)) in
  run
    ([ ("initiate", []); ("offer", [ v "cs101" ]); ("offer", [ v "cs102" ]) ]
    @ List.init 64 (fun j -> ("enroll", [ student j; v "cs102" ])));
  let mon =
    if not monitored then None
    else
      let schema = Rparser.schema_exn monitor_schema_src in
      match Monitor.compile ~schema (Tparser.theory_exn monitor_theory_src) with
      | Error _ -> invalid_arg "bench: monitor compile failed"
      | Ok m ->
        if Monitor.skipped m <> [] then
          invalid_arg "bench: monitor skipped an axiom";
        Session.Store.attach_monitors (Session.store s) m;
        Some m
  in
  let tick = ref 0 in
  let commit () =
    let i = !tick in
    incr tick;
    let st = student (i / 2) in
    let call =
      if i mod 2 = 0 then ("enroll", [ st; v "cs101" ])
      else ("leave", [ st; v "cs101" ])
    in
    run [ call ]
  in
  let per_commit = time_ns ~min_time_ns:2e8 commit in
  (match mon with
  | Some m when Monitor.violations m > 0 ->
    invalid_arg "bench: monitor workload unexpectedly violated"
  | _ -> ());
  per_commit

type experiment = {
  id : string;
  title : string;
  metrics : (string * string * (unit -> float)) list;
      (** json key, label, ns per operation *)
  derived : (string * string * string) list;
      (** json key, numerator key, denominator key *)
  shape : string;
}

(* Listed in measurement order, metrics too. E18's Check23 sweeps
   start the pool's helper domains, and every metric timed after them
   runs slower beside those domains; the baseline was measured in this
   order. *)
let experiments =
  [
    {
      id = "E21";
      title = "service sessions: warm session vs per-request setup";
      metrics =
        [
          ("session_warm_request", "request on a warm session", bench_session_warm);
          ("session_cold_request", "request paying full session setup", bench_session_cold);
        ];
      derived = [ ("session_warm_speedup", "session_cold_request", "session_warm_request") ];
      shape =
        "setup re-checks the schema and re-plans every constraint and \
         assignment against a cold plan cache; the warm session keeps those and \
         pays only execution";
    };
    {
      id = "E20";
      title = "observability: span and counter costs, tracing off vs on";
      metrics =
        [
          ( "semantics_statement_traced",
            "semantics statement, tracing enabled",
            bench_semantics_statement ~traced:true );
          ( "semantics_statement",
            "semantics statement, tracing disabled",
            bench_semantics_statement ~traced:false );
          ("metrics_counter_incr", "metrics counter incr", bench_metrics_incr);
          ("trace_span_enabled", "span site, tracing enabled", bench_trace_span ~enabled:true);
          ("trace_span_disabled", "span site, tracing disabled", bench_trace_span ~enabled:false);
        ];
      derived =
        [
          ("trace_disabled_overhead", "trace_span_disabled", "semantics_statement");
          ("trace_enabled_cost_ratio", "semantics_statement_traced", "semantics_statement");
        ];
      shape =
        "a disabled span is one atomic load; enabled spans pay two clock reads \
         and an allocation; counters are one atomic rmw";
    };
    {
      id = "E19";
      title = "cost-based planner at fixed sizes, plan cache";
      metrics =
        [
          ("plan_cache_hit", "plan cache hit", bench_plan_cache_hit);
          ("plan_cache_miss", "plan cache miss", bench_plan_cache_miss);
          ( "constraint_check_compiled",
            "constraint check compiled n= 512",
            bench_constraint_check ~strategy:`Compiled );
          ( "constraint_check_naive",
            "constraint check naive    n= 512",
            bench_constraint_check ~strategy:`Naive );
          ( "planner_quantified_compiled",
            "quantified rterm compiled n= 256",
            bench_planner_quantified ~strategy:`Compiled );
          ( "planner_quantified_naive",
            "quantified rterm naive    n= 256",
            bench_planner_quantified ~strategy:`Naive );
        ];
      derived =
        [
          ("planner_quantified_speedup", "planner_quantified_naive", "planner_quantified_compiled");
          ("constraint_check_speedup", "constraint_check_naive", "constraint_check_compiled");
          ("plan_cache_speedup", "plan_cache_miss", "plan_cache_hit");
        ];
      shape =
        "a miss pays hashing + compilation + optimization, a hit hashing + one \
         bucket scan";
    };
    {
      id = "E23";
      title = "work-stealing Pool: shared snapshot vs per-chunk copy";
      metrics =
        [
          ("snapshot_copy_sweep", "probe sweep, per-chunk copy rebuild", bench_snapshot_copy);
          ("snapshot_shared_sweep", "probe sweep, shared warm snapshot", bench_snapshot_shared);
        ];
      derived = [ ("snapshot_share_speedup", "snapshot_copy_sweep", "snapshot_shared_sweep") ];
      shape =
        "sharing the immutable snapshot removes the per-chunk index rebuild; \
         the gap is the index build cost amortized to zero";
    };
    {
      id = "E18";
      title = "indexed kernel and parallel Check23";
      metrics =
        [
          ("check23_jobs4", "check23 sweep, 4 domains", bench_check23 ~jobs:4);
          ("check23_jobs2", "check23 sweep, 2 domains", bench_check23 ~jobs:2);
          ("check23_jobs1", "check23 sweep, 1 domain", bench_check23 ~jobs:1);
          ("relation_closure", "closure of a 48-node chain", bench_relation_closure);
          ("relation_compose", "compose 512 x 512, 64 join keys", bench_relation_compose);
          ("relation_mem", "mem per probe, 1024-tuple relation", bench_relation_mem);
        ];
      derived =
        [
          ("check23_speedup_jobs2", "check23_jobs1", "check23_jobs2");
          ("check23_speedup_jobs4", "check23_jobs1", "check23_jobs4");
        ];
      shape =
        "membership is O(1)-amortized against the hashed tuple table; compose \
         probes the per-column index once per tuple; persistent worker domains \
         + work stealing remove the per-map spawn and straggler barrier, so \
         speedups track the real cores";
    };
    {
      id = "E22";
      title = "recovery: snapshot-bounded replay vs full journal replay";
      metrics =
        [
          ( "recovery_snapshot",
            Fmt.str "snapshot + %d-entry tail" recovery_tail,
            bench_recovery ~snapshot:true );
          ( "recovery_full",
            Fmt.str "full replay (%d entries)" recovery_entries,
            bench_recovery ~snapshot:false );
        ];
      derived = [ ("recovery_snapshot_speedup", "recovery_full", "recovery_snapshot") ];
      shape =
        "full recovery re-executes every committed entry, constraint checks \
         included; a durable snapshot installs the captured state directly and \
         re-runs only the tail committed after it";
    };
    {
      id = "E26";
      title = "streaming monitors: per-commit overhead on the session path";
      metrics =
        [
          ( "monitor_commit_monitored",
            "commit, depth 0-3 theory monitored",
            bench_monitor_commit ~monitored:true );
          ("monitor_commit_plain", "commit, no monitors", bench_monitor_commit ~monitored:false);
        ];
      derived = [ ("monitor_commit_overhead", "monitor_commit_monitored", "monitor_commit_plain") ];
      shape =
        "each commit pays one delta extraction plus, per axiom of any depth, \
         the last D+1 commit deltas tagged with their window slots pushed \
         through the materialized time-sorted plan, so the overhead tracks the \
         delta, not the database";
    };
    {
      id = "E24";
      title = "incremental evaluation: delta-driven constraint checks per commit";
      metrics =
        [
          ( "constraint_burst_scratch",
            Fmt.str "commit, %d constraints, from scratch" burst_k,
            bench_constraint_burst ~incremental:false );
          ( "constraint_burst_incremental",
            Fmt.str "commit, %d constraints, differential" burst_k,
            bench_constraint_burst ~incremental:true );
        ];
      derived =
        [ ("constraint_delta_speedup", "constraint_burst_scratch", "constraint_burst_incremental") ];
      shape =
        Fmt.str
          "from-scratch checking re-evaluates every compiled plan over all %d \
           tuples per commit; the differential layer diffs the snapshot once and \
           pushes the one-tuple delta through each materialized plan, so the \
           per-commit cost drops from K x O(|db|) to O(|db| diff) + K x O(|delta|)"
          burst_n;
    };
  ]

let derive measured e =
  List.map
    (fun (key, num, den) -> (key, List.assoc num measured /. List.assoc den measured))
    e.derived

let report_experiment e =
  let measured = List.map (fun (key, label, f) -> (key, label, f ())) e.metrics in
  let ns = List.map (fun (key, _, t) -> (key, t)) measured in
  print_report ~id:e.id ~title:e.title ~notes:e.shape ~ratios:(derive ns e)
    (List.map (fun (_, label, t) -> (label, t)) measured)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

let json_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* The calibration loop is probed before each experiment and the report
   carries the median, so it tracks the machine across the whole run
   rather than one start-up reading. *)
let run_json () =
  let probes, measured =
    List.split
      (List.map
         (fun e ->
           let probe = calibration () in
           (probe, List.map (fun (key, _, f) -> (key, f ())) e.metrics))
         experiments)
  in
  let metrics = List.concat measured in
  let derived = List.concat_map (derive metrics) experiments in
  let pp_fields ppf fields =
    Fmt.pf ppf "%a"
      Fmt.(
        list ~sep:(any ",@,") (fun ppf (k, value) ->
            (* 4 decimals: the derived overhead ratios live well below
               the 2% gate and must survive the round-trip *)
            Fmt.pf ppf "@[\"%s\": %.4f@]" (json_escape k) value))
      fields
  in
  Fmt.pr
    "@[<v 2>{@,\
     \"schema_version\": 1,@,\
     \"cores\": %d,@,\
     \"calibration_ns\": %.2f,@,\
     @[<v 2>\"metrics\": {@,%a@]@,},@,\
     @[<v 2>\"derived\": {@,%a@]@,}@]@,}@."
    (Pool.recommended_jobs ())
    (median probes) pp_fields metrics pp_fields derived

(* --metrics-json: run a fixed deterministic workload (the small
   university verification, one domain) from zeroed instruments and
   print every counter delta — the numbers behind EXPERIMENTS.md's E20
   table. Counter deltas are exact and machine-independent; histogram
   timings are not, so only their counts are emitted. *)
let run_metrics_json () =
  Metrics.reset ();
  let v = Design.verify ~domain:University.small_domain ~depth:2 University.design in
  if not (Design.verified v) then
    invalid_arg "bench: the university design failed to verify";
  let snap = Metrics.snapshot () in
  let pp_counters ppf cs =
    Fmt.(
      list ~sep:(any ",@,") (fun ppf (k, n) ->
          Fmt.pf ppf "@[\"%s\": %d@]" (json_escape k) n))
      ppf cs
  in
  let pp_hist_counts ppf hs =
    Fmt.(
      list ~sep:(any ",@,") (fun ppf (k, h) ->
          Fmt.pf ppf "@[\"%s\": %d@]" (json_escape k) h.Metrics.h_count))
      ppf hs
  in
  Fmt.pr
    "@[<v 2>{@,\
     \"schema_version\": 1,@,\
     \"workload\": \"verify university (small domain, depth 2, jobs 1)\",@,\
     @[<v 2>\"counters\": {@,%a@]@,},@,\
     @[<v 2>\"histogram_counts\": {@,%a@]@,}@]@,}@."
    pp_counters snap.Metrics.counters pp_hist_counts snap.Metrics.histograms

let () =
  if Array.exists (( = ) "--metrics-json") Sys.argv then begin
    run_metrics_json ();
    exit 0
  end;
  if Array.exists (( = ) "--json") Sys.argv then begin
    run_json ();
    exit 0
  end;
  Fmt.pr "fdbs benchmark harness — experiments E1..E24, E26 (see DESIGN.md / EXPERIMENTS.md)@.";
  Fmt.pr "paper: Casanova, Veloso & Furtado, PODS 1984 (no quantitative tables;@.";
  Fmt.pr "the experiments measure the framework's checkers and evaluators).@.";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e19 ();
  List.iter report_experiment experiments;
  Fmt.pr "@.done.@."
