(* Cross-cutting property tests (qcheck): invariants the framework's
   correctness rests on, exercised on random inputs. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_algebra
open Fdbs_rpr

let v s = Value.Sym s

(* ------------------------------------------------------------------ *)
(* Random traces of the university specification                       *)
(* ------------------------------------------------------------------ *)

let university = Fdbs.University.functions

let small_domain = Fdbs.University.small_domain
let domain = Fdbs.University.domain

let random_trace_gen dom =
  let open QCheck.Gen in
  let courses = Domain.carrier dom "course" in
  let students = Domain.carrier dom "student" in
  let update =
    oneof
      [
        map (fun c -> ("offer", [ c ])) (oneofl courses);
        map (fun c -> ("cancel", [ c ])) (oneofl courses);
        map2 (fun s c -> ("enroll", [ s; c ])) (oneofl students) (oneofl courses);
        map3
          (fun s c c2 -> ("transfer", [ s; c; c2 ]))
          (oneofl students) (oneofl courses) (oneofl courses);
      ]
  in
  let* len = int_range 0 8 in
  let* steps = list_repeat len update in
  return
    (List.fold_left
       (fun acc (u, args) -> Strace.apply u args acc)
       (Strace.init "initiate") steps)

let arbitrary_trace dom = QCheck.make ~print:Strace.to_string (random_trace_gen dom)

let arbitrary_trace_pair dom =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "%a / %a" Strace.pp a Strace.pp b)
    QCheck.Gen.(pair (random_trace_gen dom) (random_trace_gen dom))

(* Strace round-trip through algebraic terms. *)
let prop_trace_roundtrip =
  QCheck.Test.make ~name:"trace to_aterm/of_aterm roundtrip" ~count:200
    (arbitrary_trace domain) (fun t ->
      match Strace.of_aterm university.Spec.signature
              (Strace.to_aterm university.Spec.signature t)
      with
      | Some t' -> Strace.equal t t'
      | None -> false)

(* Observational equivalence is preserved by applying the same update:
   the congruence property underlying the quotient graph construction. *)
let prop_equiv_congruence =
  QCheck.Test.make ~name:"observational equivalence is a congruence" ~count:100
    (arbitrary_trace_pair small_domain) (fun (t1, t2) ->
      QCheck.assume (Observe.equiv ~domain:small_domain university t1 t2);
      List.for_all
        (fun (u, args) ->
          Observe.equiv ~domain:small_domain university
            (Strace.apply u args t1) (Strace.apply u args t2))
        [
          ("offer", [ v "cs101" ]);
          ("cancel", [ v "cs101" ]);
          ("enroll", [ v "ana"; v "cs101" ]);
        ])

(* The static constraint holds on every random trace (4.4b, randomized). *)
let prop_static_invariant =
  QCheck.Test.make ~name:"static constraint holds on random traces" ~count:200
    (arbitrary_trace domain) (fun t ->
      let dom = domain in
      List.for_all
        (fun c ->
          List.for_all
            (fun s ->
              let takes =
                Eval.query_on_trace ~domain:dom university ~q:"takes"
                  ~params:[ s; c ] t
              in
              let offered =
                Eval.query_on_trace ~domain:dom university ~q:"offered" ~params:[ c ] t
              in
              match (takes, offered) with
              | Ok (Value.Bool true), Ok (Value.Bool o) -> o
              | Ok _, Ok _ -> true
              | _ -> false)
            (Domain.carrier dom "student"))
        (Domain.carrier dom "course"))

(* Level-2 rewriting and level-3 procedures agree on random traces. *)
let prop_cross_level_random =
  QCheck.Test.make ~name:"levels 2 and 3 agree on random traces" ~count:100
    (arbitrary_trace domain) (fun t ->
      let env = Semantics.env ~domain Fdbs.University.representation in
      let rec db_of = function
        | Strace.Init _ ->
          Semantics.call_det_exn env "initiate" []
            (Schema.empty_db Fdbs.University.representation)
        | Strace.Apply (u, args, rest) -> Semantics.call_det_exn env u args (db_of rest)
      in
      let db = db_of t in
      List.for_all
        (fun c ->
          let l2 =
            Eval.query_on_trace ~domain university ~q:"offered" ~params:[ c ] t
          in
          let l3 =
            Semantics.query env db (Formula.Pred ("OFFERED", [ Term.Lit c ]))
          in
          match l2 with Ok (Value.Bool b) -> b = l3 | _ -> false)
        (Domain.carrier domain "course"))

(* ------------------------------------------------------------------ *)
(* Relational algebra laws on random relations                         *)
(* ------------------------------------------------------------------ *)

let random_relation_gen =
  let open QCheck.Gen in
  let value = map (fun i -> Value.Sym (Fmt.str "v%d" i)) (int_range 0 5) in
  let tuple = pair value value in
  let* tuples = list_size (int_range 0 12) tuple in
  return (Relation.of_list [ "a"; "b" ] (List.map (fun (x, y) -> [ x; y ]) tuples))

let arbitrary_relation =
  QCheck.make ~print:(Fmt.str "%a" Relation.pp) random_relation_gen

let arbitrary_relation_pair =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "%a / %a" Relation.pp a Relation.pp b)
    QCheck.Gen.(pair random_relation_gen random_relation_gen)

let prop_union_commutative =
  QCheck.Test.make ~name:"relation union commutative" ~count:200 arbitrary_relation_pair
    (fun (a, b) -> Relation.equal (Relation.union a b) (Relation.union b a))

let prop_diff_inter_disjoint =
  QCheck.Test.make ~name:"diff and inter partition" ~count:200 arbitrary_relation_pair
    (fun (a, b) ->
      let d = Relation.diff a b and i = Relation.inter a b in
      Relation.equal a (Relation.union d i) && Relation.is_empty (Relation.inter d b))

let prop_select_distributes_over_union =
  QCheck.Test.make ~name:"selection distributes over union" ~count:200
    arbitrary_relation_pair (fun (a, b) ->
      let p row = match row with x :: _ -> Value.equal x (Value.Sym "v0") | [] -> false in
      Relation.equal
        (Relation.filter p (Relation.union a b))
        (Relation.union (Relation.filter p a) (Relation.filter p b)))

let prop_active_domain_covers =
  QCheck.Test.make ~name:"active domain covers every tuple value" ~count:200
    arbitrary_relation (fun r ->
      let d = Relation.active_domain r in
      Relation.for_all
        (fun row ->
          List.for_all2 (fun value srt -> Domain.mem d srt value) row (Relation.sorts r))
        r)

(* ------------------------------------------------------------------ *)
(* The indexed relation is observationally a list model                *)
(* ------------------------------------------------------------------ *)

(* Oracle: plain sorted-unique tuple lists with naive list operations.
   Every observable of the hash-indexed Relation must agree with it. *)
let tuple_compare = List.compare Value.compare
let model_of_list tuples = List.sort_uniq tuple_compare tuples

let random_tuples_gen n_values size =
  let open QCheck.Gen in
  let value = map (fun i -> Value.Sym (Fmt.str "v%d" i)) (int_range 0 n_values) in
  list_size (int_range 0 size) (map (fun (x, y) -> [ x; y ]) (pair value value))

let arbitrary_tuples_and_probe =
  QCheck.make
    ~print:(fun (tus, probe) ->
      Fmt.str "%a ? %a" Fmt.(list Relation.Tuple.pp) tus Relation.Tuple.pp probe)
    QCheck.Gen.(
      pair (random_tuples_gen 5 40)
        (map2 (fun x y -> [ x; y ])
           (map (fun i -> Value.Sym (Fmt.str "v%d" i)) (int_range 0 5))
           (map (fun i -> Value.Sym (Fmt.str "v%d" i)) (int_range 0 5))))

(* Every tuple the generators can produce: values v0..v5 in both
   columns. *)
let all_candidates =
  let vs = List.init 6 (fun i -> Value.Sym (Fmt.str "v%d" i)) in
  List.concat_map (fun x -> List.map (fun y -> [ x; y ]) vs) vs

let model_mem model probe = List.exists (fun tu -> tuple_compare tu probe = 0) model

let prop_model_membership =
  QCheck.Test.make ~name:"indexed membership agrees with the list model" ~count:300
    arbitrary_tuples_and_probe (fun (tuples, probe) ->
      let r = Relation.of_list [ "a"; "b" ] tuples in
      (* A relation probes its tree until the probes pay for a table:
         sweeping every candidate twice takes more probes than the
         relation has tuples, so the answers come from both sides of
         the table build. *)
      let answers =
        (probe :: all_candidates) @ all_candidates @ [ probe ]
        |> List.map (fun tu -> (tu, Relation.mem tu r))
      in
      List.for_all (fun (tu, got) -> got = model_mem tuples tu) answers)

(* Random update sequences against the list model: after every step,
   cardinality, membership, column lookups and contents agree, and a
   no-op [add] or [remove] returns the relation itself. *)
type rel_op =
  | Op_add of Relation.Tuple.t
  | Op_remove of Relation.Tuple.t
  | Op_union of Relation.Tuple.t list
  | Op_diff of Relation.Tuple.t list
  | Op_filter of Value.t  (** keep rows whose first column differs *)

let pp_rel_op ppf = function
  | Op_add tu -> Fmt.pf ppf "add %a" Relation.Tuple.pp tu
  | Op_remove tu -> Fmt.pf ppf "remove %a" Relation.Tuple.pp tu
  | Op_union tus -> Fmt.pf ppf "union %a" Fmt.(list Relation.Tuple.pp) tus
  | Op_diff tus -> Fmt.pf ppf "diff %a" Fmt.(list Relation.Tuple.pp) tus
  | Op_filter v -> Fmt.pf ppf "filter #0 /= %a" Value.pp v

let rel_op_gen =
  let open QCheck.Gen in
  let tuple = oneofl all_candidates in
  frequency
    [
      (4, map (fun tu -> Op_add tu) tuple);
      (3, map (fun tu -> Op_remove tu) tuple);
      (1, map (fun tus -> Op_union tus) (list_size (int_range 0 6) tuple));
      (1, map (fun tus -> Op_diff tus) (list_size (int_range 0 6) tuple));
      (1, map (fun i -> Op_filter (Value.Sym (Fmt.str "v%d" i))) (int_range 0 5));
    ]

let prop_model_update_sequences =
  QCheck.Test.make ~name:"update sequences agree with the list model" ~count:300
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_rel_op))
       QCheck.Gen.(list_size (int_range 0 40) rel_op_gen))
    (fun ops ->
      let sorts = [ "a"; "b" ] in
      let step (r, model) = function
        | Op_add tu ->
          let r' = Relation.add tu r in
          if model_mem model tu && r' != r then QCheck.Test.fail_report "no-op add copied";
          (r', model_of_list (tu :: model))
        | Op_remove tu ->
          let r' = Relation.remove tu r in
          if (not (model_mem model tu)) && r' != r then
            QCheck.Test.fail_report "no-op remove copied";
          (r', List.filter (fun x -> tuple_compare x tu <> 0) model)
        | Op_union tus ->
          (Relation.union r (Relation.of_list sorts tus), model_of_list (tus @ model))
        | Op_diff tus ->
          ( Relation.diff r (Relation.of_list sorts tus),
            List.filter (fun x -> not (model_mem tus x)) model )
        | Op_filter v ->
          let keep = function x :: _ -> not (Value.equal x v) | [] -> true in
          (Relation.filter keep r, List.filter keep model)
      in
      let values = List.init 6 (fun i -> Value.Sym (Fmt.str "v%d" i)) in
      let agrees (r, model) =
        Relation.cardinal r = List.length model
        && Relation.to_list r = model
        && List.for_all (fun tu -> Relation.mem tu r = model_mem model tu) all_candidates
        && List.for_all
             (fun col ->
               List.for_all
                 (fun x ->
                   List.sort tuple_compare (Relation.find_by ~col x r)
                   = List.filter (fun tu -> Value.equal (List.nth tu col) x) model)
                 values)
             [ 0; 1 ]
      in
      let _ =
        List.fold_left
          (fun st op ->
            let st' = step st op in
            if not (agrees st') then
              QCheck.Test.fail_reportf "disagrees after %a" pp_rel_op op;
            st')
          (Relation.empty sorts, []) ops
      in
      true)

let prop_model_union_to_list =
  QCheck.Test.make ~name:"union/to_list agree with the list model" ~count:200
    arbitrary_relation_pair (fun (a, b) ->
      let model =
        model_of_list (Relation.to_list a @ Relation.to_list b)
      in
      Relation.to_list (Relation.union a b) = model)

let prop_model_equal_and_hash =
  QCheck.Test.make ~name:"equality matches the list model; equal => same hash"
    ~count:300 arbitrary_relation_pair (fun (a, b) ->
      let model_eq = Relation.to_list a = Relation.to_list b in
      Relation.equal a b = model_eq
      && ((not model_eq) || Relation.hash a = Relation.hash b))

(* compose needs sorts [a; m] / [m; b]; build both sides from scratch *)
let arbitrary_composable =
  QCheck.make
    ~print:(fun (xs, ys) ->
      Fmt.str "%a ; %a" Fmt.(list Relation.Tuple.pp) xs Fmt.(list Relation.Tuple.pp) ys)
    QCheck.Gen.(pair (random_tuples_gen 4 25) (random_tuples_gen 4 25))

let prop_model_compose =
  QCheck.Test.make ~name:"indexed compose agrees with the list model" ~count:300
    arbitrary_composable (fun (xs, ys) ->
      let a = Relation.of_list [ "a"; "m" ] xs in
      let b = Relation.of_list [ "m"; "b" ] ys in
      let model =
        model_of_list
          (List.concat_map
             (fun tu ->
               match tu with
               | [ x; y ] ->
                 List.filter_map
                   (function
                     | [ y'; z ] when Value.equal y y' -> Some [ x; z ]
                     | _ -> None)
                   ys
               | _ -> [])
             xs)
      in
      Relation.to_list (Relation.compose a b) = model)

let prop_model_closure =
  QCheck.Test.make ~name:"transitive closure agrees with the list model" ~count:200
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list Relation.Tuple.pp))
       (random_tuples_gen 4 12))
    (fun edges ->
      let r = Relation.of_list [ "n"; "n" ] edges in
      (* naive closure on lists: iterate edge-extension to fixpoint *)
      let extend paths =
        model_of_list
          (paths
          @ List.concat_map
              (fun p ->
                match p with
                | [ x; y ] ->
                  List.filter_map
                    (function
                      | [ y'; z ] when Value.equal y y' -> Some [ x; z ]
                      | _ -> None)
                    edges
                | _ -> [])
              paths)
      in
      let rec fix paths =
        let next = extend paths in
        if next = paths then paths else fix next
      in
      Relation.to_list (Relation.transitive_closure r) = fix (model_of_list edges))

(* The indexed Denote.compose agrees with the retained naive oracle. *)
let prop_denote_compose_equiv =
  QCheck.Test.make ~name:"Denote.compose agrees with compose_naive" ~count:300
    QCheck.(
      pair
        (small_list (pair (int_bound 20) (int_bound 20)))
        (small_list (pair (int_bound 20) (int_bound 20))))
    (fun (r1, r2) ->
      Denote.compose r1 r2 = Denote.compose_naive r1 r2)

(* ------------------------------------------------------------------ *)
(* Desugaring preserves the semantics of derived statements            *)
(* ------------------------------------------------------------------ *)

let schema = Fdbs.University.representation

let random_stmt_gen =
  let open QCheck.Gen in
  let course = oneofl [ v "cs101"; v "cs102" ] in
  let student = oneofl [ v "ana"; v "bob" ] in
  let atom =
    oneof
      [
        map (fun c -> Stmt.Insert ("OFFERED", [ Term.Lit c ])) course;
        map (fun c -> Stmt.Delete ("OFFERED", [ Term.Lit c ])) course;
        map2 (fun s c -> Stmt.Insert ("TAKES", [ Term.Lit s; Term.Lit c ])) student course;
        map2 (fun s c -> Stmt.Delete ("TAKES", [ Term.Lit s; Term.Lit c ])) student course;
        return Stmt.Skip;
      ]
  in
  let cond = map (fun c -> Formula.Pred ("OFFERED", [ Term.Lit c ])) course in
  let rec gen n =
    if n <= 0 then atom
    else
      frequency
        [
          (3, atom);
          (2, map2 (fun a b -> Stmt.Seq (a, b)) (gen (n / 2)) (gen (n / 2)));
          (1, map2 (fun a b -> Stmt.Union (a, b)) (gen (n / 2)) (gen (n / 2)));
          (1, map3 (fun c a b -> Stmt.If (c, a, b)) cond (gen (n / 2)) (gen (n / 2)));
          (1, map (fun c -> Stmt.Test c) cond);
        ]
  in
  gen 6

let arbitrary_stmt = QCheck.make ~print:(Fmt.str "%a" Stmt.pp) random_stmt_gen

let prop_desugar_preserves_semantics =
  QCheck.Test.make ~name:"desugaring preserves statement outcomes" ~count:150
    arbitrary_stmt (fun s ->
      let env = Semantics.env ~domain schema in
      let db0 =
        Semantics.call_det_exn env "initiate" [] (Schema.empty_db schema)
        |> Db.with_relation "OFFERED"
             (Relation.of_list [ "course" ] [ [ v "cs101" ] ])
      in
      let core = Stmt.desugar ~sorts_of:(Schema.sorts_of schema) s in
      let norm dbs = List.sort compare (List.map Db.key dbs) in
      norm (Semantics.exec env s db0) = norm (Semantics.exec env core db0))

(* Relational-term evaluation strategies agree on random statements'
   desugared assignments. *)
let prop_strategies_agree =
  QCheck.Test.make ~name:"naive and compiled strategies agree on exec" ~count:150
    arbitrary_stmt (fun s ->
      let env_naive = Semantics.env ~strategy:`Naive ~domain schema in
      let env_auto = Semantics.env ~strategy:`Auto ~domain schema in
      let db0 = Semantics.call_det_exn env_auto "initiate" [] (Schema.empty_db schema) in
      let core = Stmt.desugar ~sorts_of:(Schema.sorts_of schema) s in
      let norm dbs = List.sort compare (List.map Db.key dbs) in
      norm (Semantics.exec env_naive core db0) = norm (Semantics.exec env_auto core db0))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_trace_roundtrip;
      prop_equiv_congruence;
      prop_static_invariant;
      prop_cross_level_random;
      prop_union_commutative;
      prop_diff_inter_disjoint;
      prop_select_distributes_over_union;
      prop_active_domain_covers;
      prop_model_membership;
      prop_model_update_sequences;
      prop_model_union_to_list;
      prop_model_equal_and_hash;
      prop_model_compose;
      prop_model_closure;
      prop_denote_compose_equiv;
      prop_desugar_preserves_semantics;
      prop_strategies_agree;
    ]

(* The synthesized schema and the paper's hand schema compute the same
   database on random traces. *)
let synthesized_schema =
  match
    Fdbs_refine.Synthesize.schema ~name:"university_synth"
      university.Spec.signature Fdbs.University.descriptions
  with
  | Ok sc -> sc
  | Error e -> invalid_arg e.Fdbs_kernel.Error.message

let prop_synthesized_agrees_on_random_traces =
  QCheck.Test.make ~name:"synthesized schema agrees with hand schema" ~count:100
    (arbitrary_trace domain) (fun t ->
      let run sc =
        let env = Semantics.env ~domain sc in
        let rec db_of = function
          | Strace.Init _ -> Semantics.call_det_exn env "initiate" [] (Schema.empty_db sc)
          | Strace.Apply (u, args, rest) -> Semantics.call_det_exn env u args (db_of rest)
        in
        db_of t
      in
      let a = run Fdbs.University.representation in
      let b = run synthesized_schema in
      (* compare the relation contents modulo the relations' names,
         which coincide for the university *)
      List.for_all2
        (fun (n1, r1) (n2, r2) -> n1 = n2 && Relation.equal r1 r2)
        (Db.relations a) (Db.relations b))

(* Observational equivalence is an equivalence relation on random traces. *)
let prop_equiv_reflexive_symmetric =
  QCheck.Test.make ~name:"observational equivalence reflexive and symmetric" ~count:100
    (arbitrary_trace_pair small_domain) (fun (t1, t2) ->
      Observe.equiv ~domain:small_domain university t1 t1
      && Observe.equiv ~domain:small_domain university t1 t2
         = Observe.equiv ~domain:small_domain university t2 t1)

(* ------------------------------------------------------------------ *)
(* The query planner: full safe-calculus compilation and the plan cache *)
(* ------------------------------------------------------------------ *)

(* Random safe bodies over TAKES/OFFERED with head (s, c) — including
   quantifiers and negation. Safety comes from the positive TAKES(s, c)
   guard conjoined at the top, present in every DNF clause; every
   quantified subformula uses its bound variable, so nothing falls back
   to the carrier. *)
let random_safe_rterm_gen =
  let open QCheck.Gen in
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  let s2 = { Term.vname = "s2"; vsort = "student" } in
  let c2 = { Term.vname = "c2"; vsort = "course" } in
  let takes a b = Formula.Pred ("TAKES", [ Term.Var a; Term.Var b ]) in
  let offered a = Formula.Pred ("OFFERED", [ Term.Var a ]) in
  let atom =
    oneofl
      [
        takes sv cv;
        offered cv;
        Formula.Eq (Term.Var cv, Term.Lit (v "cs101"));
        Formula.Eq (Term.Var sv, Term.Lit (v "ana"));
        Formula.Exists (s2, takes s2 cv);
        Formula.Exists (c2, Formula.And (takes sv c2, offered c2));
        Formula.Forall (s2, Formula.Imp (takes s2 cv, offered cv));
        Formula.Forall (c2, Formula.Imp (takes sv c2, offered c2));
      ]
  in
  let rec gen n =
    if n <= 0 then atom
    else
      frequency
        [
          (3, atom);
          (2, map (fun f -> Formula.Not f) (gen (n - 1)));
          (2, map2 (fun f g -> Formula.And (f, g)) (gen (n / 2)) (gen (n / 2)));
          (2, map2 (fun f g -> Formula.Or (f, g)) (gen (n / 2)) (gen (n / 2)));
          (1, map2 (fun f g -> Formula.Imp (f, g)) (gen (n / 2)) (gen (n / 2)));
          ( 1,
            map
              (fun f -> Formula.Exists (s2, Formula.And (takes s2 cv, f)))
              (gen (n - 1)) );
        ]
  in
  map
    (fun body ->
      { Stmt.rt_vars = [ sv; cv ]; rt_body = Formula.And (takes sv cv, body) })
    (gen 5)

(* Random university states over the 2x2 domain, so the active domain
   stays inside the evaluation domain's carriers (the equivalence
   invariant of compiled evaluation). *)
let random_univ_db_gen =
  let open QCheck.Gen in
  let course = oneofl [ v "cs101"; v "cs102" ] in
  let student = oneofl [ v "ana"; v "bob" ] in
  let* offered = list_size (int_range 0 3) course in
  let* takes = list_size (int_range 0 4) (pair student course) in
  return
    (Schema.empty_db schema
    |> Db.with_relation "OFFERED"
         (Relation.of_list [ "course" ] (List.map (fun c -> [ c ]) offered))
    |> Db.with_relation "TAKES"
         (Relation.of_list [ "student"; "course" ]
            (List.map (fun (s, c) -> [ s; c ]) takes)))

let arbitrary_safe_rterm_and_db =
  QCheck.make
    ~print:(fun (rt, db) -> Fmt.str "%a @@ %a" Stmt.pp_rterm rt Db.pp db)
    QCheck.Gen.(pair random_safe_rterm_gen random_univ_db_gen)

let rel_arity r = List.length (Schema.sorts_of schema r)

(* Every safe body compiles (no naive fallback), and both the raw and
   the optimized plan agree with the naive oracle. *)
let prop_safe_bodies_compile =
  QCheck.Test.make ~name:"safe bodies always compile; compiled = naive" ~count:300
    arbitrary_safe_rterm_and_db (fun (rt, db) ->
      match Relalg.compile rt with
      | None -> false
      | Some e ->
        let naive = Relcalc.eval_rterm_naive ~domain db rt in
        Relation.equal (Relalg.eval ~domain db e) naive
        && Relation.equal (Relalg.eval ~domain db (Relalg.optimize ~rel_arity e)) naive)

(* Closed wffs (the constraint-checking shape) compile to 0-ary plans
   whose emptiness test agrees with naive recursive evaluation. *)
let prop_wff_compiles =
  QCheck.Test.make ~name:"closed safe wffs compile; emptiness = holds" ~count:300
    arbitrary_safe_rterm_and_db (fun (rt, db) ->
      let check wff =
        match Relalg.compile_wff wff with
        | None -> false
        | Some e ->
          let plan_truth =
            not (Relation.is_empty (Relalg.eval ~domain db (Relalg.optimize ~rel_arity e)))
          in
          plan_truth = Relcalc.holds ~domain db wff
      in
      check (Formula.exists rt.Stmt.rt_vars rt.Stmt.rt_body)
      && check (Formula.forall rt.Stmt.rt_vars (Formula.Not rt.Stmt.rt_body)))

(* Warm cache hits return the very same relation contents. *)
let prop_plan_cache_stable =
  QCheck.Test.make ~name:"plan cache returns identical relations on repeat" ~count:100
    arbitrary_safe_rterm_and_db (fun (rt, db) ->
      let first = Planner.eval_rterm ~strategy:`Compiled ~schema ~domain db rt in
      let hits1, _ = Planner.stats () in
      let second = Planner.eval_rterm ~strategy:`Compiled ~schema ~domain db rt in
      let hits2, _ = Planner.stats () in
      Relation.equal first second
      && hits2 > hits1
      && Planner.holds ~strategy:`Compiled ~schema ~domain db
           (Formula.exists rt.Stmt.rt_vars rt.Stmt.rt_body)
         = not (Relation.is_empty first))

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_synthesized_agrees_on_random_traces;
        prop_equiv_reflexive_symmetric;
        prop_safe_bodies_compile;
        prop_wff_compiles;
        prop_plan_cache_stable;
      ]
