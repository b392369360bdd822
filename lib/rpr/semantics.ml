(** The meaning functions of RPR (paper Section 5.1.2).

    [m] assigns to each statement a binary relation over the universe of
    database states; we realize it operationally as a set-of-outcomes
    function [exec : stmt -> db -> db list] — [m(s) = {(A,B) | B ∈ exec
    s A}]. Iteration [p*] is the reflexive-transitive closure, computed
    as a fixpoint with a state cap. [k] gives a procedure's meaning: the
    body's meaning in the state where the formal parameters hold the
    actual values (paper rule (7): [(A[c̄/Ȳ], B) ∈ m(S)]); the
    parameters' previous values are restored afterwards so a call leaves
    no trace beyond its effects on the database. *)

open Fdbs_kernel
open Fdbs_logic

type env = {
  schema : Schema.t;
  domain : Domain.t;  (** carriers for quantifiers and naive relational terms *)
  consts : (string * Value.t) list;  (** declared constants' values *)
  strategy : [ `Naive | `Compiled | `Auto ];  (** relational-term evaluation *)
  star_limit : int;  (** cap on distinct states explored by [p*] / [while] *)
  budget : Budget.t;  (** resource account every statement spends against *)
}

let env ?(consts = []) ?(strategy = `Auto) ?(star_limit = 10_000) ?budget ~domain
    schema =
  let default_consts =
    List.map (fun (n, _) -> (n, Value.Sym n)) schema.Schema.consts
  in
  let consts =
    consts @ List.filter (fun (n, _) -> not (List.mem_assoc n consts)) default_consts
  in
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  { schema; domain; consts; strategy; star_limit; budget }

let with_budget budget env = { env with budget }

exception Exec_error of string

let err fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

let dedup_states (dbs : Db.t list) : Db.t list =
  Util.dedup_hashed ~eq:Db.equal ~hash:Db.hash dbs

(* The distinct-state allowance for one fixpoint exploration: the
   ad-hoc [star_limit], tightened by the budget's state cap. *)
let iter_limit (env : env) = Budget.cap_states env.budget env.star_limit

(* Report a truncated fixpoint: budget exhaustion when the budget's cap
   was the binding constraint, the classic [Exec_error] otherwise. *)
let truncated_fixpoint (env : env) what =
  if iter_limit env < env.star_limit then raise (Budget.Exhausted Budget.States)
  else err "%s exceeded the %d-state limit" what env.star_limit

(* Closed-wff truth under the environment's strategy: compiled plans
   (via the planner's cache) where the wff is safe, naive [Logic.Eval]
   recursion otherwise. Tests, conditionals, loop guards, constraint
   checks and [query] all route through here. *)
let holds (env : env) (db : Db.t) (f : Formula.t) : bool =
  Planner.holds ~strategy:env.strategy ~schema:env.schema ~domain:env.domain
    ~consts:env.consts db f

let c_statements = Metrics.counter "semantics.statements"

let stmt_label = function
  | Stmt.Skip -> "stmt.skip"
  | Stmt.Scalar_assign _ -> "stmt.scalar-assign"
  | Stmt.Rel_assign _ -> "stmt.rel-assign"
  | Stmt.Test _ -> "stmt.test"
  | Stmt.Union _ -> "stmt.union"
  | Stmt.Seq _ -> "stmt.seq"
  | Stmt.Star _ -> "stmt.star"
  | Stmt.If _ -> "stmt.if"
  | Stmt.While _ -> "stmt.while"
  | Stmt.Insert _ -> "stmt.insert"
  | Stmt.Delete _ -> "stmt.delete"

(** Operational form of the meaning function [m]: all outcome states of
    running [stmt] in [db]. An empty list means the statement is
    blocked (its tests admit no outcome).

    Every statement is a [semantics] span when tracing is on (nested
    statements nest their spans), and counts into the
    [semantics.statements] metric always. *)
let rec exec (env : env) (stmt : Stmt.t) (db : Db.t) : Db.t list =
  if Trace.enabled () then
    Trace.with_span ~cat:"semantics" (stmt_label stmt) (fun () ->
        let outs = exec_raw env stmt db in
        Trace.add_attr "outcomes" (string_of_int (List.length outs));
        outs)
  else exec_raw env stmt db

and exec_raw (env : env) (stmt : Stmt.t) (db : Db.t) : Db.t list =
  Budget.spend_step env.budget;
  Fault.hit "semantics.exec";
  Metrics.incr c_statements;
  match stmt with
  | Stmt.Skip -> [ db ]
  | Stmt.Scalar_assign (x, t) ->
    let v = Relcalc.eval_term ~domain:env.domain ~consts:env.consts db t in
    [ Db.with_scalar x v db ]
  | Stmt.Rel_assign (r, rt) ->
    (match Schema.find_relation env.schema r with
     | None -> err "assignment to undeclared relation %s" r
     | Some _ ->
       let rel =
         Planner.eval_rterm ~strategy:env.strategy ~schema:env.schema
           ~domain:env.domain ~consts:env.consts db rt
       in
       [ Db.with_relation r rel db ])
  | Stmt.Test f ->
    if holds env db f then [ db ] else []
  | Stmt.Union (p, q) -> dedup_states (exec env p db @ exec env q db)
  | Stmt.Seq (p, q) ->
    dedup_states (List.concat_map (exec env q) (exec env p db))
  | Stmt.Star p ->
    let states, truncated =
      Util.bfs_fixpoint ~eq:Db.equal ~hash:Db.hash ~limit:(iter_limit env)
        ~step:(exec env p) [ db ]
    in
    if truncated then truncated_fixpoint env "iteration" else states
  | Stmt.If (c, p, q) -> if holds env db c then exec env p db else exec env q db
  | Stmt.While (c, p) ->
    (* The desugaring [((c?; p))*; (~c)?] made operational: explore the
       c-states reachable through p with a visited set, so the state cap
       bounds total distinct states — a nondeterministic body that
       revisits states no longer re-explores them (and no longer burns
       fuel exponentially); outcomes are the explored states where c
       fails. *)
    let holds db = holds env db c in
    let step db = if holds db then exec env p db else [] in
    let states, truncated =
      Util.bfs_fixpoint ~eq:Db.equal ~hash:Db.hash ~limit:(iter_limit env) ~step [ db ]
    in
    if truncated then truncated_fixpoint env "while loop"
    else List.filter (fun db -> not (holds db)) states
  | Stmt.Insert (r, ts) ->
    let tu = List.map (Relcalc.eval_term ~domain:env.domain ~consts:env.consts db) ts in
    [ Db.with_relation r (Relation.add tu (Db.relation_exn db r)) db ]
  | Stmt.Delete (r, ts) ->
    let tu = List.map (Relcalc.eval_term ~domain:env.domain ~consts:env.consts db) ts in
    [ Db.with_relation r (Relation.remove tu (Db.relation_exn db r)) db ]

(** Procedure meaning [k] (paper rule (7)): run the body with the
    formal parameters bound to [args]; restore the parameters' previous
    scalar values in every outcome. *)
let call_raw (env : env) (proc : Schema.proc) (args : Value.t list) (db : Db.t) :
  Db.t list =
  Fault.hit "semantics.call";
  if List.length args <> List.length proc.Schema.pparams then
    err "procedure %s expects %d arguments, got %d" proc.Schema.pname
      (List.length proc.Schema.pparams) (List.length args);
  let saved = List.map (fun (n, _) -> (n, Db.scalar db n)) proc.Schema.pparams in
  let db' =
    List.fold_left2
      (fun db (n, _) v -> Db.with_scalar n v db)
      db proc.Schema.pparams args
  in
  let restore out =
    List.fold_left
      (fun out (n, old) ->
        match old with
        | Some v -> Db.with_scalar n v out
        | None -> { out with Db.scalars = Db.SMap.remove n out.Db.scalars })
      out saved
  in
  List.map restore (exec env proc.Schema.body db') |> dedup_states

(** Procedure meaning [k], traced as a [semantics.call] span. *)
let call (env : env) (proc : Schema.proc) (args : Value.t list) (db : Db.t) :
  Db.t list =
  if Trace.enabled () then
    Trace.with_span ~cat:"semantics"
      ~args:[ ("proc", proc.Schema.pname) ]
      "semantics.call"
      (fun () -> call_raw env proc args db)
  else call_raw env proc args db

(** Call a procedure by name, requiring a single (deterministic)
    outcome. Execution-level failures come back as a structured
    {!Fdbs_kernel.Error.t} (the message carries the classic string);
    budget exhaustion and injected faults still raise, as for
    {!call}. *)
let call_det (env : env) (name : string) (args : Value.t list) (db : Db.t) :
  (Db.t, Error.t) result =
  let fail code fmt =
    Fmt.kstr (fun m -> Result.Error (Error.make Error.Exec code m)) fmt
  in
  match Schema.find_proc env.schema name with
  | None -> fail (Error.Unknown_procedure name) "unknown procedure %s" name
  | Some proc ->
    (match call env proc args db with
     | [ out ] -> Ok out
     | [] -> fail Error.Blocked "procedure %s blocked (no outcome)" name
     | outs ->
       fail (Error.Nondeterministic (List.length outs))
         "procedure %s has %d distinct outcomes" name (List.length outs)
     | exception Exec_error e -> fail Error.Exec_failure "%s" e)

let call_det_exn env name args db =
  match call_det env name args db with
  | Ok out -> out
  | Error e -> invalid_arg ("Semantics.call_det_exn: " ^ e.Error.message)

(** Truth of a closed wff in a state, under the environment's domain and
    constants — the query side of the DML (paper Section 5.2:
    expressions [R(t̄)] yield True iff [t̄ ∈ R]). *)
let query (env : env) (db : Db.t) (f : Formula.t) : bool =
  if Trace.enabled () then
    Trace.with_span ~cat:"semantics" "semantics.query" (fun () ->
        let v = holds env db f in
        Trace.add_attr "verdict" (string_of_bool v);
        v)
  else holds env db f

(** Like {!query}, maintained differentially: [before] is the committed
    state the planner's materialization cache last published against,
    [delta] the exact difference to [db]. Returns the verdict and the
    publish thunk of {!Planner.holds_delta} — run it only once the
    surrounding commit succeeded. [shared:false] keeps ad-hoc wffs out
    of the shared per-schema cache. *)
let query_delta (env : env) ~(before : Db.t) ~(delta : Delta.t) ?shared
    (db : Db.t) (f : Formula.t) : bool * (unit -> unit) =
  let check () =
    Planner.holds_delta ~strategy:env.strategy ~schema:env.schema
      ~domain:env.domain ~consts:env.consts ~before ~delta ?shared db f
  in
  if Trace.enabled () then
    Trace.with_span ~cat:"semantics" "semantics.query" (fun () ->
        let v, publish = check () in
        Trace.add_attr "verdict" (string_of_bool v);
        (v, publish))
  else check ()
