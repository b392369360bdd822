(** Streaming temporal monitors (see the interface for the design).

    The compilation pipeline per axiom: rename the theory's
    db-predicates to their homonym relations (the same canonical
    correspondence the refinement levels use), translate the temporal
    wff through {!Fdbs_temporal.Timesort} into a first-order wff over
    the time-widened monitor schema, close the free [now] variable with
    a literal time point, and hand the result to the {!Planner}. One
    window database of D + 1 time slots (D the theory's largest modal
    depth) plays the recent universe of every axiom; consecutive
    windows differ by the last D + 1 commit deltas, each tagged with
    its slot, which is what lets {!Delta.advance} carry
    materializations across commits instead of re-evaluating plans. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_temporal

type event = {
  ev_axiom : string;
  ev_kind : Tformula.kind;
  ev_state : int;
}

type compiled = {
  m_name : string;
  m_kind : Tformula.kind;
  m_depth : int;
  m_wff : Formula.t;
  m_compiled : bool;
  mutable m_violations : int;
}

type t = {
  theory_name : string;
  schema : Schema.t;
  mschema : Schema.t;
  consts : (string * Value.t) list;
  mons : compiled list;
  plans : (string * Relalg.expr) list;  (** per-axiom compiled plans *)
  skipped : (string * string) list;
  max_depth : int;  (** D: the window holds D + 1 states *)
  mdomain_times : Domain.t;  (** the time carrier, unioned per check *)
  lock : Mutex.t;
  mutable commits : int;
  mutable last : Db.t option;  (** the last published state *)
  mutable mdb : Db.t;  (** its window: slot j holds state [commits - D + j] *)
  mutable deltas : Delta.t list;  (** the last D commit deltas, oldest first *)
  mutable mats : (string * Delta.node) list;
  mutable total_violations : int;
}

let c_checks = Metrics.counter "monitor.checks"
let c_violations = Metrics.counter "monitor.violations"
let c_hits = Metrics.counter "monitor.delta_hit"
let c_misses = Metrics.counter "monitor.delta_miss"
let c_fallback = Metrics.counter "monitor.delta_fallback"
let c_resync = Metrics.counter "monitor.resync"
let h_step_us = Metrics.histogram "monitor.step_us"

(* The free current-time variable of the translation. The name cannot
   clash with parsed object-language variables ('%' is not an
   identifier character), so closing it by substitution is exact. *)
let now_var = { Term.vname = "%now"; vsort = Timesort.time_sort }

let rec rename_preds ren (f : Tformula.t) : Tformula.t =
  let r = rename_preds ren in
  match f with
  | Tformula.True | Tformula.False | Tformula.Eq _ -> f
  | Tformula.Pred (p, args) -> (
    match List.assoc_opt (String.lowercase_ascii p) ren with
    | Some p' -> Tformula.Pred (p', args)
    | None -> f)
  | Tformula.Not g -> Tformula.Not (r g)
  | Tformula.And (g, h) -> Tformula.And (r g, r h)
  | Tformula.Or (g, h) -> Tformula.Or (r g, r h)
  | Tformula.Imp (g, h) -> Tformula.Imp (r g, r h)
  | Tformula.Iff (g, h) -> Tformula.Iff (r g, r h)
  | Tformula.Forall (v, g) -> Tformula.Forall (v, r g)
  | Tformula.Exists (v, g) -> Tformula.Exists (v, r g)
  | Tformula.Possibly g -> Tformula.Possibly (r g)
  | Tformula.Necessarily g -> Tformula.Necessarily (r g)

let rec used_preds (f : Tformula.t) : string list =
  match f with
  | Tformula.True | Tformula.False | Tformula.Eq _ -> []
  | Tformula.Pred (p, _) -> [ p ]
  | Tformula.Not g | Tformula.Forall (_, g) | Tformula.Exists (_, g)
  | Tformula.Possibly g | Tformula.Necessarily g ->
    used_preds g
  | Tformula.And (g, h) | Tformula.Or (g, h) | Tformula.Imp (g, h)
  | Tformula.Iff (g, h) ->
    used_preds g @ used_preds h

(* The monitor schema: every relation widened with a trailing [time]
   column, plus the accessibility relation. Its name (hence
   fingerprint) differs from the base schema's, so monitor plans can
   never collide with ordinary constraint plans in the shared cache. *)
let monitor_schema (schema : Schema.t) (tconsts : (string * Sort.t) list) :
    Schema.t =
  {
    Schema.name = schema.Schema.name ^ "+monitor";
    relations =
      List.map
        (fun (r : Schema.rel_decl) ->
          Schema.rel_decl r.Schema.rname
            (r.Schema.rsorts @ [ Timesort.time_sort ]))
        schema.Schema.relations
      @ [
          Schema.rel_decl Timesort.accessible
            [ Timesort.time_sort; Timesort.time_sort ];
        ];
    consts = tconsts;
    constraints = [];
    procs = [];
  }

let fail fmt = Fmt.kstr (fun m -> Result.Error (Error.make Error.Parse Error.Exec_failure m)) fmt

let compile ?(consts = []) ~(schema : Schema.t) (theory : Ttheory.t) :
    (t, Error.t) result =
  let tsig = theory.Ttheory.signature in
  let find_relation name =
    List.find_opt
      (fun (r : Schema.rel_decl) ->
        String.lowercase_ascii r.Schema.rname = String.lowercase_ascii name)
      schema.Schema.relations
  in
  (* Bind db-predicates to relations by the canonical (case-insensitive)
     name correspondence; a missing homonym or a sort disagreement is a
     compile error, not a silent skip. *)
  let rec bind ren = function
    | [] -> Ok (List.rev ren)
    | (p : Signature.pred) :: rest ->
      if not p.Signature.db then bind ren rest
      else (
        match find_relation p.Signature.pname with
        | None ->
          fail "db-predicate %s has no homonym relation in schema %s"
            p.Signature.pname schema.Schema.name
        | Some r ->
          if not (List.equal Sort.equal p.Signature.pargs r.Schema.rsorts) then
            fail "db-predicate %s and relation %s disagree on sorts"
              p.Signature.pname r.Schema.rname
          else
            bind ((String.lowercase_ascii p.Signature.pname, r.Schema.rname) :: ren) rest)
  in
  match bind [] tsig.Signature.preds with
  | Result.Error _ as e -> e
  | Ok ren ->
    let db_names = List.map snd ren in
    let shared_names =
      List.filter_map
        (fun (p : Signature.pred) ->
          if p.Signature.db then None else Some p.Signature.pname)
        tsig.Signature.preds
    in
    let tconsts =
      List.filter_map
        (fun (f : Signature.func) ->
          if f.Signature.fargs = [] then Some (f.Signature.fname, f.Signature.fres)
          else None)
        tsig.Signature.funcs
    in
    let mschema = monitor_schema schema tconsts in
    (* Declared constants default to their symbolic value (the same
       convention as naive evaluation); caller-supplied bindings win. *)
    let eval_consts =
      consts
      @ List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name consts then None
            else Some (name, Value.Sym name))
          tconsts
    in
    let rsig =
      {
        tsig with
        Signature.preds =
          List.map
            (fun (p : Signature.pred) ->
              match List.assoc_opt (String.lowercase_ascii p.Signature.pname) ren with
              | Some rname when p.Signature.db -> { p with Signature.pname = rname }
              | _ -> p)
            tsig.Signature.preds;
      }
    in
    let msig = Timesort.extend_signature rsig in
    let hosted, skipped =
      List.fold_left
        (fun (hosted, skipped) (ax : Ttheory.axiom) ->
          let name = ax.Ttheory.ax_name in
          let tf = rename_preds ren ax.Ttheory.ax_formula in
          let shared_used =
            List.filter
              (fun p ->
                List.mem p shared_names && not (List.mem p db_names))
              (used_preds tf)
          in
          if shared_used <> [] then
            ( hosted,
              (name,
               Fmt.str "mentions shared predicate%s %s (no relation to monitor)"
                 (if List.length shared_used > 1 then "s" else "")
                 (String.concat ", " shared_used))
              :: skipped )
          else ((name, tf) :: hosted, skipped))
        ([], []) theory.Ttheory.axioms
    in
    let hosted = List.rev hosted in
    let max_depth =
      List.fold_left (fun acc (_, tf) -> max acc (Tformula.modal_depth tf)) 1 hosted
    in
    let mons, plans =
      List.split
        (List.map
           (fun (name, tf) ->
             let depth = Tformula.modal_depth tf in
             (* Verdict time point: slot D holds the post-commit state,
                so an axiom of depth d speaks about slot D - d, the
                oldest state whose d successors the window holds. *)
             let f =
               Formula.subst
                 (Term.Subst.of_list
                    [ (now_var, Term.Lit (Value.Int (max_depth - depth))) ])
                 (Timesort.translate msig ~now:now_var tf)
             in
             let plan = Planner.plan_wff mschema f in
             ( {
                 m_name = name;
                 m_kind = Tformula.classify tf;
                 m_depth = depth;
                 m_wff = f;
                 m_compiled = plan <> None;
                 m_violations = 0;
               },
               Option.map (fun e -> (name, e)) plan ))
           hosted)
    in
    Ok
      {
        theory_name = theory.Ttheory.name;
        schema;
        mschema;
        consts = eval_consts;
        mons;
        plans = List.filter_map Fun.id plans;
        skipped = List.rev skipped;
        max_depth;
        mdomain_times =
          Domain.add Timesort.time_sort
            (List.init (max_depth + 1) (fun i -> Value.Int i))
            Domain.empty;
        lock = Mutex.create ();
        commits = 0;
        last = None;
        mdb = Db.empty;
        deltas = [];
        mats = [];
        total_violations = 0;
      }

let of_file ?consts ~schema path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> (
    match Tparser.theory text with
    | Ok theory -> compile ?consts ~schema theory
    | Result.Error msg ->
      Result.Error (Error.makef Error.Parse Error.Exec_failure "%s: %s" path msg))
  | exception Sys_error msg ->
    Result.Error (Error.make Error.Io Error.Io_failure msg)

let name t = t.theory_name
let monitors t = t.mons
let skipped t = t.skipped
let commits t = Mutex.protect t.lock (fun () -> t.commits)
let violations t = Mutex.protect t.lock (fun () -> t.total_violations)

(* ------------------------------------------------------------------ *)
(* Monitor databases                                                   *)
(* ------------------------------------------------------------------ *)

let widen_rel time (r : Relation.t) : Relation.t =
  Relation.of_list
    (Relation.sorts r @ [ Timesort.time_sort ])
    (List.map (fun tu -> tu @ [ Value.Int time ]) (Relation.to_list r))

(* The window database with every slot holding [db] (attach/resync):
   each relation widened once per slot 0..D, accessibility the
   one-step chain 0 -> 1 -> ... -> D. *)
let window_db (t : t) (db : Db.t) : Db.t =
  let slots = List.init (t.max_depth + 1) Fun.id in
  let db' =
    List.fold_left
      (fun acc (r : Schema.rel_decl) ->
        let rel =
          match Db.relation db r.Schema.rname with
          | Some rel -> rel
          | None -> Relation.empty r.Schema.rsorts
        in
        Db.with_relation r.Schema.rname
          (List.fold_left
             (fun u j -> Relation.union u (widen_rel j rel))
             (Relation.empty (r.Schema.rsorts @ [ Timesort.time_sort ]))
             slots)
          acc)
      Db.empty t.schema.Schema.relations
  in
  Db.with_relation Timesort.accessible
    (Relation.of_list
       [ Timesort.time_sort; Timesort.time_sort ]
       (List.init t.max_depth (fun j -> [ Value.Int j; Value.Int (j + 1) ])))
    db'

(* The window database's delta for one commit: slot j moves by the
   j-th of the last D+1 commit deltas (oldest first), tagged with time
   j. Tags keep the slots disjoint, so the insert/delete invariants
   carry over from the base deltas. *)
let window_delta (deltas : Delta.t list) : Delta.t =
  let tagged side =
    List.fold_left
      (fun (j, acc) d ->
        ( j + 1,
          Delta.SMap.union
            (fun _ a b -> Some (Relation.union a b))
            acc
            (Delta.SMap.map (widen_rel j) (side d)) ))
      (0, Delta.SMap.empty) deltas
    |> snd
  in
  {
    Delta.inserts = tagged (fun d -> d.Delta.inserts);
    deletes = tagged (fun d -> d.Delta.deletes);
    scalars_changed = false;
  }

(* The window restarted at [db]: every slot holds it, so the deltas of
   the D commits before it are empty. *)
let restart t db = (window_db t db, List.init t.max_depth (fun _ -> Delta.empty))

let attach t db =
  Mutex.protect t.lock (fun () ->
      let mdb, deltas = restart t db in
      t.commits <- 0;
      t.last <- Some db;
      t.mdb <- mdb;
      t.deltas <- deltas;
      t.mats <- [])

let error_of_event (ev : event) : Error.t =
  Error.makef
    ~context:[ ("monitor", ev.ev_axiom); ("state", string_of_int ev.ev_state) ]
    Error.Commit
    (Error.Monitor_violation ev.ev_axiom)
    "monitor %s violated at state %d" ev.ev_axiom ev.ev_state

let pp_event ppf (ev : event) =
  let kind =
    match ev.ev_kind with
    | Tformula.Static -> "static"
    | Tformula.Transition -> "transition"
  in
  Fmt.pf ppf "monitor %s (%s) violated at state %d" ev.ev_axiom kind ev.ev_state

(* [t] comes last so that [?delta] is erased by the positional
   argument: callers write [check t ~domain ~before ~after] as before. *)
let check ?delta ~domain ~(before : Db.t) ~(after : Db.t) (t : t) :
    event list * (unit -> unit) =
  Mutex.protect t.lock @@ fun () ->
  let t0 = Mclock.now_us () in
  let mdomain = Domain.union domain t.mdomain_times in
  let in_sync =
    match t.last with Some cur -> cur == before | None -> false
  in
  if (not in_sync) && t.last <> None then Metrics.incr c_resync;
  let k = if in_sync then t.commits + 1 else 1 in
  let (mdb, deltas), mats =
    if in_sync then ((t.mdb, t.deltas), t.mats) else (restart t before, [])
  in
  (* Slide the window: slot j moves by the delta of commit k - D + j. *)
  let delta =
    match delta with Some d -> d | None -> Delta.of_dbs ~before ~after
  in
  let deltas = deltas @ [ delta ] in
  let md = window_delta deltas in
  let mdb' = Delta.apply md mdb in
  let step (m : compiled) : bool * (string * Delta.node) option =
    match List.assoc_opt m.m_name t.plans with
    | None ->
      (* outside the safe fragment: naive evaluation every commit *)
      Metrics.incr c_fallback;
      (Relcalc.holds ~domain:mdomain ~consts:t.consts mdb' m.m_wff, None)
    | Some plan -> (
      let rebuild counter =
        Metrics.incr counter;
        let node = Delta.materialize ~domain:mdomain ~consts:t.consts mdb' plan in
        (not (Relation.is_empty node.Delta.out), Some (m.m_name, node))
      in
      match List.assoc_opt m.m_name mats with
      | Some node -> (
        match
          Delta.advance ~domain:mdomain ~consts:t.consts ~after:mdb' md plan node
        with
        | node', _ins, _del ->
          Metrics.incr c_hits;
          (not (Relation.is_empty node'.Delta.out), Some (m.m_name, node'))
        | exception Delta.Not_incremental -> rebuild c_fallback)
      | None -> rebuild c_misses)
  in
  let events = ref [] in
  let violated = ref [] in
  let mats' = ref [] in
  List.iter
    (fun (m : compiled) ->
      Metrics.incr c_checks;
      let holds, mat = step m in
      Option.iter (fun nm -> mats' := nm :: !mats') mat;
      (* an axiom of depth d speaks about state k - d, which exists
         once the window holds k >= d commits *)
      if k >= m.m_depth && not holds then (
        events :=
          { ev_axiom = m.m_name; ev_kind = m.m_kind; ev_state = k - m.m_depth }
          :: !events;
        violated := m :: !violated))
    t.mons;
  let events = List.rev !events in
  let violated = !violated in
  let mats' = List.rev !mats' in
  Metrics.observe_us h_step_us (Mclock.now_us () -. t0);
  let publish () =
    Mutex.protect t.lock (fun () ->
        t.commits <- k;
        t.last <- Some after;
        t.mdb <- mdb';
        t.deltas <- List.tl deltas;
        t.mats <- mats';
        t.total_violations <- t.total_violations + List.length events;
        List.iter (fun m -> m.m_violations <- m.m_violations + 1) violated;
        Metrics.add c_violations (List.length events))
  in
  (events, publish)

let advance t ~domain ~before ~after =
  let events, publish = check t ~domain ~before ~after in
  publish ();
  events
