(** Streaming temporal monitors: the information level's transition
    constraints (◇/□ wffs, paper Section 3.1) compiled into incremental
    checks that run on the live commit stream.

    Offline, a transition constraint is checked by building the whole
    universe of states and asking {!Fdbs_temporal.Check.check_axioms}.
    Online we never have the universe — only the current commit taking
    [before] to [after]. A monitor closes that gap with the paper's own
    alternative semantics: the time-sorted translation
    ({!Fdbs_temporal.Timesort}). Each axiom is translated into an
    ordinary first-order wff over a {e monitor schema} whose relations
    carry a trailing [time] column plus an [accessible] relation.

    One {e window} database serves every axiom of a theory: D + 1
    time slots, D the largest modal depth among its axioms (at least
    1), where at commit [k] slot [j] holds state [k - D + j] widened
    with time [j] and [accessible] is the one-step chain
    [0 -> 1 -> ... -> D]. The translated wff is closed by fixing the
    free time variable [now] to slot [D - d] for an axiom of depth [d]
    (slot D, the post-commit state, for a static one), so the
    {!Planner} compiles it into a plan like any other constraint. The
    window slides by deltas alone: commit [k + 1] moves slot [j] by
    the delta of commit [k - D + j + 1], so the window's delta is the
    last D + 1 commit deltas, each tagged with its slot, and the
    {!Delta} rules advance every axiom's materialization from commit
    to commit whatever its depth. The window is built from full states
    only at {!attach} and on resynchronization, with every slot
    holding the same state.

    Verdict timing follows modal depth. An axiom of depth [d] speaks
    at commit [k] about state [k - d]: a static axiom about the
    post-commit state, a one-step transition axiom about the
    pre-commit state, a nested one about the state [d] commits back.
    Until [k >= d] that state predates the window and the axiom emits
    nothing.

    Monitors follow the transactional publish discipline: {!check}
    computes prospective verdicts without mutating anything and returns
    a publish thunk; {!Txn.run}'s [on_commit] hook fires the thunk only
    after the journal append succeeded. A follower replays the same
    commits through the same path, so attaching monitors to a replica
    costs the leader nothing. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_temporal

type event = {
  ev_axiom : string;  (** the violated axiom's name *)
  ev_kind : Tformula.kind;
  ev_state : int;
      (** index (commits since {!attach}) of the state the verdict is
          about; lags the current commit by the axiom's modal depth *)
}

(** One compiled axiom. *)
type compiled = private {
  m_name : string;
  m_kind : Tformula.kind;
  m_depth : int;
      (** modal depth; verdicts lag the commit stream by [m_depth] *)
  m_wff : Formula.t;
      (** the closed time-sorted translation the planner evaluates *)
  m_compiled : bool;  (** [false] = outside the safe fragment, naive *)
  mutable m_violations : int;
}

type t

(** Compile a theory's axioms against a schema. Db-predicates bind to
    relations by the canonical name correspondence (case-insensitive,
    as in {!Fdbs_refinement.Interp23}); a db-predicate with no homonym
    relation, or disagreeing on sorts, is an error. Axioms that cannot
    be monitored (e.g. they mention a [shared] predicate with no
    relation behind it) are never silently dropped: they land in
    {!skipped} with a reason. *)
val compile :
  ?consts:(string * Value.t) list ->
  schema:Schema.t ->
  Ttheory.t ->
  (t, Error.t) result

(** Parse a theory file ({!Fdbs_temporal.Tparser.theory}) and compile
    it. *)
val of_file :
  ?consts:(string * Value.t) list ->
  schema:Schema.t ->
  string ->
  (t, Error.t) result

val name : t -> string
val monitors : t -> compiled list

(** Axioms that could not be monitored, with reasons. *)
val skipped : t -> (string * string) list

(** Commits observed since {!attach}. *)
val commits : t -> int

val violations : t -> int

(** Seed the monitor with the current committed state (state 0). *)
val attach : t -> Db.t -> unit

(** Evaluate every monitor against the commit [before → after] without
    mutating monitor state. Returns the violation events (empty when
    every axiom holds) and the publish thunk that advances the monitor
    to [after]; fire it only once the commit is durable. If [before]
    is not the state last published (a monitor attached mid-stream, or
    a commit raced past), the monitor resynchronizes — counted by the
    [monitor.resync] metric — rather than reporting nonsense.

    [delta], when given, must be {!Delta.of_dbs}[ ~before ~after]: the
    commit path ({!Txn.run}'s [on_commit] hook) passes the delta its
    constraint checks already computed, so a commit is diffed once.
    Without it the monitor diffs the two states itself. *)
val check :
  ?delta:Delta.t ->
  domain:Domain.t ->
  before:Db.t ->
  after:Db.t ->
  t ->
  event list * (unit -> unit)

(** {!check} + publish in one step, for replay/test paths that do not
    stage commits. *)
val advance : t -> domain:Domain.t -> before:Db.t -> after:Db.t -> event list

(** The error a violation event maps to on an enforcing commit path:
    code {!Error.Monitor_violation}, phase [Commit]. *)
val error_of_event : event -> Error.t

val pp_event : event Fmt.t
