(** Atomic transactions over {!Semantics}: snapshot, run procedure
    calls under a resource budget, check integrity constraints at
    commit, roll back to the snapshot on any failure — returning a
    structured {!Fdbs_kernel.Error.t}. Committed transactions are
    optionally journaled ({!Journal}); {!replay} recovers the committed
    state from the journal. *)

open Fdbs_kernel

type t = {
  txn_env : Semantics.env;
  check_constraints : bool;
  extra_constraints : (string * Fdbs_logic.Formula.t) list;
      (** additional closed wffs checked at commit beside the schema's
          own — e.g. the L1 theory's static constraints carried down
          through the refinement interpretation *)
  journal : string option;  (** journal file path *)
  fsync : bool;  (** fsync journal appends (power-loss durability) *)
  on_commit :
    (before:Db.t -> after:Db.t -> delta:Delta.t -> ((unit -> unit), Error.t) result)
    option;
      (** commit hook, run after the schema's constraints pass and
          before the journal append. [delta] is the commit's exact
          {!Delta.of_dbs}[ ~before ~after], computed once per commit and
          shared with the constraint checks. [Ok publish] joins the constraint
          materializations' publish phase — fired only once the
          commit's journal entry is written; an [Error] rolls the transaction back. The
          streaming {!Monitor}s ride this hook: observing monitors
          always return [Ok] (events are delivered in the publish
          thunk), enforcing ones turn a violation into a rollback. *)
}

val make :
  ?check_constraints:bool ->
  ?extra_constraints:(string * Fdbs_logic.Formula.t) list ->
  ?journal:string ->
  ?fsync:bool ->
  ?on_commit:
    (before:Db.t -> after:Db.t -> delta:Delta.t -> ((unit -> unit), Error.t) result) ->
  Semantics.env ->
  t

(** A rolled-back transaction: the structured error and the restored
    pre-transaction state (always [Db.equal] to the snapshot). *)
type rollback = { error : Error.t; restored : Db.t }

val pp_rollback : rollback Fmt.t

(** Run the calls as one atomic transaction: all commit (with every
    constraint satisfied) or none do. [budget] overrides the
    environment's. A journaled commit appends its entry before the new
    state is returned. *)
val run :
  ?budget:Budget.t -> t -> Journal.call list -> Db.t -> (Db.t, rollback) result

(** Re-run a list of entries as transactions from the given state
    without re-journaling — the shared recovery loop. [first] numbers
    the error context when the entries are a tail of a longer
    history. *)
val replay_entries :
  ?budget:Budget.t ->
  ?first:int ->
  t ->
  Journal.entry list ->
  Db.t ->
  (Db.t, Error.t) result

(** Re-run every committed journal entry as a transaction from the
    given state — the recovery path. Entries are not re-journaled.
    Journals truncated behind a snapshot are an error; the
    snapshot-aware recovery lives in [Fdbs_service.Session.replay]. *)
val replay : ?budget:Budget.t -> t -> string -> Db.t -> (Db.t, Error.t) result
