(** Fault injection for exercising rollback and recovery paths.

    Execution code calls {!hit} at named sites; an armed fault fires
    there — aborting, exhausting a budget, or flipping the next
    constraint verdict. Site-keyed ({!arm}) or probabilistic
    ({!arm_probability}, seeded PRNG); nothing fires unless armed.

    Transaction sites: [txn.begin], [txn.commit], [txn.constraint],
    [journal.append], [semantics.exec]. [journal.sync] fires just
    before a group-commit fsync in [fds serve] (the server acknowledges
    nothing the sync would have covered, and stops). Replication sites:
    [replication.snapshot] fires between writing a snapshot's temp file
    and renaming it into place (a torn snapshot on disk — recovery must
    fall back to the previous snapshot plus a longer replay);
    [replication.fetch] fires in the leader's fetch handler (the
    server drops the connection — a stream cut mid-entry, exercising
    follower reconnect); [replication.apply] fires before a follower
    applies a fetched entry (the entry is retried on the next fetch). *)

type action =
  | Abort  (** raise {!Injected} at the site *)
  | Exhaust of Budget.resource  (** drain the budget given to {!set_budget} *)
  | Flip  (** negate the next constraint verdict at the site *)

exception Injected of string  (** the site that fired *)

(** Arm a fault at [site], firing on the [after+1]-th hit (default: the
    first). Re-arming a site replaces its previous arming; armed faults
    are one-shot. *)
val arm : ?after:int -> site:string -> action -> unit

(** Arm a fault at every site with probability [p] per hit, driven by a
    deterministic PRNG seeded with [seed]. *)
val arm_probability : p:float -> seed:int -> action -> unit

val disarm_all : unit -> unit
val armed : unit -> bool

(** The budget that a fired [Exhaust] drains (armed by the transaction
    layer); without it, [Exhaust] degrades to [Abort]. *)
val set_budget : Budget.t -> unit

(** How many times [site] has been hit since the last {!disarm_all}
    (counted only while armed). *)
val hits : string -> int

(** Record a hit at [site]; fire any armed fault that matches. *)
val hit : string -> unit

(** Pass a constraint verdict through the injector: an armed [Flip] at
    [site] negates it (once). *)
val flip : string -> bool -> bool

(** Parse a CLI fault spec [SITE[:AFTER][:ACTION]], ACTION one of
    [abort] (default), [exhaust-steps], [exhaust-states],
    [exhaust-time], [flip]. *)
val parse_spec : string -> (string * int * action, string) result

(** Arm from a CLI spec string. *)
val arm_spec : string -> (unit, string) result
