(** A write-ahead journal of committed transactions: line-oriented,
    append-only, one entry (the calls plus a [commit] marker) per
    committed transaction. A transaction interrupted mid-write leaves a
    torn tail that {!load} drops — recovery keeps every complete
    record.

    Replication extends the format with two marker lines that plain
    journals never contain: [epoch N] stamps a leadership term over the
    entries that follow it, and [base N] (first line only, written by
    {!truncate}) records that the first [N] entries of the history live
    in the snapshot next to the journal.

    Durability: {!append} flushes, so a committed entry survives a
    process crash; [~fsync:true] also makes it survive an OS crash or
    power loss — the mode replication leaders (and [--fsync]) run in.
    Outside {!deferring} that fsync happens before [append] returns;
    inside it (the serving loop of [fds serve]) one {!sync} covers
    every entry appended before it, and the server sends nothing that
    depends on an entry before the sync that covers it. *)

open Fdbs_kernel

type call = string * Value.t list

type entry = { calls : call list }

(** An entry stamped with its replication coordinates: [offset] is its
    1-based absolute position in the full history (entries hidden
    behind a [base] marker still count), [ep] the epoch it was
    committed in (0 in unreplicated journals). *)
type stamped = { offset : int; ep : int; entry : entry }

(** A loaded journal, replication view: the first [base] entries of the
    history live in the snapshot (0 for ordinary journals), [epoch] is
    the highest stamped epoch, [stamped] are the entries present in the
    file in commit order with offsets [base+1 ..], [torn] describes a
    dropped torn tail. *)
type log = {
  base : int;
  epoch : int;
  stamped : stamped list;
  torn : string option;
}

val pp_call : call Fmt.t
val pp_entry : entry Fmt.t

(** The CLI serialization heuristic for call arguments: integer
    literals and the Booleans parse to themselves, anything else is a
    symbolic constant. *)
val value_of_string : string -> Value.t

(** One parsed journal line — the grammar incremental readers
    ({!Replication.refresh}) share with {!load_log}. *)
type line =
  | L_call of call
  | L_commit
  | L_epoch of int
  | L_base of int
  | L_blank
  | L_malformed

val parse_line : string -> line

(** Append one committed entry, creating the file if needed; flushed
    before returning (the entry survives a process crash). With
    [~fsync:true] (default false) the file is also fsynced, so the
    entry survives an OS crash or power loss: before [append] returns,
    or — inside {!deferring} — by the next {!sync}. Counted in the
    [journal.appends] metric; every fsync in [journal.syncs]. *)
val append : ?fsync:bool -> string -> entry -> (unit, Error.t) result

(** Append an [epoch n] marker: every entry after it belongs to
    leadership term [n]. Appended (fsynced) at leader boot. *)
val append_epoch : ?fsync:bool -> string -> int -> (unit, Error.t) result

(** {2 Group commit} *)

(** [deferring f] runs [f] with this domain's fsync-mode appends
    recording sync debt instead of fsyncing: they count as appended but
    not yet synced until a {!sync} covers them. *)
val deferring : (unit -> 'a) -> 'a

(** Whether some deferred append is not yet covered by a {!sync}. One
    atomic comparison. *)
val pending : unit -> bool

(** Make every deferred append made so far durable: fsync each file
    written since the last sync (the [journal.sync] fault site fires
    just before) and mark the appends counted before it synced. Returns
    at once when nothing is pending; a caller that finds another's
    fsync in progress waits for it and is skipped when it covered
    them. A failure is permanent: this call and every later one return
    the same [Error] (after a failed fsync the kernel may report a
    retry as successful for pages it has already dropped), so nothing
    appended before or after it may be acknowledged. *)
val sync : unit -> (unit, Error.t) result

(** Load every committed entry. The second component describes the
    torn tail, if any — a truncated final line, a malformed final
    line, or uncommitted trailing calls; all of them are dropped and
    recovery proceeds ([fds replay] prints the description as a
    warning and exits 0). Malformed lines before the tail are
    corruption and yield [Error], naming the 1-based line number and
    byte offset ([line]/[byte] context entries). A journal truncated
    behind a snapshot ([base > 0]) is also an error here: replaying it
    alone from the empty instance would silently skip history — use
    {!load_log} or the snapshot-aware [fds replay]. *)
val load : string -> (entry list * string option, Error.t) result

(** {!load}'s underlying replication view: entries with offsets and
    epochs, plus the snapshot [base]. Same torn-tail tolerance and
    corruption errors. *)
val load_log : string -> (log, Error.t) result

(** [truncate path ~base ~epoch tail] rewrites the journal to carry
    only [tail] (offsets [base+1 ..]) behind a [base] marker, stamping
    [epoch]. Temp file + fsync + atomic rename; the caller must have
    made the snapshot covering offsets [1..base] durable {e first} —
    under that ordering a crash anywhere leaves either the old journal
    or the new one, never a history gap. *)
val truncate :
  string -> base:int -> epoch:int -> stamped list -> (unit, Error.t) result
