(** A write-ahead journal of committed transactions.

    One entry per committed transaction, recording the procedure calls
    it performed. The on-disk format is line-oriented and append-only:

    {v
    call offer cs101
    call enroll ana cs101
    commit
    v}

    — each committed transaction writes its calls followed by a
    [commit] marker and a flush, so a crash mid-entry leaves a trailing
    uncommitted fragment that {!load} drops (reporting it as the torn
    tail). Replaying a journal against the initial state reproduces the
    committed state exactly ({!Txn.replay}).

    Two marker lines extend the format for replication without
    disturbing plain journals, which never contain them:

    - [epoch N] stamps a leadership term: every entry after the marker
      belongs to epoch [N]. A leader boot appends a fresh marker
      ({!append_epoch}), so followers can reject streams from
      resurrected stale leaders.
    - [base N] may appear only as the first line, and only in journals
      rewritten by {!truncate}: the first [N] entries live in the
      snapshot next to the journal, and the file carries only the tail.
      Truncation is legal {e only} behind a durable snapshot — the
      snapshot is renamed into place before the journal is rewritten,
      so a crash between the two leaves a longer journal, never a gap.

    Durability: {!append} flushes the channel (the entry survives a
    process crash); with [~fsync:true] the entry is also made to
    survive an operating-system crash or power loss. Outside
    {!deferring} that fsync happens before [append] returns. Inside it
    — the serving loop of [fds serve] — the append only records sync
    debt, and one {!sync} later covers every entry appended before it
    (group commit): the server acknowledges nothing, and sends no byte
    that depends on an entry, before the fsync that covers it.
    Replication leaders run with fsync on. *)

open Fdbs_kernel

type call = string * Value.t list

type entry = { calls : call list }

(** An entry with its replication coordinates: [offset] is the 1-based
    absolute position in the full history (entries hidden behind a
    [base] marker still count), [ep] the epoch it was committed in. *)
type stamped = { offset : int; ep : int; entry : entry }

(** A loaded journal, replication view: [base] entries live in the
    snapshot (0 for ordinary journals), [epoch] is the last stamped
    epoch, [stamped] the entries present in the file, in commit order,
    with offsets [base+1 ..]. *)
type log = {
  base : int;
  epoch : int;
  stamped : stamped list;
  torn : string option;
}

(* Values are serialized with the same heuristic the CLI uses to parse
   call arguments: integers and the Booleans print literally, anything
   else is a symbol. Round-trips for every value the CLI can introduce. *)
let string_of_value (v : Value.t) = Value.to_string v

let value_of_string (s : string) : Value.t =
  match int_of_string_opt s with
  | Some n -> Value.Int n
  | None -> (
      match s with
      | "true" -> Value.Bool true
      | "false" -> Value.Bool false
      | _ -> Value.Sym s)

let pp_call ppf ((name, args) : call) =
  Fmt.pf ppf "%s(%a)" name Fmt.(list ~sep:(any ", ") Value.pp) args

let pp_entry ppf (e : entry) =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_call) e.calls

let io_error path msg =
  Error.makef Error.Io Error.Io_failure "journal %s: %s" path msg

(* --- line grammar --- *)

type line =
  | L_call of call
  | L_commit
  | L_epoch of int
  | L_base of int
  | L_blank
  | L_malformed

let parse_line (s : string) : line =
  match String.split_on_char ' ' (String.trim s) with
  | [ "" ] -> L_blank
  | [ "commit" ] -> L_commit
  | "call" :: name :: args -> L_call (name, List.map value_of_string args)
  | [ "epoch"; n ] -> (
      match int_of_string_opt n with
      | Some e when e >= 0 -> L_epoch e
      | _ -> L_malformed)
  | [ "base"; n ] -> (
      match int_of_string_opt n with
      | Some b when b >= 0 -> L_base b
      | _ -> L_malformed)
  | _ -> L_malformed

(* --- appending --- *)

let sync_out oc = Unix.fsync (Unix.descr_of_out_channel oc)

let c_appends = Metrics.counter "journal.appends"
let c_syncs = Metrics.counter "journal.syncs"

(* Group commit. [appended] counts the fsync-mode appends made inside
   {!deferring}, [synced] how many of them are known durable. An
   append counts itself and marks its file dirty before writing, all
   under [io_lock], so every such byte a reader can see in a file is
   already counted; a sync reads its target and takes the dirty files
   under the same lock, so every write it counts has completed before
   its fsync starts. *)
let appended = Atomic.make 0
let synced = Atomic.make 0
let io_lock = Mutex.create ()
let dirty : string list ref = ref []  (* guarded by [io_lock] *)
(* one fsync at a time; a caller arriving during it joins the next *)
let sync_lock = Mutex.create ()
(* The first failed sync, set before [sync_lock] is released and never
   cleared. After an fsync error the kernel may already have marked the
   lost pages clean, so a retry can report success for entries that are
   not on disk: no later sync may succeed. *)
let broken : Error.t option Atomic.t = Atomic.make None
let defer_key = Stdlib.Domain.DLS.new_key (fun () -> false)

let deferring f =
  Stdlib.Domain.DLS.set defer_key true;
  Fun.protect ~finally:(fun () -> Stdlib.Domain.DLS.set defer_key false) f

let pending () = Atomic.get synced < Atomic.get appended

let fsync_path path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd);
  Metrics.incr c_syncs

let sync () : (unit, Error.t) result =
  let target = Atomic.get appended in
  match Atomic.get broken with
  | Some e -> Result.Error e
  | None when Atomic.get synced >= target -> Ok ()
  | None ->
    Mutex.protect sync_lock @@ fun () ->
    (* a caller that held the lock meanwhile may have covered us, or
       failed *)
    match Atomic.get broken with
    | Some e -> Result.Error e
    | None when Atomic.get synced >= target -> Ok ()
    | None ->
      let upto, paths =
        Mutex.protect io_lock (fun () ->
            let paths = !dirty in
            dirty := [];
            (Atomic.get appended, paths))
      in
      let failed msg =
        let e = Error.makef Error.Io Error.Io_failure "journal sync: %s" msg in
        Atomic.set broken (Some e);
        Result.Error e
      in
      (match
         Fault.hit "journal.sync";
         List.iter fsync_path paths
       with
       | () ->
         Atomic.set synced upto;
         Ok ()
       | exception Fault.Injected site -> failed ("fault injected at " ^ site)
       | exception Unix.Unix_error (err, _, path) ->
         failed (Fmt.str "%s: %s" path (Unix.error_message err)))

let with_append ?(fsync = false) path (f : out_channel -> unit) :
  (unit, Error.t) result =
  let defer = fsync && Stdlib.Domain.DLS.get defer_key in
  match
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        if defer then
          Mutex.protect io_lock (fun () ->
              Atomic.incr appended;
              if not (List.mem path !dirty) then dirty := path :: !dirty;
              f oc;
              flush oc)
        else (
          f oc;
          flush oc;
          if fsync then (
            sync_out oc;
            Metrics.incr c_syncs)))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Result.Error (io_error path msg)
  | exception Unix.Unix_error (err, _, _) ->
    Result.Error (io_error path (Unix.error_message err))

let output_entry oc (e : entry) =
  List.iter
    (fun (name, args) ->
      output_string oc
        (String.concat " " ("call" :: name :: List.map string_of_value args));
      output_char oc '\n')
    e.calls;
  output_string oc "commit\n"

(** Append one committed entry to the journal at [path], creating the
    file if needed. Flushed before returning; with [~fsync:true] also
    fsynced — before returning, or by a later {!sync} inside
    {!deferring} — so the entry survives power loss. *)
let append ?fsync (path : string) (e : entry) : (unit, Error.t) result =
  Metrics.incr c_appends;
  with_append ?fsync path (fun oc -> output_entry oc e)

(** Stamp a leadership epoch: every entry appended after the marker
    belongs to epoch [n]. *)
let append_epoch ?fsync (path : string) (n : int) : (unit, Error.t) result =
  with_append ?fsync path (fun oc -> output_string oc (Fmt.str "epoch %d\n" n))

(* --- loading --- *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | content -> Ok content
  | exception Sys_error msg -> Result.Error (io_error path msg)
  | exception End_of_file -> Result.Error (io_error path "unreadable")

(** Load the journal at [path], replication view: every complete
    record, stamped with its absolute offset and epoch, plus the [base]
    behind which entries live in the snapshot.

    A record is complete only once its marker line and newline are on
    disk, so a crash (or truncation) mid-write leaves a {e torn tail}:
    a final line without its newline, a malformed final line, or
    trailing [call] lines with no [commit]. Torn tails are tolerated —
    every complete record is returned together with [Some description]
    of what was dropped, and recovery proceeds ([fds replay] warns and
    exits 0). A malformed line {e before} the tail is real corruption
    and stays an error; the error names the 1-based line number and
    byte offset ([line] and [byte] context entries), so an operator can
    truncate a corrupt log deliberately. *)
let load_log (path : string) : (log, Error.t) result =
  match read_file path with
  | Result.Error e -> Result.Error e
  | Ok "" -> Ok { base = 0; epoch = 0; stamped = []; torn = None }
  | Ok content ->
    let n = String.length content in
    let ends_nl = content.[n - 1] = '\n' in
    let frag, complete =
      match List.rev (String.split_on_char '\n' content) with
      | last :: rest_rev -> ((if ends_nl then None else Some last), List.rev rest_rev)
      | [] -> (None, [])
    in
    let base = ref 0 in
    let epoch = ref 0 in
    let offset = ref 0 in
    let entries = ref [] in
    let pending = ref [] in
    let torn = ref [] in
    let error = ref None in
    (match frag with
     | Some f -> torn := [ Fmt.str "torn final record (%d bytes)" (String.length f) ]
     | None -> ());
    let total = List.length complete in
    let byte = ref 0 in
    List.iteri
      (fun i line ->
        let line_start = !byte in
        byte := !byte + String.length line + 1;
        if !error = None then
          match parse_line line with
          | L_blank -> ()
          | L_commit ->
            incr offset;
            entries :=
              { offset = !base + !offset; ep = !epoch;
                entry = { calls = List.rev !pending } }
              :: !entries;
            pending := []
          | L_call c -> pending := c :: !pending
          | L_epoch e -> epoch := max !epoch e
          | L_base b when i = 0 -> base := b
          | L_base _ | L_malformed ->
            if i = total - 1 then
              torn := Fmt.str "malformed trailing line %S" line :: !torn
            else
              error :=
                Some
                  (Error.makef
                     ~context:
                       [
                         ("line", string_of_int (i + 1));
                         ("byte", string_of_int line_start);
                       ]
                     Error.Io Error.Io_failure
                     "journal %s: malformed line %d (byte %d): %S" path (i + 1)
                     line_start line))
      complete;
    (match !error with
     | Some e -> Result.Error e
     | None ->
       (match !pending with
        | [] -> ()
        | ps ->
          torn :=
            Fmt.str "%d uncommitted trailing call(s)" (List.length ps) :: !torn);
       let torn =
         match List.rev !torn with
         | [] -> None
         | parts -> Some (String.concat "; " parts ^ " dropped")
       in
       Ok { base = !base; epoch = !epoch; stamped = List.rev !entries; torn })

(** {!load_log} restricted to complete histories: the entries and the
    torn-tail description. A truncated journal ([base > 0]) is an error
    here — its prefix lives in the snapshot, so replaying the file
    alone from the empty instance would silently skip history; use
    {!load_log} (or the snapshot-aware [fds replay]) instead. *)
let load (path : string) : (entry list * string option, Error.t) result =
  match load_log path with
  | Result.Error e -> Result.Error e
  | Ok log when log.base > 0 ->
    Result.Error
      (io_error path
         (Fmt.str
            "truncated behind a snapshot (base %d): replay it with its \
             snapshot, not alone"
            log.base))
  | Ok log -> Ok (List.map (fun s -> s.entry) log.stamped, log.torn)

(* --- truncation --- *)

(** Rewrite the journal at [path] to carry only [tail] (entries with
    offsets [base+1 ..]) behind a [base] marker, stamping [epoch]. The
    rewrite goes through a temp file, fsync, and an atomic rename — and
    the caller must have made the snapshot covering offsets [1..base]
    durable {e first}; under that ordering a crash anywhere leaves
    either the old journal or the new one, never a history gap. *)
let truncate (path : string) ~(base : int) ~(epoch : int)
    (tail : stamped list) : (unit, Error.t) result =
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        if base > 0 then output_string oc (Fmt.str "base %d\n" base);
        if epoch > 0 then output_string oc (Fmt.str "epoch %d\n" epoch);
        let last = ref epoch in
        List.iter
          (fun s ->
            if s.ep > !last then (
              output_string oc (Fmt.str "epoch %d\n" s.ep);
              last := s.ep);
            output_entry oc s.entry)
          tail;
        flush oc;
        sync_out oc)
  with
  | exception Sys_error msg -> Result.Error (io_error path msg)
  | exception Unix.Unix_error (err, _, _) ->
    Result.Error (io_error path (Unix.error_message err))
  | () -> (
      match Sys.rename tmp path with
      | () -> Ok ()
      | exception Sys_error msg -> Result.Error (io_error path msg))
