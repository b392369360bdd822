(* Group commit at the journal level. A failed sync breaks the
   process's deferred journal for good, so these cases run in an
   executable of their own, in order. *)

open Fdbs_kernel
open Fdbs_rpr

let syncs = Metrics.counter "journal.syncs"

let append path course =
  match
    Journal.deferring (fun () ->
        Journal.append ~fsync:true path
          { Journal.calls = [ ("offer", [ Value.Sym course ]) ] })
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "append: %s" (Error.to_string e)

let entries path =
  match Journal.load path with
  | Ok (es, None) -> List.length es
  | Ok (_, Some torn) -> Alcotest.failf "torn journal: %s" torn
  | Error e -> Alcotest.failf "journal: %s" (Error.to_string e)

let with_journal f =
  let path = Filename.temp_file "fds_sync" ".journal" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let sync_error () =
  match Journal.sync () with
  | Ok () -> Alcotest.fail "sync succeeded"
  | Error e -> e.Error.message

(* Deferred appends fsync nothing; one sync covers them all, and a sync
   with nothing pending does no fsync. *)
let test_one_sync_covers_all () =
  with_journal @@ fun path ->
  let s0 = Metrics.value syncs in
  List.iter (append path) [ "c1"; "c2"; "c3" ];
  Alcotest.(check bool) "pending" true (Journal.pending ());
  Alcotest.(check int) "no fsync while appending" s0 (Metrics.value syncs);
  Alcotest.(check bool) "synced" true (Journal.sync () = Ok ());
  Alcotest.(check bool) "nothing pending" false (Journal.pending ());
  Alcotest.(check bool) "a second sync" true (Journal.sync () = Ok ());
  Alcotest.(check int) "one fsync" (s0 + 1) (Metrics.value syncs);
  Alcotest.(check int) "every entry on file" 3 (entries path)

(* After a failed fsync the kernel may have marked the lost pages
   clean, so a retry could succeed without the entries on disk: a
   failed sync stays failed, for the entries before it and after. *)
let test_failed_sync_is_permanent () =
  with_journal @@ fun path ->
  append path "c1";
  let s0 = Metrics.value syncs in
  Fault.arm ~site:"journal.sync" Fault.Abort;
  let first = sync_error () in
  Fault.disarm_all ();
  Alcotest.(check string) "the retry fails the same way" first (sync_error ());
  append path "c2";
  Alcotest.(check string) "a later append's sync fails too" first (sync_error ());
  Alcotest.(check bool) "still pending" true (Journal.pending ());
  Alcotest.(check int) "no fsync ran" s0 (Metrics.value syncs);
  Alcotest.(check int) "the appends are flushed" 2 (entries path)

let () =
  Alcotest.run "journal-sync"
    [
      ( "group commit",
        [
          Alcotest.test_case "one sync covers every deferred append" `Quick
            test_one_sync_covers_all;
          Alcotest.test_case "a failed sync is permanent" `Quick
            test_failed_sync_is_permanent;
        ] );
    ]
