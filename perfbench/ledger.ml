(* The per-layer ledger: an in-process, single-threaded replay of one
   workload's request stream against a real {!Fdbs_service.Session},
   timing calls into each layer's public functions from here.

   Each round replays the whole stream three times. The stream is made
   of whole script cycles, so every pass leaves the store where it
   started.
   - [plain]: each request through {!Protocol.request_of_string} and
     {!Protocol.handle}, as the server does, timed per operation only.
   - [timed]: the same requests split into layers: decode, wff parse,
     query evaluation, the session's write entry points, and reply
     encoding.
   - [parts] (write workloads): every write re-done at the [Txn] level
     against a private copy of the state: domain accumulation, the
     calls, the commit delta, the constraint checks, the monitors and
     the journal append.
   Rounds repeat until the time is up; times are medians of per-round
   means. Counts come from the first round after a warm-up round, so
   they repeat exactly for one input. *)

open Fdbs_kernel
open Fdbs_rpr
open Fdbs_service

let now = Mclock.now_us

type op = { cls : char; expect : string; reqs : string list }

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let load_script path =
  List.map
    (fun line ->
      match String.split_on_char '\t' line with
      | cls :: expect :: (_ :: _ as reqs) -> { cls = cls.[0]; expect; reqs }
      | _ -> failwith "malformed script line")
    (read_lines path)
  |> Array.of_list

let die fmt = Fmt.kstr (fun m -> prerr_endline ("ledger: " ^ m); exit 2) fmt
let get = function Ok v -> v | Error e -> die "%s" (Error.to_string e)

(* --- accumulators --- *)

type acc = { mutable sum : float; mutable n : int }

let acc () = { sum = 0.; n = 0 }
let add a v = a.sum <- a.sum +. v; a.n <- a.n + 1
let mean a = if a.n = 0 then 0. else a.sum /. float_of_int a.n

let timed a f =
  let t0 = now () in
  let r = f () in
  add a (now () -. t0);
  r

(* --- the three passes --- *)

let failures = ref 0

let check_result (o : op) reply =
  let ok =
    match Json.parse reply with
    | v ->
      Json.field "ok" v = Some (Json.Bool true)
      && (o.expect = "ok"
         || Json.field "result" v = Some (Json.Bool (o.expect = "true")))
    | exception _ -> false
  in
  if not ok then begin
    incr failures;
    if !failures <= 3 then prerr_endline ("ledger: unexpected reply " ^ reply)
  end

let handle session s =
  match Protocol.request_of_string s with
  | Error (id, e) -> Protocol.error_response ~id e
  | Ok req ->
    (match Protocol.handle session req with
     | Protocol.Reply r | Protocol.Final r -> r)

(* [plain]: per-operation wall time by class, no layer timers *)
let plain_pass session (stream : op array) =
  let reads = ref [] and writes = ref [] in
  Array.iter
    (fun (o : op) ->
      let s0 = now () in
      let last = List.fold_left (fun _ r -> handle session r) "" o.reqs in
      let dt = now () -. s0 in
      if o.cls = 'w' then writes := dt :: !writes else reads := dt :: !reads;
      check_result o last)
    stream;
  (!reads, !writes)

type layers = {
  decode : acc;
  wff : acc;
  query : acc;
  encode : acc;
  session_write : acc;  (* includes [view_run] *)
  view_run : acc;
  reply_bytes : acc;
  request : acc;  (* whole in-process request time per operation *)
}

let layers () =
  {
    decode = acc (); wff = acc (); query = acc (); encode = acc ();
    session_write = acc (); view_run = acc (); reply_bytes = acc ();
    request = acc ();
  }

let field_str k v = Option.bind (Json.field k v) Json.to_string_opt

let query_params body =
  match Option.bind (Json.field "params" body) Json.to_list_opt with
  | None -> []
  | Some items ->
    List.map
      (function
        | Json.Arr [ Json.Str name; Json.Str sort; value ] ->
          (match Protocol.value_of_json value with
           | Some v -> (name, sort, v)
           | None -> die "bad param value")
        | _ -> die "bad params")
      items

(* [timed]: the request path split by layer, mirroring the server's
   dispatch for the ops the workloads send *)
let timed_pass session (l : layers) (stream : op array) =
  let store = Session.store session in
  let schema = Session.schema session in
  let one s =
    let req =
      match timed l.decode (fun () -> Protocol.request_of_string s) with
      | Ok r -> r
      | Error (_, e) -> die "decode: %s" (Error.to_string e)
    in
    let id = req.Protocol.id and body = req.Protocol.body in
    (* encoding includes building the result, e.g. [db_to_json] *)
    let reply result =
      let r = timed l.encode (fun () -> Protocol.ok_response ~id (result ())) in
      add l.reply_bytes (float_of_int (String.length r));
      r
    in
    match req.Protocol.op with
    | "query" ->
      let src = Option.get (field_str "wff" body) in
      let params = query_params body in
      let wff =
        get
          (timed l.wff (fun () ->
               Rparser.wff
                 ~params:(List.map (fun (n, srt, _) -> (n, srt)) params)
                 schema src))
      in
      let db, domain = Session.Store.snapshot store in
      let env =
        Semantics.env ~consts:(List.map (fun (n, _, v) -> (n, v)) params)
          ~domain schema
      in
      let b = timed l.query (fun () -> Semantics.query env db wff) in
      reply (fun () -> Json.Bool b)
    | "run" ->
      let calls =
        List.map
          (fun c -> get (Protocol.call_of_json c))
          (Option.get (Option.bind (Json.field "calls" body) Json.to_list_opt))
      in
      let in_txn = Session.in_txn session in
      let t0 = now () in
      let out =
        timed l.session_write (fun () -> Session.run session calls)
      in
      if in_txn then add l.view_run (now () -. t0);
      (match out with
       | Ok o ->
         reply (fun () ->
             Json.Obj
               [
                 ( "completed",
                   Json.Num (float_of_int (List.length o.Session.completed)) );
                 ("state", Protocol.db_to_json o.Session.state);
               ])
       | Error f -> die "run: %s" (Error.to_string f.Session.fail_error))
    | "begin" ->
      get (timed l.session_write (fun () -> Session.begin_txn session));
      reply (fun () -> Json.Null)
    | "commit" ->
      let db = get (timed l.session_write (fun () -> Session.commit session)) in
      reply (fun () -> Protocol.db_to_json db)
    | op -> die "op %s is not part of any workload" op
  in
  Array.iter
    (fun (o : op) ->
      let t0 = now () in
      let last = List.fold_left (fun _ r -> one r) "" o.reqs in
      add l.request (now () -. t0);
      check_result o last)
    stream

type parts = {
  domain : acc;
  exec : acc;
  diff : acc;
  constraints : acc;
  monitor : acc;
  append : acc;
}

let parts () =
  {
    domain = acc (); exec = acc (); diff = acc (); constraints = acc ();
    monitor = acc (); append = acc ();
  }

type copy = {
  mutable db : Db.t;
  mutable dom : Domain.t;
  mon : Monitor.t option;
  journal : string option;
}

let domain_add schema d calls =
  List.fold_left
    (fun d (name, args) ->
      match Schema.find_proc schema name with
      | None -> die "unknown procedure %s" name
      | Some p ->
        List.fold_left2
          (fun d (_, srt) v -> Domain.add srt (v :: Domain.carrier d srt) d)
          d p.Schema.pparams args)
    d calls

(* [parts]: each write's commit re-done at the Txn level on [cp] *)
let parts_pass schema (p : parts) (cp : copy) (stream : op array) =
  let exec env calls db =
    List.fold_left
      (fun db (name, args) ->
        match timed p.exec (fun () -> Semantics.call_det env name args db) with
        | Ok db' -> db'
        | Error e -> die "exec: %s" (Error.to_string e))
      db calls
  in
  let commit env calls =
    let before = cp.db in
    let after = exec env calls before in
    let delta = timed p.diff (fun () -> Delta.of_dbs ~before ~after) in
    let publishes =
      List.map
        (fun (_, wff) ->
          timed p.constraints (fun () ->
              let ok, publish =
                Semantics.query_delta env ~before ~delta after wff
              in
              if not ok then die "constraint violated";
              publish))
        schema.Schema.constraints
    in
    let mon_publish =
      Option.map
        (fun m ->
          timed p.monitor (fun () ->
              let events, publish =
                Monitor.check m ~domain:cp.dom ~before ~after
              in
              if events <> [] then die "monitor violation";
              publish))
        cp.mon
    in
    Option.iter
      (fun path ->
        get (timed p.append (fun () ->
                 Journal.append ~fsync:true path { Journal.calls })))
      cp.journal;
    timed p.constraints (fun () -> List.iter (fun f -> f ()) publishes);
    Option.iter (fun f -> timed p.monitor f) mon_publish;
    cp.db <- after
  in
  Array.iter
    (fun (o : op) ->
      if o.cls = 'w' then begin
        let calls =
          List.concat_map
            (fun s ->
              let v = Json.parse s in
              match Option.bind (Json.field "calls" v) Json.to_list_opt with
              | None -> []
              | Some cs -> List.map (fun c -> get (Protocol.call_of_json c)) cs)
            o.reqs
        in
        let env =
          timed p.domain (fun () ->
              cp.dom <- domain_add schema cp.dom calls;
              Semantics.env ~domain:cp.dom schema)
        in
        let in_txn =
          List.exists
            (fun s -> Json.field "op" (Json.parse s) = Some (Json.Str "begin"))
            o.reqs
        in
        (* a session transaction runs its calls on the private view
           first, then again at commit *)
        if in_txn then ignore (exec env calls cp.db);
        commit env calls
      end)
    stream

(* --- main --- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

type round = {
  gc_words : float;  (* minor words per operation, [plain] pass *)
  plain_reads : float list;
  plain_writes : float list;
  l : layers;
  jbytes : float;  (* journal growth over the [timed] pass *)
  p : parts;
}

let () =
  let schema_file = ref "" and theory = ref "" and load = ref "" and stream = ref ""
  and journal = ref "" and seconds = ref 1. and out = ref "" in
  Arg.parse
    [
      ("--schema", Arg.Set_string schema_file, "FILE schema");
      ("--monitors", Arg.Set_string theory, "FILE theory to monitor");
      ("--load", Arg.Set_string load, "FILE initial calls, one per line");
      ("--stream", Arg.Set_string stream, "FILE the request stream (a script)");
      ("--journal", Arg.Set_string journal, "PREFIX journal files (leader)");
      ("--seconds", Arg.Set_float seconds, "S replay time");
      ("--out", Arg.Set_string out, "FILE result JSON");
    ]
    (fun _ -> ())
    "ledger.exe --schema F --load F --stream F --seconds S --out F";
  let src = In_channel.with_open_bin !schema_file In_channel.input_all in
  let schema = get (Rparser.schema src) in
  let journaled = !journal <> "" in
  let store_journal = !journal ^ ".store" in
  let config =
    Config.make ~transactional:true ~check_constraints:true
      ?journal:(if journaled then Some store_journal else None)
      ~fsync:journaled ()
  in
  let store = get (Session.Store.create ~config schema) in
  let compile () =
    if !theory = "" then None else Some (get (Monitor.of_file ~schema !theory))
  in
  Option.iter (Session.Store.attach_monitors ~mode:`Observe store) (compile ());
  let session = Session.on_store store in
  let calls = List.map (fun l -> get (Protocol.parse_call l)) (read_lines !load) in
  (match Session.run session calls with
   | Ok _ -> ()
   | Error f -> die "load: %s" (Error.to_string f.Session.fail_error));
  let stream = load_script !stream in
  let ops = float_of_int (Array.length stream) in
  let write_ops =
    Array.fold_left (fun n o -> if o.cls = 'w' then n + 1 else n) 0 stream
  in
  let new_copy () =
    let db, dom = Session.Store.snapshot store in
    let mon = compile () in
    Option.iter (fun m -> Monitor.attach m db) mon;
    { db; dom; mon; journal = (if journaled then Some (!journal ^ ".parts") else None) }
  in
  let round () =
    let gc0 = Gc.minor_words () in
    let plain_reads, plain_writes = plain_pass session stream in
    let gc1 = Gc.minor_words () in
    let l = layers () in
    let j0 = file_size store_journal in
    timed_pass session l stream;
    let j1 = file_size store_journal in
    let p = parts () in
    if write_ops > 0 then parts_pass schema p (new_copy ()) stream;
    {
      gc_words = (gc1 -. gc0) /. ops;
      plain_reads; plain_writes; l;
      jbytes = float_of_int (j1 - j0);
      p;
    }
  in
  ignore (round ());
  let deadline = now () +. (!seconds *. 1e6) in
  let rounds = ref [] in
  while !rounds = [] || now () < deadline do
    rounds := round () :: !rounds
  done;
  let rounds = List.rev !rounds in
  let first = List.hd rounds in
  let med f = median (List.map f rounds) in
  let per_write x =
    if write_ops = 0 then 0. else x /. float_of_int write_ops
  in
  let sum xs = List.fold_left ( +. ) 0. xs in
  (* the request time the timed layer calls account for; what is left
     is glue in this file's dispatch (field lookups, the read snapshot,
     environments) *)
  let attributed r =
    r.l.decode.sum +. r.l.encode.sum +. r.l.wff.sum +. r.l.query.sum
    +. r.l.session_write.sum
  in
  let m =
    [
      ("protocol.decode_us", med (fun r -> r.l.decode.sum /. ops));
      ("protocol.encode_us", med (fun r -> r.l.encode.sum /. ops));
      ("protocol.reply_bytes", first.l.reply_bytes.sum /. ops);
      ("rparser.wff_us", med (fun r -> mean r.l.wff));
      ("semantics.query_us", med (fun r -> mean r.l.query));
      ("session.write_us", med (fun r -> per_write r.l.session_write.sum));
      ("session.view_run_us", med (fun r -> mean r.l.view_run));
      ("session.domain_us", med (fun r -> per_write r.p.domain.sum));
      ("txn.exec_us", med (fun r -> per_write r.p.exec.sum));
      ("delta.diff_us", med (fun r -> per_write r.p.diff.sum));
      ("constraint.check_us", med (fun r -> per_write r.p.constraints.sum));
      ("monitor.check_us", med (fun r -> per_write r.p.monitor.sum));
      ("journal.append_us", med (fun r -> mean r.p.append));
      ("journal.per_write_us", med (fun r -> per_write r.p.append.sum));
      ("journal.bytes_per_commit", per_write first.jbytes);
      (* whole words: the runtime's own latency histograms box floats
         a time-dependent number of times, which moves this count by
         well under one word per operation *)
      ("gc.minor_words_per_op", Float.round first.gc_words);
      ("request_us", med (fun r -> r.l.request.sum /. ops));
      ("unattributed_us", med (fun r -> r.l.request.sum -. attributed r) /. ops);
      ("attributed_share", med (fun r -> attributed r /. r.l.request.sum));
      ("plain_read_us", med (fun r -> median r.plain_reads));
      ("plain_write_us", med (fun r -> median r.plain_writes));
      ("trace.overhead_ratio",
       med (fun r -> r.l.request.sum /. sum (r.plain_reads @ r.plain_writes)));
      ("rounds", float_of_int (List.length rounds));
      ("failures", float_of_int !failures);
    ]
  in
  let oc = open_out !out in
  output_string oc
    (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) m)));
  close_out oc
