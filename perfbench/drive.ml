(* Closed-loop socket client for the fds serve benchmark.

   Each script file drives one connection. A script line is one
   operation: a class letter ([r] read, [w] write), the expected
   result of its last reply ([true], [false], or [ok] when only
   success is checked), and one or more request frames, all separated
   by tabs. A connection sends an operation's requests one after the
   other, each only after the previous reply arrived, and cycles
   through its script until the run ends.

   Timed mode ([--seconds S --warmup W]) runs every connection for
   W + S seconds and keeps latencies from the last S. Count mode
   ([--count N --warmup-ops K]) has each connection run K untimed
   operations and then exactly N timed ones, so the server's counters
   read with [--stats] repeat exactly for one script.

   The result is one JSON object written to [--out]: per connection
   the operations completed and failed, per class the sorted
   latencies in microseconds, the calibration probe around the timed
   window, and the [stats] replies read around it. Depends on nothing
   but [unix] and [threads], so it builds whatever the server's
   library looks like. *)

let now () = Unix.gettimeofday ()

(* --- framing: "<length>\n<payload>\n" --- *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

let rec write_all fd b off len =
  if len > 0 then
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)

let send c payload =
  let frame = Printf.sprintf "%d\n%s\n" (String.length payload) payload in
  write_all c.fd (Bytes.unsafe_of_string frame) 0 (String.length frame)

let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  let n = Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
  if n = 0 then failwith "server closed the connection";
  c.hi <- c.hi + n

let rec read_byte c =
  if c.lo < c.hi then begin
    let ch = Bytes.get c.buf c.lo in
    c.lo <- c.lo + 1;
    ch
  end
  else (fill c; read_byte c)

let read_exact c n =
  let out = Bytes.create n in
  let rec go off =
    if off < n then begin
      if c.lo = c.hi then fill c;
      let k = min (n - off) (c.hi - c.lo) in
      Bytes.blit c.buf c.lo out off k;
      c.lo <- c.lo + k;
      go (off + k)
    end
  in
  go 0;
  Bytes.unsafe_to_string out

let rec recv c =
  let header = Buffer.create 8 in
  let rec line () =
    match read_byte c with
    | '\n' -> ()
    | ch -> Buffer.add_char header ch; line ()
  in
  line ();
  match String.trim (Buffer.contents header) with
  | "" -> recv c
  | h ->
    let payload = read_exact c (int_of_string h) in
    ignore (read_byte c);
    payload

(* --- reply checks --- *)

(* The literal after the first top-level-looking ["key":], tolerant of
   whitespace; enough for the flat [ok]/[result] members we check. *)
let member_is reply key lit =
  let pat = "\"" ^ key ^ "\"" in
  let n = String.length reply and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub reply i m = pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some i ->
    let rec skip i =
      if i < n && (reply.[i] = ' ' || reply.[i] = ':') then skip (i + 1) else i
    in
    let i = skip i in
    let l = String.length lit in
    i + l <= n && String.sub reply i l = lit

(* --- scripts --- *)

type op = { cls : char; expect : string; reqs : string list }

let load_script path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line when String.trim line = "" -> go acc
    | line ->
      (match String.split_on_char '\t' line with
       | cls :: expect :: (_ :: _ as reqs) when String.length cls = 1 ->
         go ({ cls = cls.[0]; expect; reqs } :: acc)
       | _ -> failwith ("malformed script line in " ^ path))
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
  in
  go []

(* --- growable sample buffers --- *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 4096 0.; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

(* --- one connection's closed loop --- *)

type result = {
  mutable done_ : int;  (* operations completed, timed or not *)
  mutable failed : int;
  mutable first_error : string option;
  reads : samples;
  writes : samples;
}

let run_op c (o : op) =
  let rec go ok = function
    | [] -> ok
    | [ last ] ->
      send c last;
      let reply = recv c in
      let good =
        member_is reply "ok" "true"
        && (o.expect = "ok" || member_is reply "result" o.expect)
      in
      if good then ok else Error reply
    | r :: rest ->
      send c r;
      let reply = recv c in
      if member_is reply "ok" "true" then go ok rest else go (Error reply) rest
  in
  go (Ok ()) o.reqs

let record res (o : op) t0 t1 =
  push (if o.cls = 'w' then res.writes else res.reads) ((t1 -. t0) *. 1e6)

let drive_conn ?(from = 0) c script res ~stop =
  let i = ref from in
  while not (stop !i) do
    let o = script.(!i mod Array.length script) in
    let t0 = now () in
    let outcome = run_op c o in
    let t1 = now () in
    (match outcome with
     | Ok () -> record res o t0 t1
     | Error reply ->
       res.failed <- res.failed + 1;
       if res.first_error = None then res.first_error <- Some reply);
    res.done_ <- res.done_ + 1;
    incr i
  done

(* A fixed CPU loop: a machine-phase probe printed beside the timings. *)
let calibrate () =
  let t0 = now () in
  let acc = ref 0 in
  for k = 1 to 3_000_000 do
    acc := (!acc * 31) + k land 0xffff
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1e9 /. 3e6

let stats_request c =
  send c "{\"id\": \"stats\", \"op\": \"stats\"}";
  recv c

(* --- output --- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | ch when Char.code ch < 0x20 || Char.code ch > 0x7e ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_floats b (s : samples) =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%.2f" v))
    a;
  Buffer.add_char b ']'

let () =
  let socket = ref "" and out = ref "" and seconds = ref 0. and warmup = ref 0.
  and count = ref 0 and warmup_ops = ref 0 and stats = ref false
  and scripts = ref [] in
  Arg.parse
    [
      ("--socket", Arg.Set_string socket, "PATH server socket");
      ("--out", Arg.Set_string out, "FILE result JSON");
      ("--seconds", Arg.Set_float seconds, "S timed window");
      ("--warmup", Arg.Set_float warmup, "S untimed lead-in");
      ("--count", Arg.Set_int count, "N timed operations per connection");
      ("--warmup-ops", Arg.Set_int warmup_ops, "K untimed operations first");
      ("--stats", Arg.Set stats, " read the stats op around the window");
    ]
    (fun s -> scripts := !scripts @ [ s ])
    "drive.exe --socket PATH --out FILE (--seconds S | --count N) SCRIPT...";
  let scripts = List.map load_script !scripts in
  let conns = List.map (fun _ -> connect !socket) scripts in
  let results =
    List.map
      (fun _ ->
        { done_ = 0; failed = 0; first_error = None; reads = samples ();
          writes = samples () })
      scripts
  in
  let counted = !count > 0 in
  let start = now () in
  let t_begin = start +. !warmup and t_end = start +. !warmup +. !seconds in
  let stats_before = ref "null" and stats_after = ref "null" in
  let calib_before = calibrate () in
  let window = ref (0., 0.) in
  if counted then begin
    (* untimed lead-in, stats, then exactly [count] timed operations *)
    let lead c s r = drive_conn c s r ~stop:(fun i -> i >= !warmup_ops) in
    List.iter2 (fun c (s, r) -> lead c s r) conns (List.combine scripts results);
    List.iter (fun r -> r.reads.len <- 0; r.writes.len <- 0) results;
    if !stats then stats_before := stats_request (List.hd conns);
    let w0 = now () in
    let threads =
      List.map2
        (fun c (s, r) ->
          Thread.create
            (fun () ->
              drive_conn ~from:!warmup_ops c s r ~stop:(fun i ->
                  i >= !warmup_ops + !count))
            ())
        conns (List.combine scripts results)
    in
    List.iter Thread.join threads;
    window := (w0, now ());
    if !stats then stats_after := stats_request (List.hd conns)
  end
  else begin
    let threads =
      List.map2
        (fun c (s, r) ->
          Thread.create
            (fun () ->
              let warm = ref true in
              drive_conn c s r ~stop:(fun _ ->
                  let t = now () in
                  if t >= t_begin && !warm then begin
                    (* samples so far were warm-up *)
                    warm := false;
                    r.reads.len <- 0;
                    r.writes.len <- 0
                  end;
                  t >= t_end))
            ())
        conns (List.combine scripts results)
    in
    List.iter Thread.join threads;
    window := (t_begin, t_end)
  end;
  let calib_after = calibrate () in
  List.iter (fun c -> Unix.close c.fd) conns;
  let b = Buffer.create (1 lsl 20) in
  let all f =
    let s = samples () in
    List.iter (fun r -> let x = f r in for k = 0 to x.len - 1 do push s x.data.(k) done)
      results;
    s
  in
  Buffer.add_string b "{\"conns\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"done\": %d, \"failed\": %d, \"first_error\": %s}"
           r.done_ r.failed
           (match r.first_error with
            | None -> "null"
            | Some e -> json_string (String.sub e 0 (min 300 (String.length e))))))
    results;
  Buffer.add_string b "], \"window_s\": ";
  Buffer.add_string b (Printf.sprintf "%.6f" (snd !window -. fst !window));
  Buffer.add_string b (Printf.sprintf ", \"calib_ns\": [%.4f, %.4f]" calib_before calib_after);
  Buffer.add_string b ", \"stats_before\": ";
  Buffer.add_string b !stats_before;
  Buffer.add_string b ", \"stats_after\": ";
  Buffer.add_string b !stats_after;
  Buffer.add_string b ", \"read_us\": ";
  json_floats b (all (fun r -> r.reads));
  Buffer.add_string b ", \"write_us\": ";
  json_floats b (all (fun r -> r.writes));
  Buffer.add_string b "}\n";
  let oc = open_out !out in
  Buffer.output_buffer oc b;
  close_out oc
