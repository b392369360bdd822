#!/usr/bin/env python3
"""End-to-end benchmark of `fds serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds `fds` and the
benchmark's own executables with dune, generates the workload's inputs
from the seed, boots the real `fds serve` binary and drives it over a
Unix socket with `perfbench/drive.exe` (closed loop, at most two
connections, `--workers 2`). Every answer is checked. With `--trace 0`
the last line of standard output is the end-to-end result; with
`--trace 1` it is the per-layer ledger, from the server's counters and
from an in-process replay (`perfbench/ledger.exe`). NOTES.md explains
the workloads and metrics.
"""

import argparse
import atexit
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, "_build", "default")
FDS = os.path.join(BUILD, "bin", "fds.exe")
DRIVE = os.path.join(BUILD, "perfbench", "drive.exe")
LEDGER = os.path.join(BUILD, "perfbench", "ledger.exe")
SCHEMA = os.path.join(HERE, "university.schema")
THEORY = os.path.join(HERE, "university.theory")
WORK = os.path.join(ROOT, ".perfbench_work")

# set-ups per run, at least SETUPS and until SETUP_BUDGET_S has passed
# (at most MAX_SETUPS); setup_s is their median
SETUPS = 3
SETUP_BUDGET_S = 3.0
MAX_SETUPS = 15
WARMUP_S = 2.0  # untimed lead-in before the timed window


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


# --------------------------------------------------------------------------
# build


def build(traced):
    for d in ("bin", "lib", "dune-project"):
        if not os.path.exists(os.path.join(ROOT, d)):
            fail("not a source checkout (missing %s); run from the repo root" % d)
    targets = ["./bin/fds.exe", "./perfbench/drive.exe"]
    if traced:
        targets.append("./perfbench/ledger.exe")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", "."] + targets, cwd=ROOT,
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        log(r.stdout.decode(errors="replace"))
        fail("build failed")


# --------------------------------------------------------------------------
# a blocking frame client for set-up and checks


class Client:
    def __init__(self, path, timeout=120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""
        self.ids = 0

    def _fill(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise IOError("server closed the connection")
        self.buf += chunk

    def request(self, op, **fields):
        self.ids += 1
        payload = json.dumps(dict(id=self.ids, op=op, **fields)).encode()
        self.sock.sendall(b"%d\n%s\n" % (len(payload), payload))
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0 and self.buf[:nl].strip() == b"":
                self.buf = self.buf[nl + 1:]
                continue
            if nl >= 0:
                n = int(self.buf[:nl])
                if len(self.buf) >= nl + 1 + n + 1:
                    doc = self.buf[nl + 1:nl + 1 + n]
                    self.buf = self.buf[nl + 2 + n:]
                    return json.loads(doc)
            self._fill()

    def ok(self, op, **fields):
        reply = self.request(op, **fields)
        if not reply.get("ok"):
            fail("%s failed: %s" % (op, json.dumps(reply)[:400]))
        return reply["result"]

    def close(self):
        self.sock.close()


# --------------------------------------------------------------------------
# the server process


SERVERS = []  # every server started, stopped at exit whatever happens


class Server:
    def __init__(self, name, flags):
        SERVERS.append(self)
        self.sock = name + ".sock"
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.log = open(name + ".log", "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [FDS, "serve", SCHEMA, "--socket", self.sock, "--workers", "2"] + flags,
            stdout=self.log, stderr=self.log)

    def connect(self, deadline_s=120.0):
        end = time.monotonic() + deadline_s
        while True:
            if self.proc.poll() is not None:
                fail("server exited with %d (see %s)" % (self.proc.returncode,
                                                          self.log.name))
            try:
                return Client(self.sock)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > end:
                    fail("server did not come up")
                time.sleep(0.002)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        fail("no VmHWM for the server")

    def stop(self, sig=signal.SIGTERM):
        if self.log.closed:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            log("server %d still running 5 s after signal %d; killing it"
                % (self.proc.pid, sig))
            self.proc.kill()
            self.proc.wait()
        self.log.close()


# --------------------------------------------------------------------------
# workload generation (from the seed only)


def call(name, *args):
    return "%s(%s)" % (name, ", ".join(args))


def req(op, **fields):
    return json.dumps(dict(op=op, **fields), separators=(", ", ": "))


def point_query(s, c):
    return req("query", wff="TAKES(s, c)",
               params=[["s", "student", s], ["c", "course", c]])


SCAN = "forall s:student. forall c:course. (TAKES(s, c) -> c /= x)"


def scan_query(x):
    return req("query", wff=SCAN, params=[["x", "course", x]])


def enrolment(rng, students, courses, per_student):
    """Every student takes [per_student] distinct courses."""
    return {(s, c) for s in students for c in rng.sample(courses, per_student)}


def read_ops(rng, takes, students, courses, n, scans=0.0):
    """Point queries, half hits and half misses, plus a share of full scans."""
    hits = sorted(takes)
    taken = {c for _, c in takes}
    ops = []
    for _ in range(n):
        if rng.random() < scans:
            x = rng.choice(courses)
            ops.append(("r", "false" if x in taken else "true", [scan_query(x)]))
        elif rng.random() < 0.5:
            s, c = rng.choice(hits)
            ops.append(("r", "true", [point_query(s, c)]))
        else:
            while True:
                s, c = rng.choice(students), rng.choice(courses)
                if (s, c) not in takes:
                    break
            ops.append(("r", "false", [point_query(s, c)]))
    return ops


class Workload:
    """Generated inputs: the server's flags, the initial rows ([offered],
    [takes]), one script per connection ([scripts]), the traced [stream],
    and the [primary] class the result's latencies are taken from."""


def interleave(*scripts):
    return [o for ops in zip(*scripts) for o in ops]


def gen_read_mix(rng):
    w = Workload()
    students = ["s%d" % i for i in range(3000)]
    courses = ["c%d" % i for i in range(50)]
    # the last course is offered but never taken, so some scans hold
    takes = enrolment(rng, students, courses[:-1], 1)
    w.flags = []
    w.offered = set(courses)
    w.takes = takes
    w.scripts = [read_ops(rng, takes, students, courses, 4000, scans=0.1)
                 for _ in range(2)]
    w.stream = interleave(*w.scripts)
    w.primary = "r"
    return w


def gen_commit_durable(rng):
    w = Workload()
    students = ["s%d" % i for i in range(100)]
    courses = ["c%d" % i for i in range(10)]
    w.flags = ["--transactional", "--check-constraints", "--journal", "leader.journal"]
    w.offered = set(courses)
    w.takes = enrolment(rng, students, courses, 2)
    # each connection enrols and drops its own students, so every commit
    # succeeds and the store stays at its initial size
    w.scripts = []
    for k in range(2):
        keys = [("w%d_%d" % (k, j), rng.choice(courses)) for j in range(10)]
        ops = []
        for s, c in keys:
            ops.append(("w", "ok", [req("run", calls=[call("enroll", s, c)])]))
            ops.append(("w", "ok", [req("run", calls=[call("drop", s, c)])]))
        w.scripts.append(ops)
    w.stream = interleave(*w.scripts) * 10
    w.history = 3000  # churn commits in the journal the leader replays
    w.primary = "w"
    return w


def gen_txn_monitored(rng):
    w = Workload()
    students = ["s%d" % i for i in range(250)]
    courses = ["c%d" % i for i in range(20)]
    w.flags = ["--transactional", "--check-constraints", "--monitors", THEORY]
    w.offered = set(courses)
    w.takes = enrolment(rng, students, courses, 2)
    movers, readers = students[:len(students) // 5], students[len(students) // 5:]
    writer = []
    for s in movers:
        mine = sorted(c for (t, c) in w.takes if t == s)
        a = mine[0]
        b = rng.choice([c for c in courses if c not in mine])
        for src, dst in ((a, b), (b, a)):
            writer.append(("w", "ok", [
                req("begin"),
                req("run", calls=[call("transfer", s, src, dst)]),
                req("commit"),
            ]))
    reader_takes = {(s, c) for (s, c) in w.takes if s in set(readers)}
    reader = read_ops(rng, reader_takes, readers, courses, 4000)
    w.scripts = [writer, reader]
    # the traced stream: one writer cycle, four reads after each write
    w.stream = [o for i, op in enumerate(writer)
                for o in [op] + reader[4 * i:4 * i + 4]]
    w.primary = "w"
    return w


GENERATORS = {
    "read_mix": gen_read_mix,
    "commit_durable": gen_commit_durable,
    "txn_monitored": gen_txn_monitored,
}


def load_calls(w):
    return ([call("offer", c) for c in sorted(w.offered)]
            + [call("enroll", s, c) for (s, c) in sorted(w.takes)])


def initial_size(w):
    return len(w.offered) + len(w.takes)


def write_script(path, ops):
    with open(path, "w") as f:
        for cls, expect, reqs in ops:
            f.write("\t".join([cls, expect] + reqs) + "\n")


def replay_effects(takes, ops, n):
    """The TAKES set after the first [n] operations of a cyclic script."""
    takes = set(takes)
    for i in range(n):
        for r in ops[i % len(ops)][2]:
            doc = json.loads(r)
            for c in doc.get("calls", []):
                name, args = c[:-1].split("(")
                args = [a.strip() for a in args.split(",")]
                if name == "enroll":
                    takes.add(tuple(args))
                elif name == "drop":
                    takes.discard(tuple(args))
                elif name == "transfer":
                    s, a, b = args
                    if (s, a) in takes and (s, b) not in takes:
                        takes.discard((s, a))
                        takes.add((s, b))
    return takes


def state_takes(state):
    return {tuple(t) for t in state["relations"]["TAKES"]}


def state_offered(state):
    return {t[0] for t in state["relations"]["OFFERED"]}


# --------------------------------------------------------------------------
# set-up


def boot(name, w):
    """Spawn a server and bring it to the workload's initial rows; returns
    the server and the seconds from spawn to the answer that shows them."""
    srv = Server(name, w.flags)
    c = srv.connect()
    if not getattr(w, "journal", None):
        c.ok("run", calls=load_calls(w))
    size = c.ok("stats")["db_size"]
    setup = time.perf_counter() - srv.t0
    c.close()
    if size != initial_size(w):
        fail("server booted with %d tuples, expected %d" % (size, initial_size(w)))
    return srv, setup


def make_history(w):
    """A leader journal holding the initial rows and [w.history] committed
    churn entries that leave the state unchanged."""
    if os.path.exists("leader.journal"):
        os.unlink("leader.journal")
    srv = Server("history", w.flags)
    try:
        c = srv.connect()
        c.ok("run", calls=load_calls(w))
        for i in range(w.history // 2):
            s, cc = "h%d" % (i % 50), sorted(w.offered)[i % len(w.offered)]
            c.ok("run", calls=[call("enroll", s, cc)])
            c.ok("run", calls=[call("drop", s, cc)])
        c.close()
    finally:
        srv.stop()
    os.rename("leader.journal", "history.journal")
    w.journal = "history.journal"


def setup_server(w, setups=SETUPS, budget_s=SETUP_BUDGET_S):
    """Boot repeatedly (see SETUPS); keep the last server running."""
    times = []
    srv = None
    start = time.monotonic()
    while len(times) < setups or (time.monotonic() - start < budget_s
                                  and len(times) < MAX_SETUPS):
        if srv is not None:
            srv.stop()
        if getattr(w, "journal", None):
            shutil.copyfile(w.journal, "leader.journal")
        srv, t = boot("server", w)
        times.append(t)
    return srv, times


# --------------------------------------------------------------------------
# measurement


def drive(args, scripts):
    paths = []
    for i, ops in enumerate(scripts):
        p = "conn%d.script" % i
        write_script(p, ops)
        paths.append(p)
    r = subprocess.run([DRIVE, "--socket", "server.sock", "--out", "drive.json"]
                       + args + paths)
    if r.returncode != 0:
        fail("drive.exe exited with %d" % r.returncode)
    with open("drive.json") as f:
        return json.load(f)


def percentile(sorted_vals, q):
    """Nearest-rank percentile; reported only with >= 10 samples beyond."""
    n = len(sorted_vals)
    if n == 0 or n * (1 - q) < 10:
        return None
    return sorted_vals[min(n - 1, int(q * n))]


def summarize(samples, window_s):
    return {
        "n": len(samples),
        "ops_s": len(samples) / window_s,
        "p50_us": percentile(samples, 0.50),
        "p99_us": percentile(samples, 0.99),
    }


# --------------------------------------------------------------------------
# correctness checks


def check_state(c, w, done):
    expected = set(w.takes)
    for ops, n in zip(w.scripts, done):
        expected = replay_effects(expected, ops, n)
    state = c.ok("state")
    problems = []
    if state_takes(state) != expected:
        problems.append("TAKES differs from the generator's expected state "
                        "(%d vs %d rows)" % (len(state_takes(state)), len(expected)))
    if state_offered(state) != w.offered:
        problems.append("OFFERED differs from the generator's expected state")
    return problems


def check_commit_durable(srv, w, done, history_entries):
    """SIGKILL the leader, restart it on its journal, and require every
    acknowledged commit to be present."""
    srv.stop(signal.SIGKILL)
    again = Server("restart", w.flags)
    try:
        c = again.connect()
        log("restart replayed the journal in %.2f s" % (time.perf_counter() - again.t0))
        problems = check_state(c, w, done)
        last = c.ok("stats").get("replication", {}).get("last")
        want = history_entries + sum(done)
        if last != want:
            problems.append("journal holds %s entries after restart, %d "
                            "were acknowledged" % (last, want))
        c.close()
    finally:
        again.stop()
    return problems


def check_txn_monitored(c, w, done):
    problems = check_state(c, w, done)
    mon = c.ok("monitor")
    if mon["violations"] != 0:
        problems.append("monitors report %d violations" % mon["violations"])
    if mon["skipped"]:
        problems.append("monitor axioms skipped: %s" % mon["skipped"])
    if len(mon["axioms"]) != 3:
        problems.append("expected 3 monitored axioms, got %d" % len(mon["axioms"]))
    return problems


# --------------------------------------------------------------------------
# the two modes


def run_untraced(name, w, seconds):
    srv, setups = setup_server(w)
    try:
        entries = None
        if name == "commit_durable":
            c = srv.connect()
            entries = c.ok("stats")["replication"]["last"]
            c.close()
        res = drive(["--seconds", str(seconds), "--warmup", str(WARMUP_S)],
                    w.scripts)
        rss = srv.peak_rss_mb()
        done = [cn["done"] for cn in res["conns"]]
        failed = sum(cn["failed"] for cn in res["conns"])
        for cn in res["conns"]:
            if cn["first_error"]:
                log("first failed reply: %s" % cn["first_error"])
        if name == "commit_durable":
            problems = check_commit_durable(srv, w, done, entries)
        else:
            c = srv.connect()
            if name == "txn_monitored":
                problems = check_txn_monitored(c, w, done)
            else:
                problems = check_state(c, w, [0] * len(done))
            c.close()
    finally:
        srv.stop()
    window = res["window_s"]
    classes = {"r": "read", "w": "write"}
    # every class the workload sends, by name; the primary class also
    # gives the result's ops_s/p50_us/p99_us
    for label in classes.values():
        s = summarize(res[label + "_us"], window)
        if s["n"]:
            print("%s_ops_s: %.2f 1/s (%d ops in %.2f s)"
                  % (label, s["ops_s"], s["n"], window))
            print("%s_p50_us: %s us" % (label, s["p50_us"]))
            print("%s_p99_us: %s us (%d samples beyond it)"
                  % (label, s["p99_us"], s["n"] - int(0.99 * s["n"])))
    print("server_rss_mb: %.2f MB" % rss)
    print("setup_s: %s s" % ", ".join("%.3f" % t for t in setups))
    print("calibration probe: %.3f ns/iter before the window, %.3f after"
          % tuple(res["calib_ns"]))
    prim = summarize(res[classes[w.primary] + "_us"], window)
    if prim["p99_us"] is None:
        fail("%d samples leave fewer than ten beyond p99; run longer"
             % prim["n"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_s": (prim["ops_s"], "1/s"),
        "p50_us": (prim["p50_us"], "us"),
        "p99_us": (prim["p99_us"], "us"),
        "server_rss_mb": (rss, "MB"),
    }
    return problems, sum(done), failed, metrics


def counter_deltas(res):
    before = res["stats_before"]["result"]["metrics"]
    after = res["stats_after"]["result"]["metrics"]
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def hit_ratio(d, hit, *misses):
    """Hits over attempts for the counter deltas [d]; 0 without attempts."""
    attempts = d.get(hit, 0) + sum(d.get(k, 0) for k in misses)
    return d.get(hit, 0) / attempts if attempts else 0.0


def run_traced(name, w, seconds):
    """The per-layer ledger: server counters over one deterministic pass
    of the stream on one connection, then the in-process replay."""
    stream = w.stream
    srv, _ = setup_server(w, setups=1, budget_s=0)
    try:
        entries = None
        if name == "commit_durable":
            c = srv.connect()
            entries = c.ok("stats")["replication"]["last"]
            c.close()
        n = len(stream)
        res = drive(["--count", str(n), "--warmup-ops", str(n), "--stats"], [stream])
        failed = res["conns"][0]["failed"]
        if res["conns"][0]["first_error"]:
            log("first failed reply: %s" % res["conns"][0]["first_error"])
        # the stream is whole script cycles: it leaves the state unchanged
        done = [0] * len(w.scripts)
        if name == "commit_durable":
            # both scripts give the stream the same number of commits
            done = [2 * n // len(w.scripts)] * len(w.scripts)
            problems = check_commit_durable(srv, w, done, entries)
        else:
            c = srv.connect()
            problems = (check_txn_monitored if name == "txn_monitored"
                        else check_state)(c, w, done)
            c.close()
    finally:
        srv.stop()
    d = counter_deltas(res)
    samples = res["read_us" if w.primary == "r" else "write_us"]
    e2e_p50 = samples[len(samples) // 2]

    with open("load.calls", "w") as f:
        f.write("\n".join(load_calls(w)) + "\n")
    write_script("stream.script", stream)
    args = [LEDGER, "--schema", SCHEMA, "--load", "load.calls",
            "--stream", "stream.script", "--seconds", str(seconds),
            "--out", "ledger.json"]
    if "--monitors" in w.flags:
        args += ["--monitors", THEORY]
    if "--journal" in w.flags:
        args += ["--journal", "ledger"]
    r = subprocess.run(args)
    if r.returncode != 0:
        fail("ledger.exe exited with %d" % r.returncode)
    with open("ledger.json") as f:
        lg = json.load(f)
    if lg["failures"]:
        problems.append("%d wrong answers in the in-process replay"
                        % lg["failures"])
    request_us = lg["plain_read_us" if w.primary == "r" else "plain_write_us"]
    parts = ["session.domain_us", "txn.exec_us", "delta.diff_us",
             "constraint.check_us", "monitor.check_us", "journal.per_write_us"]
    session_rest = (lg["session.write_us"] - sum(lg[k] for k in parts)
                    if any(o[0] == "w" for o in stream) else 0.0)
    print("ledger: %d rounds; layers account for %.1f%% of in-process request "
          "time (%.2f us/op unattributed)"
          % (lg["rounds"], 100 * lg["attributed_share"], lg["unattributed_us"]))
    print("counters over %d ops: %s" % (n, json.dumps(
        {k: v for k, v in sorted(d.items()) if v})))
    if lg["attributed_share"] < 0.9:
        problems.append("layers account for only %.1f%% of request time"
                        % (100 * lg["attributed_share"]))
    metrics = {k: (lg[k], u) for k, u in LEDGER_METRICS}
    metrics.update({
        "planner.cache_hit_ratio": (hit_ratio(
            d, "planner.cache.hit", "planner.cache.miss"), "ratio"),
        "planner.delta_hit_ratio": (hit_ratio(
            d, "planner.delta_hit", "planner.delta_miss",
            "planner.delta_fallback"), "ratio"),
        "monitor.delta_hit_ratio": (hit_ratio(
            d, "monitor.delta_hit", "monitor.delta_miss",
            "monitor.delta_fallback"), "ratio"),
        "read.index_builds_per_op": (d.get("relation.col_index_builds", 0) / n, "count"),
        "server.request_us": (request_us, "us"),
        "server.wire_us": (e2e_p50 - request_us, "us"),
        "session.unattributed_us": (session_rest, "us"),
    })
    return problems, 2 * n, failed, metrics


# per-layer metrics the in-process replay reports as they are
LEDGER_METRICS = [
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.reply_bytes", "B"),
    ("rparser.wff_us", "us"),
    ("semantics.query_us", "us"),
    ("session.write_us", "us"),
    ("session.view_run_us", "us"),
    ("session.domain_us", "us"),
    ("txn.exec_us", "us"),
    ("delta.diff_us", "us"),
    ("constraint.check_us", "us"),
    ("monitor.check_us", "us"),
    ("journal.append_us", "us"),
    ("journal.bytes_per_commit", "B"),
    ("gc.minor_words_per_op", "words"),
    ("trace.overhead_ratio", "ratio"),
    ("unattributed_us", "us"),
    ("attributed_share", "ratio"),
]


@atexit.register
def stop_servers():
    for srv in SERVERS:
        srv.stop(signal.SIGKILL)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build(a.trace == 1)
    w = GENERATORS[a.workload](random.Random(a.seed))
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.chdir(WORK)  # short relative socket paths, whatever the checkout path
    if a.workload == "commit_durable":
        make_history(w)
    runner = run_traced if a.trace else run_untraced
    problems, attempted, failed, metrics = runner(a.workload, w, a.seconds)
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        log("check failed: " + p)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
