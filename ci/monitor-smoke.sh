#!/usr/bin/env bash
# Streaming monitor smoke: a leader serves the university schema with
# no monitors attached; a follower replicates it and hosts the
# monitors, so the leader pays nothing for monitoring. Build a
# 10k-commit history whose last commit breaks the theory's transition
# axiom (an offered course is cancelled) and require the violation to
# fire on the follower: its subscriber must receive the tagged event
# frame and its monitor status must count exactly one violation. Then
# measure leader commit latency with monitors attached directly vs
# without, and gate the overhead with gate.exe --monitor-overhead-max.
# Run from the repo root:
#   bash ci/monitor-smoke.sh
set -euo pipefail

rm -f leader.sock follower.sock plain.sock mon.sock \
  leader.journal follower.journal follower.journal.snap \
  leader.log follower.log plain.log mon.log sub.out \
  monitor-smoke.theory monitor-base.json monitor-current.json
dune build bin/fds.exe bench/gate.exe
fds=_build/default/bin/fds.exe
gate=_build/default/bench/gate.exe

# The static axiom mirrors the schema's constraint; the transition
# axiom (once offered, always offered) is the stronger promise the
# schema does NOT enforce -- cancel(c) breaks it. The paper's depth-2
# axiom (a student's course count never drops to zero) holds on a
# history that only offers and cancels courses; it keeps the nested
# window in the latency gate below while the store grows to 6000
# offered courses.
cat > monitor-smoke.theory <<'EOF'
theory university

sort course
sort student

pred offered : course
pred takes : student, course

axiom static: ~(exists s:student, c:course. takes(s, c) & ~offered(c))

axiom no_retract: forall c:course. (offered(c) -> box offered(c))

axiom transition: ~(exists s:student, c:course.
                      dia (takes(s, c) & dia ~(exists c2:course. takes(s, c2))))
EOF

$fds serve specs/university.schema --socket leader.sock --transactional \
  --journal leader.journal 2>leader.log &
leader=$!
for i in $(seq 1 100); do test -S leader.sock && break; sleep 0.1; done
# --enforce-monitors on a follower must downgrade to observing: the
# entries are already committed on the leader
$fds serve specs/university.schema --socket follower.sock \
  --journal follower.journal --follow leader.sock --snapshot-every 2000 \
  --monitors monitor-smoke.theory --enforce-monitors 2>follower.log &
follower=$!
for i in $(seq 1 100); do test -S follower.sock && break; sleep 0.1; done

# the leader hosts no monitors...
out=$($fds client --socket leader.sock --retries 10 '{"id": 1, "op": "monitor"}')
echo "$out"
echo "$out" | grep -q '"ok": false'
# ...the follower does, and advertises them in the v2 handshake
out=$($fds client --socket follower.sock --retries 10 \
  '{"id": 1, "op": "hello", "version": 2}')
echo "$out"
echo "$out" | grep -q '"monitors", "subscribe"'

# subscribe on the follower; the deterministic heartbeat confirms the
# subscription is live before any commit races it
$fds monitor --subscribe --socket follower.sock --events 1 > sub.out &
sub=$!
for i in $(seq 1 100); do test -s sub.out && break; sleep 0.1; done
grep -q '"event": "heartbeat"' sub.out

# a 10k-commit history: one initiate batch, 9998 offers streamed over
# one pipelined connection, and the violating cancel
$fds client --socket leader.sock \
  '{"id": 0, "op": "run", "calls": ["initiate()", "offer(cs101)"]}' >/dev/null
seq 1 9998 \
  | awk '{printf "{\"id\": %d, \"op\": \"run\", \"calls\": [\"offer(c%d)\"]}\n", $1, $1}' \
  | $fds client --socket leader.sock --quiet
$fds client --socket leader.sock \
  '{"id": 9999, "op": "run", "calls": ["cancel(cs101)"]}' >/dev/null

# the violation fires on the follower: the subscriber exits once the
# event frame arrives
for i in $(seq 1 300); do kill -0 "$sub" 2>/dev/null || break; sleep 0.1; done
wait "$sub"
cat sub.out
grep -q '"event": "violation", "monitor": "no_retract"' sub.out

out=$($fds client --socket follower.sock '{"id": 2, "op": "monitor"}')
echo "$out"
echo "$out" | grep -q '"commits": 10000, "violations": 1'
echo "$out" | grep -q '"mode": "observe"'
grep -q "followers cannot enforce monitors" follower.log

$fds client --socket follower.sock '{"id": 3, "op": "shutdown"}' >/dev/null
wait "$follower"
$fds client --socket leader.sock '{"id": 4, "op": "shutdown"}' >/dev/null
wait "$leader"
cat leader.log follower.log

# Leader commit latency overhead: the same warm commit stream against
# a bare server and against one with the monitors attached directly.
# The ratio is gated the same way the bench gate gates the E26 metric.
drive() { # drive SOCKET -> whole-stream nanoseconds
  seq 1 2000 \
    | awk '{printf "{\"id\": %d, \"op\": \"run\", \"calls\": [\"offer(c%d)\"]}\n", $1, $1}' \
    | $fds client --socket "$1" --quiet >/dev/null
  local t0 t1
  t0=$(date +%s%N)
  seq 2001 6000 \
    | awk '{printf "{\"id\": %d, \"op\": \"run\", \"calls\": [\"offer(c%d)\"]}\n", $1, $1}' \
    | $fds client --socket "$1" --quiet >/dev/null
  t1=$(date +%s%N)
  echo $((t1 - t0))
}

$fds serve specs/university.schema --socket plain.sock --transactional 2>plain.log &
plain=$!
for i in $(seq 1 100); do test -S plain.sock && break; sleep 0.1; done
$fds client --socket plain.sock --retries 10 \
  '{"id": 0, "op": "run", "calls": ["initiate()"]}' >/dev/null
plain_ns=$(drive plain.sock)
$fds client --socket plain.sock '{"id": 1, "op": "shutdown"}' >/dev/null
wait "$plain"

$fds serve specs/university.schema --socket mon.sock --transactional \
  --monitors monitor-smoke.theory 2>mon.log &
mon=$!
for i in $(seq 1 100); do test -S mon.sock && break; sleep 0.1; done
$fds client --socket mon.sock --retries 10 \
  '{"id": 0, "op": "run", "calls": ["initiate()"]}' >/dev/null
mon_ns=$(drive mon.sock)
$fds client --socket mon.sock '{"id": 1, "op": "shutdown"}' >/dev/null
wait "$mon"

ratio=$(awk "BEGIN { printf \"%.4f\", $mon_ns / $plain_ns }")
echo "leader commit latency: plain ${plain_ns}ns, monitored ${mon_ns}ns, ratio ${ratio}x"
cat > monitor-base.json <<'EOF'
{ "schema_version": 1, "cores": 1, "calibration_ns": 1.0, "metrics": {} }
EOF
cat > monitor-current.json <<EOF
{ "schema_version": 1, "cores": 1, "calibration_ns": 1.0, "metrics": {},
  "derived": { "monitor_commit_overhead": ${ratio} } }
EOF
$gate --baseline monitor-base.json --current monitor-current.json \
  --monitor-overhead-max 3
echo "monitor smoke ok"
