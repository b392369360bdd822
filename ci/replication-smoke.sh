#!/usr/bin/env bash
# Replication chaos smoke: a leader with injected faults (one aborted
# commit, one cut fetch stream) replicates to a follower over Unix
# sockets. SIGKILL the leader mid-stream: the follower must keep
# serving reads from its snapshot + journal, reject writes with a
# structured read-only error, and hold exactly the state a fresh
# replay of each surviving journal reproduces. Then group commit: four
# concurrent committers against a journaled leader (several serving
# domains on a 4-core runner), SIGKILL mid-stream, and a restart that
# must replay every acknowledged commit. Run from the repo root:
#   bash ci/replication-smoke.sh
set -euo pipefail

rm -f leader.sock follower.sock leader.journal follower.journal \
  follower.journal.snap leader.log follower.log \
  trace-leader.json trace-follower.json gc.sock gc.journal gc.log gc-ack.*
dune build bin/fds.exe bench/trace_validate.exe
fds=_build/default/bin/fds.exe
FDBS_TRACE_VIRTUAL_TS=1 $fds serve specs/university.schema \
  --socket leader.sock --transactional --journal leader.journal \
  --fault txn.commit:2 --fault replication.fetch:3 \
  --trace=trace-leader.json 2>leader.log &
leader=$!
for i in $(seq 1 100); do test -S leader.sock && break; sleep 0.1; done
FDBS_TRACE_VIRTUAL_TS=1 $fds serve specs/university.schema \
  --socket follower.sock --journal follower.journal \
  --follow leader.sock --snapshot-every 2 \
  --trace=trace-follower.json 2>follower.log &
follower=$!
for i in $(seq 1 100); do test -S follower.sock && break; sleep 0.1; done
$fds client --socket leader.sock --retries 10 \
  '{"id": 1, "op": "run", "calls": ["initiate()", "offer(cs101)"]}' \
  '{"id": 2, "op": "run", "calls": ["offer(cs202)"]}'
# the armed txn.commit fault aborts this batch: it must roll back and
# stay out of the journal (and off the follower)
out=$($fds client --socket leader.sock \
  '{"id": 3, "op": "run", "calls": ["offer(cs303)"]}')
echo "$out"
echo "$out" | grep -q '"code": "fault-injected"'
$fds client --socket leader.sock \
  '{"id": 4, "op": "run", "calls": ["offer(cs404)"]}'
target=$($fds client --socket leader.sock '{"id": 0, "op": "state"}')
got=""
for i in $(seq 1 100); do
  got=$($fds client --socket follower.sock '{"id": 0, "op": "state"}')
  test "$got" = "$target" && break
  sleep 0.2
done
echo "$got"
test "$got" = "$target"
kill -9 "$leader"
wait "$leader" || true
for i in $(seq 1 100); do
  grep -q "unreachable" follower.log && break
  sleep 0.1
done
out=$($fds client --socket follower.sock \
  '{"id": 5, "op": "query", "wff": "exists c:course. OFFERED(c)"}' \
  '{"id": 6, "op": "run", "calls": ["offer(cs505)"]}')
echo "$out"
echo "$out" | grep -q '"id": 5, "ok": true, "result": true'
echo "$out" | grep -q '"code": "read-only"'
$fds client --socket follower.sock '{"id": 7, "op": "shutdown"}'
wait "$follower"
cat leader.log follower.log
grep -q "unreachable; serving reads only" follower.log
# both surviving journals replay to the same committed state
lrep=$($fds replay specs/university.schema leader.journal | sed -n '/final state:/,$p')
frep=$($fds replay specs/university.schema follower.journal | sed -n '/final state:/,$p')
echo "$lrep"
test -n "$lrep"
test "$lrep" = "$frep"
# the follower's recovery is snapshot-bounded
$fds replay specs/university.schema follower.journal | grep "installed snapshot" >/dev/null
dune exec bench/trace_validate.exe -- trace-follower.json

# --- group commit: every acknowledged commit survives SIGKILL --------
$fds serve specs/university.schema --socket gc.sock --transactional \
  --journal gc.journal --workers 4 2>gc.log &
gc=$!
$fds client --socket gc.sock --retries 10 \
  '{"id": 0, "op": "run", "calls": ["initiate()"]}' >/dev/null
committers=()
for k in 1 2 3 4; do
  for i in $(seq 1 400); do
    echo "{\"id\": $i, \"op\": \"run\", \"calls\": [\"offer(g${k}_$i)\"]}"
  done | $fds client --socket gc.sock >"gc-ack.$k" 2>/dev/null &
  committers+=($!)
done
for i in $(seq 1 100); do
  test "$(cat gc-ack.* | wc -l)" -ge 400 && break
  sleep 0.05
done
stats=$($fds client --socket gc.sock '{"id": 0, "op": "stats"}')
echo "$stats" | grep -o '"\(journal.syncs\|journal.appends\|txn.commits\|service.workers\)": [0-9]*'
kill -9 "$gc"
wait "$gc" || true
for pid in "${committers[@]}"; do wait "$pid" || true; done
$fds serve specs/university.schema --socket gc.sock --transactional \
  --journal gc.journal 2>>gc.log &
gc=$!
$fds client --socket gc.sock --retries 10 '{"id": 0, "op": "state"}' |
  grep -o '"g[0-9]*_[0-9]*"' | tr -d '"' | sort >gc-ack.present
for k in 1 2 3 4; do
  grep -o '"id": [0-9]*, "ok": true' "gc-ack.$k" | grep -o '[0-9]*,' |
    tr -d , | sed "s/^/g${k}_/"
done | sort >gc-ack.acked
lost=$(comm -23 gc-ack.acked gc-ack.present)
test -z "$lost" || { echo "acknowledged commits lost by the restart: $lost"; exit 1; }
echo "restart replayed all $(wc -l <gc-ack.acked) acknowledged commits" \
  "($(wc -l <gc-ack.present) journaled)"
test -s gc-ack.acked
$fds client --socket gc.sock '{"id": 1, "op": "shutdown"}' >/dev/null
wait "$gc"
echo "replication smoke ok"
