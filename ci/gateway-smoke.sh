#!/usr/bin/env bash
# Gateway smoke: the production edge under load.
#   1. 100 concurrent client connections, each pipelining 5 requests
#      over a pooled connection, are all served to completion.
#   2. Two tenant namespaces over the same schema: writes are isolated,
#      journals are per-namespace, and the second tenant compiles no
#      new plans (the planner cache is shared by schema fingerprint).
#   3. A rate-limited server answers over-limit requests with a
#      structured "overloaded" error carrying a retry hint — every
#      request gets a reply; nothing hangs.
# Run from the repo root: bash ci/gateway-smoke.sh
set -euo pipefail

rm -f gw.sock gwrl.sock gw.journal gw.journal.* gw.log gwrl.log
rm -rf gw-out && mkdir -p gw-out
dune build bin/fds.exe
fds=_build/default/bin/fds.exe

$fds serve specs/university.schema --socket gw.sock --transactional \
  --journal gw.journal --auth-token smoke --workers 4 2>gw.log &
server=$!
for i in $(seq 1 100); do test -S gw.sock && break; sleep 0.1; done

# --- 1: 100 concurrent connections, 5 pipelined pings each ----------
pids=()
for i in $(seq 1 100); do
  timeout 60 $fds client --socket gw.sock --retries 10 \
    --requests 5 --quiet '{"id": 1, "op": "ping"}' >"gw-out/$i" &
  pids+=($!)
done
for p in "${pids[@]}"; do wait "$p"; done
test "$(cat gw-out/* | grep -c '^5 responses$')" -eq 100
echo "smoke: 100 concurrent connections served"
# serving domains and cross-domain poll interruptions: wakes stay 0
# with one serving domain and count the multi-domain path otherwise
$fds client --socket gw.sock '{"id": 1, "op": "stats"}' \
  | grep -o '"service\.\(workers\|wakes\)": [0-9]*' | sed 's/^/smoke: /'

# --- 2: multi-tenant isolation + shared planner cache ---------------
# Warm the query plan on tenant t1, then read the global planner-miss
# counter; tenant t2 runs the identical query against its own (empty)
# store and must add zero misses.
out1=$($fds client --socket gw.sock --retries 10 \
  '{"id": 1, "op": "attach", "namespace": "t1", "token": "smoke"}' \
  '{"id": 2, "op": "run", "calls": ["initiate()", "offer(cs101)"]}' \
  '{"id": 3, "op": "query", "wff": "exists c:course. OFFERED(c)"}' \
  '{"id": 4, "op": "stats"}')
echo "$out1" | grep -q '"result": true'
m_before=$(echo "$out1" | grep -o '"planner_misses": [0-9]*' | tail -1)
out2=$($fds client --socket gw.sock --retries 10 \
  '{"id": 5, "op": "attach", "namespace": "t2", "token": "smoke"}' \
  '{"id": 6, "op": "query", "wff": "exists c:course. OFFERED(c)"}' \
  '{"id": 7, "op": "stats"}')
echo "$out2" | grep -q '"result": false'
m_after=$(echo "$out2" | grep -o '"planner_misses": [0-9]*' | tail -1)
test "$m_before" = "$m_after"
$fds client --socket gw.sock --retries 10 \
  '{"id": 8, "op": "attach", "namespace": "t1", "token": "nope"}' \
  | grep -q '"code": "unauthorized"'
echo "smoke: namespaces isolated, planner cache shared ($m_before)"

$fds client --socket gw.sock '{"id": 9, "op": "shutdown"}' >/dev/null
wait "$server"
grep -q "server stopped" gw.log
grep -q "^commit$" gw.journal.t1
test ! -f gw.journal.t2
test ! -S gw.sock

# --- 3: admission control rejects with structure, never hangs -------
$fds serve specs/university.schema --socket gwrl.sock \
  --rate-limit 2 --rate-burst 2 --workers 2 2>gwrl.log &
server2=$!
for i in $(seq 1 100); do test -S gwrl.sock && break; sleep 0.1; done
out3=$(timeout 60 $fds client --socket gwrl.sock --retries 10 \
  --requests 10 '{"id": 1, "op": "ping"}')
test "$(echo "$out3" | wc -l)" -eq 10
echo "$out3" | grep -q '"code": "overloaded"'
echo "$out3" | grep -q '"retry-after-ms"'
rejected=$(echo "$out3" | grep -c '"code": "overloaded"')
echo "smoke: $rejected/10 over-limit requests rejected with retry hint"

$fds client --socket gwrl.sock '{"id": 99, "op": "shutdown"}' >/dev/null
wait "$server2"
test ! -S gwrl.sock
echo "gateway smoke ok"
