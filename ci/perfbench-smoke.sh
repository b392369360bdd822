#!/usr/bin/env bash
# End-to-end perfbench smoke: run each perfbench workload for a short
# window against the real `fds serve` (see perfbench/NOTES.md). Every
# run must end correct with no failed operation, and read_mix's
# throughput goes through gate.exe, whose bound table in bench/gate.ml
# holds its floor. A server that outlives its stop signal by 5 s
# (run.py then kills it and says so on stderr) fails the smoke too.
# Run from the repo root:
#   bash ci/perfbench-smoke.sh
set -euo pipefail

rm -f perfbench-*.json perfbench-*.err
dune build bench/gate.exe
for w in read_mix commit_durable txn_monitored; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 3 \
    2> "perfbench-$w.err" | tail -n 1 > "perfbench-$w.json" \
    || { cat "perfbench-$w.err" >&2; exit 1; }
  cat "perfbench-$w.err" >&2
  cat "perfbench-$w.json"
  if grep -q "still running 5 s after signal" "perfbench-$w.err"; then
    echo "perfbench smoke: a $w server ignored its stop signal" >&2
    exit 1
  fi
  python3 - "perfbench-$w.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)
PY
done

echo '{ "calibration_ns": 1, "metrics": {} }' > perfbench-base.json
python3 - > perfbench-current.json <<'PY'
import json
ops = json.load(open("perfbench-read_mix.json"))["metrics"]["ops_s"]["value"]
print(json.dumps({"calibration_ns": 1, "metrics": {},
                  "derived": {"read_mix_ops_s": ops}}))
PY
_build/default/bench/gate.exe --baseline perfbench-base.json \
  --current perfbench-current.json
echo "perfbench smoke ok"
