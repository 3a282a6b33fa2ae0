#!/usr/bin/env bash
# Differential end-to-end check: epgc_serve must never drift from
# epgc_compile.
#
# Eight legs over every corpus entry (.epgc) in CORPUS_DIR:
#   * drift: each graph is compiled by epgc_compile (reference metrics +
#     --epgc circuit) and through the service at the default spec — the
#     two run the exact same configuration, so metrics must match
#     field-for-field and the embedded circuit byte-for-byte. The
#     service fans each compile across its pool lanes (--inner-threads
#     defaults to --jobs) while epgc_compile runs serially, so this leg is
#     also a cross-lane check;
#   * bit-stability: two deterministic-mode service runs over the same
#     requests must produce byte-identical NDJSON (deterministic
#     responses carry no timings);
#   * one mode: the default-mode responses, with their wall-clock fields
#     and generated trace_id removed, must equal the deterministic ones
#     line for line (the flag shapes responses, never compiles);
#   * --once: the one-shot service path the nightly fuzz oracle uses must
#     answer exactly like the long-lived loop;
#   * cluster: the same requests through a 3-worker epgc_cluster must be
#     byte-identical to the single-process responses (det1.ndjson);
#   * cluster kill/respawn: same check with one worker SIGKILLed mid-run —
#     the front must respawn it, redeliver, and still match byte-for-byte;
#   * pipelined cluster: every request written on one connection before
#     any reply is read; put back into request order by id, the replies
#     must equal det1.ndjson;
#   * observability: a non-deterministic 3-worker cluster with --trace-dir
#     must (a) answer the metrics verb on front and worker with monotone,
#     correctly aggregated counters, (b) report the memory cache tier on a
#     repeated compile, and (c) dump per-request Chrome trace JSON whose
#     spans cover all five pipeline stages.
#
# Usage: ci/serve_e2e.sh BUILD_DIR CORPUS_DIR
set -euo pipefail

BUILD=${1:?usage: serve_e2e.sh BUILD_DIR CORPUS_DIR}
CORPUS=${2:?usage: serve_e2e.sh BUILD_DIR CORPUS_DIR}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

shopt -s nullglob
entries=("$CORPUS"/*.epgc)
if [ "${#entries[@]}" -eq 0 ]; then
  echo "serve-e2e: no .epgc entries in $CORPUS" >&2
  exit 1
fi

for f in "${entries[@]}"; do
  name=$(basename "$f" .epgc)
  g6=$(awk '$1 == "graph" { print $2; exit }' "$f")
  if [ -z "$g6" ]; then
    echo "serve-e2e: no graph line in $f" >&2
    exit 1
  fi
  printf '%s\n' "$g6" > "$WORK/$name.g6"
  "$BUILD/epgc_compile" --quiet --epgc "$WORK/$name.ref.epgc" \
    "$WORK/$name.g6" > "$WORK/$name.metrics"
done

# graph6 freely uses '\' and other JSON-special bytes — build the request
# lines with a real JSON encoder, not printf.
python3 - "$WORK" <<'EOF'
import json
import pathlib
import sys

work = pathlib.Path(sys.argv[1])
with open(work / "requests.ndjson", "w") as out:
    for g6_file in sorted(work.glob("*.g6")):
        name = g6_file.stem
        g6 = g6_file.read_text().strip()
        out.write(json.dumps({"op": "compile", "id": name, "graph": g6,
                              "circuit": True}) + "\n")
EOF

# Leg 1 (drift): the default spec on both sides — identical
# configuration, so a mismatch is a real service/CLI divergence.
"$BUILD/epgc_serve" \
  < "$WORK/requests.ndjson" > "$WORK/responses.ndjson"

# Leg 2 (bit-stability): deterministic mode must be byte-reproducible.
"$BUILD/epgc_serve" --deterministic \
  < "$WORK/requests.ndjson" > "$WORK/det1.ndjson"
"$BUILD/epgc_serve" --deterministic \
  < "$WORK/requests.ndjson" > "$WORK/det2.ndjson"
diff "$WORK/det1.ndjson" "$WORK/det2.ndjson" \
  || { echo "serve-e2e: responses not bit-stable across runs" >&2; exit 1; }

# Leg 2b (one mode): --deterministic only drops wall-clock fields and the
# generated trace_id; everything else, in order, equals a default run.
python3 - "$WORK" <<'EOF'
import json
import pathlib
import sys

work = pathlib.Path(sys.argv[1])
live = (work / "responses.ndjson").read_text().splitlines()
det = (work / "det1.ndjson").read_text().splitlines()
if len(live) != len(det):
    sys.exit(f"serve-e2e: {len(live)} default vs {len(det)} deterministic lines")
for i, (a, b) in enumerate(zip(live, det)):
    obj = json.loads(a)
    if "trace_id" not in obj:
        sys.exit(f"serve-e2e: default-mode line {i + 1} lacks a generated "
                 "trace_id")
    for key in ("wall_ms", "queued_ms", "compute_ms", "trace_id"):
        obj.pop(key, None)
    if list(obj.items()) != list(json.loads(b).items()):
        sys.exit(f"serve-e2e: line {i + 1} differs between default and "
                 "deterministic mode beyond timings and trace_id")
print(f"serve-e2e: {len(det)} default-mode responses equal the "
      "deterministic ones minus timings and trace_id")
EOF

# Leg 3 (--once): the one-shot path must answer like the serving loop.
head -1 "$WORK/requests.ndjson" | "$BUILD/epgc_serve" --deterministic --once \
  > "$WORK/once.ndjson"
head -1 "$WORK/det1.ndjson" | diff - "$WORK/once.ndjson" \
  || { echo "serve-e2e: --once response drifted from serving loop" >&2; exit 1; }

# Legs 4+5 (cluster): the sharded front must be indistinguishable, byte
# for byte, from the single process — with and without a worker dying
# mid-run. The client script drives the front over its Unix socket,
# SIGKILLs one worker (pid learned from the front's health op) halfway
# through when asked to, and checks the front reports the respawn.
run_cluster_leg() {
  local tag=$1 kill_flag=$2
  "$BUILD/epgc_cluster" --workers 3 --deterministic \
    --runtime-dir "$WORK/rt-$tag" --socket "$WORK/$tag.sock" \
    2> "$WORK/$tag.log" &
  local front_pid=$!
  python3 - "$WORK" "$tag" "$kill_flag" <<'EOF'
import json
import os
import pathlib
import signal
import socket
import sys
import time

work, tag, do_kill = pathlib.Path(sys.argv[1]), sys.argv[2], sys.argv[3] == "kill"
path = work / f"{tag}.sock"
deadline = time.time() + 30
while not path.exists():
    if time.time() > deadline:
        sys.exit(f"cluster-{tag}: front socket never appeared")
    time.sleep(0.05)
conn = socket.socket(socket.AF_UNIX)
conn.connect(str(path))
f = conn.makefile("rw")

def ask(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()
    return f.readline().rstrip("\n")

requests = (work / "requests.ndjson").read_text().splitlines()
responses = []
for i, line in enumerate(requests):
    if do_kill and i == len(requests) // 2:
        # Learn a live worker pid from the front itself, then kill it.
        health = json.loads(ask({"op": "health", "id": "__kill_probe__"}))
        pid = next(w["pid"] for w in health["workers"]
                   if w.get("up") and w.get("pid", -1) > 0)
        os.kill(pid, signal.SIGKILL)
    f.write(line + "\n")
    f.flush()
    responses.append(f.readline().rstrip("\n"))
if do_kill:
    stats = json.loads(ask({"op": "stats", "id": "__respawn_check__"}))
    if stats.get("respawns", 0) < 1:
        sys.exit(f"cluster-{tag}: worker killed but front reports no respawn")
ask({"op": "shutdown", "id": "__drain__"})
(work / f"{tag}.ndjson").write_text("".join(r + "\n" for r in responses))
EOF
  wait "$front_pid" \
    || { echo "serve-e2e: cluster front ($tag) exited nonzero" >&2;
         cat "$WORK/$tag.log" >&2; exit 1; }
  diff "$WORK/$tag.ndjson" "$WORK/det1.ndjson" \
    || { echo "serve-e2e: cluster ($tag) drifted from single-process bytes" >&2;
         exit 1; }
}

run_cluster_leg cluster no-kill
run_cluster_leg cluster-kill kill
echo "serve-e2e: cluster legs byte-equal (3 workers, incl. kill/respawn)"

# Leg 5b (pipelined cluster): every request written on one connection
# without waiting, so each worker has several in flight from the front.
# Replies from different workers may overtake each other; put back in
# request order by id, they must equal the single-process bytes.
"$BUILD/epgc_cluster" --workers 3 --deterministic \
  --runtime-dir "$WORK/rt-pipe" --socket "$WORK/pipe.sock" \
  2> "$WORK/pipe.log" &
pipe_front_pid=$!
python3 - "$WORK" <<'EOF'
import json
import pathlib
import socket
import sys
import time

work = pathlib.Path(sys.argv[1])
path = work / "pipe.sock"
deadline = time.time() + 30
while not path.exists():
    if time.time() > deadline:
        sys.exit("cluster-pipe: front socket never appeared")
    time.sleep(0.05)
conn = socket.socket(socket.AF_UNIX)
conn.connect(str(path))
requests = (work / "requests.ndjson").read_text().splitlines()
conn.sendall("".join(line + "\n" for line in requests).encode())
f = conn.makefile("r")
by_id = {}
for _ in requests:
    reply = f.readline().rstrip("\n")
    by_id[json.loads(reply)["id"]] = reply
order = [json.loads(line)["id"] for line in requests]
if sorted(by_id) != sorted(order):
    sys.exit(f"cluster-pipe: replies for {sorted(by_id)}, asked {sorted(order)}")
conn.sendall(b'{"op":"shutdown","id":"__drain__"}\n')
f.readline()
(work / "pipe.ndjson").write_text("".join(by_id[i] + "\n" for i in order))
EOF
wait "$pipe_front_pid" \
  || { echo "serve-e2e: pipelined cluster front exited nonzero" >&2;
       cat "$WORK/pipe.log" >&2; exit 1; }
cmp "$WORK/pipe.ndjson" "$WORK/det1.ndjson" \
  || { echo "serve-e2e: pipelined cluster drifted from single-process bytes" >&2;
       exit 1; }
echo "serve-e2e: pipelined cluster leg byte-equal (all requests in flight at once)"

# Leg 6 (observability): metrics verb + per-request trace dumps on a
# NON-deterministic cluster (trace ids and timing fields are live there).
"$BUILD/epgc_cluster" --workers 3 \
  --runtime-dir "$WORK/rt-obs" --socket "$WORK/obs.sock" \
  --trace-dir "$WORK/traces" \
  2> "$WORK/obs.log" &
obs_front_pid=$!
python3 - "$WORK" <<'EOF'
import json
import pathlib
import socket
import sys
import time

work = pathlib.Path(sys.argv[1])
path = work / "obs.sock"
deadline = time.time() + 30
while not path.exists():
    if time.time() > deadline:
        sys.exit("obs leg: front socket never appeared")
    time.sleep(0.05)
conn = socket.socket(socket.AF_UNIX)
conn.connect(str(path))
f = conn.makefile("rw")

def ask(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()
    return json.loads(f.readline())

def check(cond, msg):
    if not cond:
        sys.exit(f"obs leg: {msg}")

def agg_requests(resp):
    check(resp.get("ok") and resp.get("role") == "front",
          f"bad front metrics envelope: {resp}")
    workers = resp["workers"]
    check(len(workers) == 3, "front must report 3 workers")
    sum_workers = sum(w["metrics"]["counters"]["epgc_requests_total"]
                      for w in workers)
    agg = resp["aggregate"]["counters"]["epgc_requests_total"]
    check(agg == sum_workers,
          f"aggregate requests {agg} != worker sum {sum_workers}")
    return agg

g6 = sorted(work.glob("*.g6"))[0].read_text().strip()
compile_req = {"op": "compile", "id": "obs", "graph": g6,
               "trace_id": "e2e-obs-compile"}

before = agg_requests(ask({"op": "metrics", "id": "m1"}))
first = ask(compile_req)
check(first.get("ok"), f"compile failed: {first}")
check(first.get("trace_id") == "e2e-obs-compile",
      "client trace_id not echoed by the cluster")
check("compute_ms" in first and "queued_ms" in first,
      "non-deterministic response must carry queued_ms/compute_ms")
# Same graph, fresh trace_id: the repeat must hit the memory tier, and a
# distinct id keeps it from overwriting the first (stage-rich) trace dump.
second = ask({**compile_req, "trace_id": "e2e-obs-repeat"})
check(second.get("tier") == "memory",
      f"repeated compile must hit the memory tier, got {second.get('tier')}")
after = agg_requests(ask({"op": "metrics", "id": "m2"}))
check(after > before,
      f"front aggregate requests not monotone: {before} -> {after}")

# prometheus:true propagates through the front's per-worker probe, so the
# breakdown carries each worker's own Prometheus text exposition.
worker = ask({"op": "metrics", "id": "m3", "prometheus": True})
check(worker.get("role") == "front", "metrics is a front-answered op")
check(all("epgc_requests_total" in w.get("prometheus", "")
          for w in worker["workers"]),
      "workers must expose Prometheus text when asked")
hits = worker["aggregate"]["counters"].get("epgc_cache_hits_total", 0)
check(hits >= 1, f"memory-tier hit must count as a cache hit, got {hits}")

ask({"op": "shutdown", "id": "__drain__"})
EOF
wait "$obs_front_pid" \
  || { echo "serve-e2e: obs cluster front exited nonzero" >&2;
       cat "$WORK/obs.log" >&2; exit 1; }

python3 - "$WORK" <<'EOF'
import json
import pathlib
import sys

work = pathlib.Path(sys.argv[1])
trace = work / "traces" / "trace-e2e-obs-compile.json"
if not trace.exists():
    dumped = sorted(p.name for p in (work / "traces").glob("*.json"))
    sys.exit(f"obs leg: no trace dumped for the compile request; saw {dumped}")
doc = json.loads(trace.read_text())
events = doc.get("traceEvents", [])
names = {e.get("name") for e in events}
stages = {"partition", "subgraph", "schedule", "correction", "verify"}
missing = stages - names
if missing:
    sys.exit(f"obs leg: trace lacks pipeline stage spans: {sorted(missing)}")
root = [e for e in events if e.get("name") == "request"]
if not root:
    sys.exit("obs leg: trace lacks the root request span")
r = root[0]
for e in events:
    if e.get("tid") == r.get("tid") and e is not r:
        if not (r["ts"] <= e["ts"] and
                e["ts"] + e["dur"] <= r["ts"] + r["dur"]):
            sys.exit(f"obs leg: span {e['name']} escapes the request span")
print("serve-e2e: metrics verb aggregates correctly; trace dump covers "
      f"all 5 pipeline stages ({len(events)} events)")
EOF

python3 - "$WORK" <<'EOF'
import json
import pathlib
import sys

work = pathlib.Path(sys.argv[1])
failures = []
checked = 0

def ref_metrics(path):
    """Parse `epgc_compile --quiet` stdout."""
    out = {}
    for line in path.read_text().splitlines():
        parts = line.split()
        if line.startswith("ee-CNOTs"):
            out["ee_cnot_count"] = int(parts[1])
        elif line.startswith("emissions"):
            out["emission_count"] = int(parts[1])
        elif line.startswith("duration"):
            out["duration_tau"] = float(parts[1])
        elif line.startswith("T_loss"):
            out["t_loss_tau"] = float(parts[1])
        elif line.startswith("state survival"):
            out["state_survival"] = float(parts[2])
        elif line.startswith("emitters"):
            out["emitters_used"] = int(parts[1])
            out["ne_limit"] = int(parts[3].rstrip(")"))
        elif line.startswith("verified"):
            out["verified"] = parts[1] == "yes"
    return out

for line in (work / "responses.ndjson").read_text().splitlines():
    resp = json.loads(line)
    name = resp["id"]
    if not resp.get("ok"):
        failures.append(f"{name}: service error {resp.get('error')}")
        continue
    ref = ref_metrics(work / f"{name}.metrics")
    for key, want in ref.items():
        got = resp.get(key)
        if got != want:
            failures.append(f"{name}: {key} service={got!r} cli={want!r}")
    ref_circuit = (work / f"{name}.ref.epgc").read_text()
    if resp.get("circuit") != ref_circuit:
        failures.append(f"{name}: circuit bytes differ from --epgc output")
    checked += 1

if failures:
    print("serve-e2e FAILURES:")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print(f"serve-e2e: {checked} corpus entries byte-equal between "
      "epgc_serve and epgc_compile")
EOF
