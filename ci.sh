#!/usr/bin/env bash
# CI gate: the tier-1 verify command (ROADMAP.md) plus the sanitizer pass,
# with per-stage timing and a one-line recap so CI logs are skimmable.
#
# Usage: ./ci.sh            — everything: the release lane, then ASan/UBSan.
#        ./ci.sh release    — src/ layering check, -Werror Release build,
#                             full ctest, observe-path smoke, sweep-engine
#                             smoke (resume round-trip, thread determinism,
#                             distributed dispatch incl. localhost-TCP
#                             workers), serve smoke (real server
#                             + driver + SIGTERM drain), replay smoke (offline
#                             panel over the serve log + logging-identity pin
#                             + sharded 2-worker panel, also with a
#                             SIGKILLed worker), metrics identity
#                             (event logs and decision dumps byte-identical
#                             with metrics enabled, polled, and compiled out).
#        ./ci.sh asan       — ASan/UBSan build + test suite only. The release
#                             and asan lanes are disjoint so CI runs them as
#                             parallel jobs; the no-argument form is their
#                             union for local use.
#        ./ci.sh bench      — -Werror Release build, then the tracked
#                             benchmark suites (micro_policies + scaling_k)
#                             in Google Benchmark JSON mode, merged into
#                             BENCH_graph.json at the repo root and guarded
#                             against a pinned anchor commit built in
#                             build-anchor/ (needs its git history), plus the
#                             serve throughput bench into BENCH_serve.json
#                             (its obs microbenches guarded against the same
#                             anchor) and the offline replay panel bench into
#                             BENCH_replay.json.
#        NCB_CI_JOBS=N ./ci.sh          — override parallelism.
#        NCB_BENCH_MIN_TIME=0.5 ./ci.sh bench — slower, steadier timings.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${NCB_CI_JOBS:-$(nproc)}"
RECAP=()

# stage <short-label> <heading> <fn...>: run, time, and record for the recap.
stage() {
  local label="$1" heading="$2" t0 dt
  shift 2
  echo "== ${heading} =="
  t0=$(date +%s)
  "$@"
  dt=$(( $(date +%s) - t0 ))
  RECAP+=("${label} OK (${dt}s)")
}

# Layering: each src/ subsystem may include only itself and the subsystems
# listed before it in LAYERS, so the dependency graph stays a DAG. Every
# offending include is printed as file:line. The stage also fails when a
# src/*/*.cpp on disk is missing from src/CMakeLists.txt or a listed source
# does not exist, so a half-done move or an orphaned file cannot land.
LAYERS="util theory obs wire graph env strategy core sim exp net dist serve replay"
layering() {
  local -A rank
  local i=0 layer file line dep dir bad=0
  for layer in $LAYERS; do rank[$layer]=$((i++)); done
  while IFS=: read -r file line dep; do
    dir=${file#src/}; dir=${dir%%/*}
    dep=${dep#*\"}; dep=${dep%/}
    [ "$dir" = "$dep" ] && continue
    if [ -z "${rank[$dir]+x}" ] || [ -z "${rank[$dep]+x}" ]; then
      echo "layering: $file:$line: $dir -> $dep (subsystem missing from LAYERS)"
      bad=1
    elif [ "${rank[$dep]}" -gt "${rank[$dir]}" ]; then
      echo "layering: $file:$line: $dir includes later subsystem $dep/"
      bad=1
    fi
  done < <(grep -rnoE '^\s*#\s*include\s*"[a-z_]+/' src)
  local -A listed
  while read -r file; do
    listed[$file]=1
    if [ ! -f "src/$file" ]; then
      echo "layering: src/CMakeLists.txt lists missing source src/$file"
      bad=1
    fi
  done < <(grep -oE '^\s+[a-z_]+/[a-z_0-9]+\.cpp$' src/CMakeLists.txt | tr -d ' ')
  for file in src/*/*.cpp; do
    if [ -z "${listed[${file#src/}]+x}" ]; then
      echo "layering: $file is not listed in src/CMakeLists.txt"
      bad=1
    fi
  done
  [ "$bad" = 0 ] || return 1
  echo "layering: src/ includes follow $LAYERS; src/CMakeLists.txt lists every source"
  # The src/ line count each change reports (ROADMAP, "Quality of design").
  echo "layering: src/ is $(cat src/*/*.hpp src/*/*.cpp | wc -l) lines"
}

release_build() {
  cmake -B build -S . -DNCB_WERROR=ON
  cmake --build build -j "$JOBS"
}

tier1() {
  release_build
  (cd build && ctest --output-on-failure -j "$JOBS")
}

smoke() {
  if [ -x build/bench/micro_policies ]; then
    ./build/bench/micro_policies --benchmark_filter='ObservePerSlot' \
        --benchmark_min_time=0.01
  else
    echo "micro_policies not built (Google Benchmark absent) — smoke skipped"
  fi
}

# Sweep engine smoke: a tiny 2-policy grid (K <= 50) must (a) produce
# byte-identical JSON across thread counts, (b) round-trip through the
# --max-jobs / --resume path to the exact bytes of an uninterrupted run,
# and (c) produce those same bytes from the distributed dispatch layer —
# with 2 worker processes, and again while one worker is SIGKILLed mid-run
# (the NCB_DIST_KILL_KEY crash injection; see src/dist/worker.hpp) so the
# requeue path is exercised on every CI run. The fig3 paper grid then
# repeats the 4-worker + kill comparison at full size.
sweep_smoke() {
  local spec=build/sweep_smoke.spec
  cat > "$spec" <<'EOF'
name = ci-smoke
scenario = sso
policies = moss, dfl-sso
graphs = er
arms = 50
p = 0.3
horizons = 400
replications = 6
checkpoints = 12
seed = 7
EOF
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_full.json \
      --csv build/sweep_full.csv --threads 4
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_resume.json \
      --threads 1 --max-jobs 1
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_resume.json \
      --threads 8 --resume
  cmp build/sweep_full.json build/sweep_resume.json
  echo "sweep smoke: resume round-trip byte-identical across 1/4/8 threads"

  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_dist.json \
      --workers 2
  cmp build/sweep_full.json build/sweep_dist.json
  NCB_DIST_KILL_KEY='sso:dfl-sso@er,K=50,p=0.3,n=400' \
      ./build/examples/ncb_sweep --spec "$spec" \
      --out build/sweep_dist_kill.json --workers 2 \
      | tee build/sweep_dist_kill.log
  # The injection must actually have fired (guards against key drift).
  grep -q 'requeued 1 assignments' build/sweep_dist_kill.log
  cmp build/sweep_full.json build/sweep_dist_kill.json
  echo "sweep smoke: distributed (2 workers, incl. SIGKILLed worker) byte-identical"

  # Localhost-TCP transport: a --listen coordinator with two
  # --worker-connect workers, both carrying the kill key — the injection
  # fires on attempt 1 only, so exactly one worker dies mid-run and the
  # requeued attempt must still land on the reference bytes.
  rm -f build/sweep_tcp.port
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_tcp.json \
      --listen 127.0.0.1:0 --port-file build/sweep_tcp.port \
      > build/sweep_tcp.log 2>&1 &
  local coordinator=$! port='' w1 w2
  for _ in $(seq 1 200); do
    [ -s build/sweep_tcp.port ] && { port=$(cat build/sweep_tcp.port); break; }
    sleep 0.05
  done
  [ -n "$port" ]
  NCB_DIST_KILL_KEY='sso:dfl-sso@er,K=50,p=0.3,n=400' \
      ./build/examples/ncb_sweep --worker-connect "$port" > /dev/null 2>&1 &
  w1=$!
  NCB_DIST_KILL_KEY='sso:dfl-sso@er,K=50,p=0.3,n=400' \
      ./build/examples/ncb_sweep --worker-connect "$port" > /dev/null 2>&1 &
  w2=$!
  wait "$coordinator"
  wait "$w1" || true  # one of the two exits 137 (SIGKILL injection)
  wait "$w2" || true
  grep -q 'requeued 1 assignments' build/sweep_tcp.log
  cmp build/sweep_full.json build/sweep_tcp.json
  echo "sweep smoke: localhost TCP (2 workers, one SIGKILLed mid-run) byte-identical"

  ./build/examples/ncb_sweep --spec specs/fig3.sweep \
      --out build/fig3_inproc.json
  NCB_DIST_KILL_KEY='sso:moss@er,K=100,p=0.3,n=10000' \
      ./build/examples/ncb_sweep --spec specs/fig3.sweep \
      --out build/fig3_dist.json --workers 4 \
      | tee build/fig3_dist.log
  grep -q 'requeued 1 assignments' build/fig3_dist.log
  cmp build/fig3_inproc.json build/fig3_dist.json
  echo "sweep smoke: fig3 across 4 workers (one SIGKILLed) byte-identical"
}

# Serve smoke: a real ncb_serve process (engine + event log + reactor)
# answers 10k driver requests over 2 connections, then gets SIGTERM. The
# server must drain and exit 0, and the log must hold every decision with
# every feedback joined — the zero-torn/zero-lost-records guarantee, checked
# through the actual binaries on every CI run.
serve_smoke() {
  local sock=build/serve_smoke.sock log=build/serve_smoke.ncbl server_pid
  rm -f "$sock" "$log" build/serve_smoke_metrics.json
  ./build/examples/ncb_serve --socket "$sock" --policy 'eps-greedy:eps=0' \
      --epsilon 0.1 --arms 200 --graph er --edge-prob 0.1 --seed 7 \
      --log "$log" --metrics-out build/serve_smoke_metrics.json \
      --metrics-interval-ms 50 > build/serve_smoke.out 2>&1 &
  server_pid=$!
  for _ in $(seq 1 200); do [ -S "$sock" ] && break; sleep 0.05; done
  if ! ./build/examples/ncb_serve_driver --socket "$sock" --requests 10000 \
      --connections 2 --keys 64 --arms 200 --graph er --edge-prob 0.1 \
      --seed 7; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" || true
    cat build/serve_smoke.out >&2
    return 1
  fi
  # Live stats poll against the still-running server: the counter the
  # driver just drove must be visible over the StatsRequest frame.
  ./build/examples/ncb_stats --socket "$sock" --raw \
      | tee build/serve_smoke.stats
  grep -q '^serve\.decide\.requests 10000$' build/serve_smoke.stats
  grep -q '^serve\.engine\.feedbacks 10000$' build/serve_smoke.stats
  kill -TERM "$server_pid"
  wait "$server_pid"  # non-zero exit (or a crash) fails the stage
  # The periodic snapshotter must have left a final JSON snapshot behind.
  grep -q '"schema": 1' build/serve_smoke_metrics.json
  grep -q '"serve.decide.requests": 10000' build/serve_smoke_metrics.json
  ./build/examples/ncb_serve --inspect-log "$log" \
      | tee build/serve_smoke.inspect
  grep -q 'records=20000 decisions=10000 feedbacks=10000 joined=10000' \
      build/serve_smoke.inspect
  grep -q '"duplicate_feedbacks": 0' build/serve_smoke.inspect
  grep -q '"orphan_feedbacks": 0' build/serve_smoke.inspect
  grep -q '"unjoined_decisions": 0' build/serve_smoke.inspect
  echo "serve smoke: 10k decisions / 2 connections, 10000/10000 joined, live stats polled, clean SIGTERM drain"
}

# Metrics must observe, never steer: one lockstep workload against (a) a
# metrics-enabled server, (b) the same server hammered by ncb_stats --watch
# mid-run, and (c) an NCB_NO_METRICS cross-build. Event logs and decision
# dumps must be byte-identical across all three.
metrics_identity() {
  cmake -B build-nometrics -S . -DNCB_WERROR=ON -DNCB_NO_METRICS=ON \
        -DNCB_BUILD_TESTS=OFF -DNCB_BUILD_BENCH=OFF > /dev/null
  cmake --build build-nometrics -j "$JOBS" --target ncb_serve > /dev/null
  local variant sock log dump server server_pid watcher_pid
  for variant in on polled nometrics; do
    sock="build/metrics_${variant}.sock"
    log="build/metrics_${variant}.ncbl"
    dump="build/metrics_${variant}.dump"
    rm -f "$sock" "$log" "$dump"
    server=./build/examples/ncb_serve
    [ "$variant" = nometrics ] && server=./build-nometrics/examples/ncb_serve
    "$server" --socket "$sock" --policy 'eps-greedy:eps=0' \
        --epsilon 0.1 --arms 200 --graph er --edge-prob 0.1 --seed 7 \
        --log "$log" --metrics-out "build/metrics_${variant}.json" \
        > "build/metrics_${variant}.out" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 200); do [ -S "$sock" ] && break; sleep 0.05; done
    watcher_pid=""
    if [ "$variant" = polled ]; then
      ./build/examples/ncb_stats --socket "$sock" --watch --interval-ms 5 \
          > /dev/null 2>&1 &
      watcher_pid=$!
    fi
    ./build/examples/ncb_serve_driver --socket "$sock" --requests 2000 \
        --connections 2 --keys 64 --arms 200 --graph er --edge-prob 0.1 \
        --seed 7 --lockstep --dump "$dump" > /dev/null
    if [ -n "$watcher_pid" ]; then
      kill -TERM "$watcher_pid" 2>/dev/null || true
      wait "$watcher_pid" || true
    fi
    kill -TERM "$server_pid"
    wait "$server_pid"
  done
  cmp build/metrics_on.ncbl build/metrics_polled.ncbl
  cmp build/metrics_on.ncbl build/metrics_nometrics.ncbl
  cmp build/metrics_on.dump build/metrics_polled.dump
  cmp build/metrics_on.dump build/metrics_nometrics.dump
  echo "metrics identity: logs + dumps byte-identical (enabled / polled / NCB_NO_METRICS)"
}

# Replay smoke: the offline evaluator prices a candidate panel on the log
# the serve smoke just wrote, with the serving spec pinned as the logging
# policy. Asserts (a) the logging-identity line — the IPS estimate of the
# logging policy equals the log's empirical mean bitwise, or ncb_replay
# exits 1; (b) the panel JSON carries the schema header and estimator
# fields; (c) a second run, a 2-worker sharded run and a 2-worker run with
# one worker SIGKILLed mid-candidate are all byte-identical; (d) a
# truncated copy of the log makes --inspect-log exit nonzero and say so.
replay_smoke() {
  local log=build/serve_smoke.ncbl
  if [ ! -f "$log" ]; then
    echo "error: $log missing — replay smoke must run after serve smoke" >&2
    return 1
  fi
  ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'ucb1;dfl-sso' \
      --arms 200 --graph er --edge-prob 0.1 --seed 7 --epsilon 0.1 \
      --out build/replay_smoke.json | tee build/replay_smoke.out
  grep -q 'logging identity OK' build/replay_smoke.out
  grep -q '"schema": 1' build/replay_smoke.json
  grep -q '"ips_mean":' build/replay_smoke.json
  grep -q '"dr_mean":' build/replay_smoke.json
  grep -q '"ess":' build/replay_smoke.json
  ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'ucb1;dfl-sso' \
      --arms 200 --graph er --edge-prob 0.1 --seed 7 --epsilon 0.1 \
      --out build/replay_smoke_2.json > /dev/null
  cmp build/replay_smoke.json build/replay_smoke_2.json
  # Sharded panel: candidates fanned across 2 worker processes must
  # reassemble to the single-process bytes, logging identity included.
  ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'ucb1;dfl-sso' \
      --arms 200 --graph er --edge-prob 0.1 --seed 7 --epsilon 0.1 \
      --workers 2 --out build/replay_smoke_dist.json \
      | tee build/replay_smoke_dist.out
  grep -q 'logging identity OK' build/replay_smoke_dist.out
  cmp build/replay_smoke.json build/replay_smoke_dist.json
  echo "replay smoke: sharded panel (2 workers) byte-identical to single-process"
  # Crash requeue: the worker assigned dfl-sso SIGKILLs itself on attempt 1;
  # the requeued candidate must reassemble to the same bytes.
  NCB_REPLAY_KILL_SPEC=dfl-sso ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'ucb1;dfl-sso' \
      --arms 200 --graph er --edge-prob 0.1 --seed 7 --epsilon 0.1 \
      --workers 2 --out build/replay_smoke_kill.json \
      | tee build/replay_smoke_kill.out
  # The injection must actually have fired (guards against spec drift).
  grep -q 'requeued 1 candidates' build/replay_smoke_kill.out
  cmp build/replay_smoke.json build/replay_smoke_kill.json
  echo "replay smoke: sharded panel with a SIGKILLed worker byte-identical"
  # Chop the tail mid-record: inspect must refuse to call the log intact.
  local size
  size=$(stat -c %s "$log")
  head -c $(( size - 3 )) "$log" > build/replay_smoke_truncated.ncbl
  if ./build/examples/ncb_serve --inspect-log build/replay_smoke_truncated.ncbl \
      > build/replay_truncated.out 2>&1; then
    echo "error: --inspect-log exited 0 on a truncated log" >&2
    return 1
  fi
  grep -qi 'truncated' build/replay_truncated.out
  echo "replay smoke: logging identity pinned, panel byte-identical, truncated log rejected"
}

asan() {
  cmake -B build-asan -S . -DNCB_SANITIZE=ON -DNCB_BUILD_BENCH=OFF \
        -DNCB_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && ctest --output-on-failure -j "$JOBS")
}

# Tracked benchmarks: micro_policies (policy/substrate hot paths) and
# scaling_k (relation-graph large-K hot paths), merged into one JSON file
# that seeds the perf trajectory. Keep BENCH_graph.json committed so every
# PR's numbers land in history.
bench_tracked() {
  if [ ! -x build/bench/micro_policies ] || [ ! -x build/bench/scaling_k ]; then
    echo "error: Google Benchmark binaries missing — cannot run tracked benches" >&2
    exit 1
  fi
  local min_time="${NCB_BENCH_MIN_TIME:-0.05}"
  ./build/bench/micro_policies --benchmark_out=build/bench_micro.json \
      --benchmark_out_format=json --benchmark_min_time="$min_time"
  ./build/bench/scaling_k --benchmark_out=build/bench_scaling.json \
      --benchmark_out_format=json --benchmark_min_time="$min_time"
  python3 - <<'PY'
import json

merged = {"schema": 1, "benches": {}}
for name, path in (("micro_policies", "build/bench_micro.json"),
                   ("scaling_k", "build/bench_scaling.json")):
    with open(path) as f:
        merged["benches"][name] = json.load(f)
with open("BENCH_graph.json", "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print("wrote BENCH_graph.json")
PY
  bench_regression_guard
}

# Regression guards, paired against a pinned anchor commit. A baseline
# recorded once drifts with the machine that runs it (the scaling_k
# baseline of 2026-08-07 later read 1.5-2.3x slower on unchanged code, and
# the obs points read 1.45-1.76x HEAD's committed values on unchanged obs
# code), so the guards build BENCH_ANCHOR's scaling_k and obs_overhead in
# build-anchor/ and run every guarded benchmark BENCH_GUARD_ROUNDS times on
# the anchor and the change, alternating which goes first, one process
# each. A guard fails when the median of a benchmark's per-round
# change/anchor ratios exceeds 1.5x. Its report always lands in
# build/bench_<tag>_regression.txt (uploaded as a CI artifact) so a red run
# shows exactly which point moved. Benchmarks the anchor lacks are reported
# but never fail a guard. Move the anchor only together with a CHANGES.md
# note giving its old and new numbers.
BENCH_ANCHOR=0f63384ab1d2397377e89a932c3b6c35fc20b618
BENCH_GUARD_ROUNDS=3
BENCH_GUARD_FILTER='^BM_(DflSsoSlot|ClosedNeighborhoodSweep)'

bench_anchor_build() {
  if ! git cat-file -e "${BENCH_ANCHOR}^{commit}" 2>/dev/null; then
    echo "bench guard: anchor ${BENCH_ANCHOR} is not in this clone" \
         "(fetch its history)" >&2
    exit 1
  fi
  if [ "$(cat build-anchor/ANCHOR 2>/dev/null)" != "$BENCH_ANCHOR" ]; then
    rm -rf build-anchor
    mkdir -p build-anchor/src
    git archive "$BENCH_ANCHOR" | tar -x -C build-anchor/src
    echo "$BENCH_ANCHOR" > build-anchor/ANCHOR
  fi
  cmake -S build-anchor/src -B build-anchor/build -DNCB_BUILD_TESTS=OFF \
        -DNCB_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build build-anchor/build -j "$JOBS" --target scaling_k obs_overhead
}

# paired_guard <bench binary> <benchmark filter> <tag>: the paired guard
# over bench/<binary>'s benchmarks matching the filter. Also writes the
# change's median times as {name: real_time} to build/bench_<tag>_change.json.
paired_guard() {
  local binary="$1" filter="$2" tag="$3"
  local min_time="${NCB_BENCH_MIN_TIME:-0.05}" name round sides side bin
  bench_anchor_build
  rm -f "build/bench_guard_${tag}"_*.json
  while read -r name; do
    for round in $(seq 1 "$BENCH_GUARD_ROUNDS"); do
      # Alternate which side runs first, so drift during a round cancels.
      sides="anchor change"
      [ $((round % 2)) = 0 ] && sides="change anchor"
      for side in $sides; do
        bin="build/bench/${binary}"
        [ "$side" = anchor ] && bin="build-anchor/build/bench/${binary}"
        "$bin" --benchmark_filter="^${name}\$" \
            --benchmark_min_time="$min_time" --benchmark_out_format=json \
            --benchmark_out="build/bench_guard_${tag}_${side}_${round}_${name//\//_}.json" \
            > /dev/null
      done
    done
  done < <("build/bench/${binary}" --benchmark_list_tests \
               --benchmark_filter="$filter")
  python3 - "$BENCH_ANCHOR" "$tag" <<'PY'
import glob
import json
import os
import statistics
import sys

THRESHOLD = 1.5
anchor_commit, tag = sys.argv[1], sys.argv[2]

# times[side][name] = one real_time per round, in the benchmark's unit.
times = {"anchor": {}, "change": {}}
units = {}
prefix = f"bench_guard_{tag}_"
for path in sorted(glob.glob(f"build/{prefix}*.json")):
    side = os.path.basename(path)[len(prefix):].split("_")[0]
    with open(path) as f:
        for b in json.load(f).get("benchmarks", []):
            if b.get("run_type", "iteration") != "iteration":
                continue
            times[side].setdefault(b["name"], []).append(b["real_time"])
            units[b["name"]] = b["time_unit"]

lines, failures = [], []
for name in sorted(times["change"]):
    fresh, unit = times["change"][name], units[name]
    if name not in times["anchor"]:
        lines.append(f"NEW      {name}: {statistics.median(fresh):.1f} {unit}"
                     " (anchor lacks it)")
        continue
    anchor = times["anchor"][name]
    ratio = statistics.median(c / a if a > 0 else float("inf")
                              for c, a in zip(fresh, anchor))
    mark = ("REGRESS " if ratio > THRESHOLD
            else "OK      " if ratio >= 1 else "FASTER  ")
    lines.append(f"{mark} {name}: anchor {statistics.median(anchor):.1f} -> "
                 f"change {statistics.median(fresh):.1f} {unit} "
                 f"(median paired ratio {ratio:.2f}x over {len(fresh)} rounds)")
    if ratio > THRESHOLD:
        failures.append(name)

with open(f"build/bench_{tag}_change.json", "w") as f:
    json.dump({name: round(statistics.median(v), 2)
               for name, v in sorted(times["change"].items())}, f, indent=1)
    f.write("\n")
report = f"anchor {anchor_commit}\n" + "\n".join(lines) + "\n"
with open(f"build/bench_{tag}_regression.txt", "w") as f:
    f.write(report)
sys.stdout.write(report)
if not lines:
    print(f"{tag} bench guard: no guarded benchmark ran")
    sys.exit(1)
if failures:
    print(f"{tag} bench guard: {len(failures)} benchmark(s) regressed beyond "
          f"{THRESHOLD}x against the anchor -- see "
          f"build/bench_{tag}_regression.txt")
    sys.exit(1)
print(f"{tag} bench guard: no tracked benchmark regressed beyond "
      f"{THRESHOLD}x against the anchor")
PY
}

bench_regression_guard() {
  paired_guard scaling_k "$BENCH_GUARD_FILTER" graph
}

# Serve throughput bench: the load driver against a real K=10^4 server
# (event log on), merged into tracked BENCH_serve.json. Guard: fail when
# sustained QPS drops below 1/1.5 of the committed baseline.
bench_serve() {
  local sock=build/bench_serve.sock log=build/bench_serve.ncbl server_pid
  rm -f "$sock" "$log"
  ./build/examples/ncb_serve --socket "$sock" --policy 'eps-greedy:eps=0' \
      --epsilon 0.05 --arms 10000 --graph er --edge-prob 0.001 \
      --seed 20170605 --log "$log" > build/bench_serve_server.out 2>&1 &
  server_pid=$!
  for _ in $(seq 1 200); do [ -S "$sock" ] && break; sleep 0.05; done
  if ! ./build/examples/ncb_serve_driver --socket "$sock" --requests 200000 \
      --connections 4 --pipeline 8 --keys 1024 --arms 10000 --graph er \
      --edge-prob 0.001 --seed 20170605 --reward noisy \
      --out build/bench_serve_run.json; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" || true
    cat build/bench_serve_server.out >&2
    return 1
  fi
  kill -TERM "$server_pid"
  wait "$server_pid"
  # Every decision and every feedback must be in the log, fully joined.
  ./build/examples/ncb_serve --inspect-log "$log" \
      | tee build/bench_serve.inspect
  grep -q 'records=400000 decisions=200000 feedbacks=200000 joined=200000' \
      build/bench_serve.inspect
  grep -q '"duplicate_feedbacks": 0' build/bench_serve.inspect
  grep -q '"orphan_feedbacks": 0' build/bench_serve.inspect
  grep -q '"unjoined_decisions": 0' build/bench_serve.inspect
  if git show HEAD:BENCH_serve.json > build/bench_serve_baseline.json \
      2>/dev/null; then
    :
  else
    rm -f build/bench_serve_baseline.json
  fi
  # Metrics-overhead microbench: per-event instrument costs ride along in
  # BENCH_serve.json next to the end-to-end QPS, under the paired 1.5x
  # guard against the anchor.
  if [ -x build/bench/obs_overhead ]; then
    paired_guard obs_overhead . obs
  else
    rm -f build/bench_obs_change.json
  fi
  python3 - <<'PY'
import json
import os
import sys

THRESHOLD = 1.5

with open("build/bench_serve_run.json") as f:
    run = json.load(f)
payload = {"schema": 1, "serve": run}
if os.path.exists("build/bench_obs_change.json"):
    with open("build/bench_obs_change.json") as f:
        payload["obs"] = json.load(f)
with open("BENCH_serve.json", "w") as f:
    json.dump(payload, f, indent=1)
    f.write("\n")
print(f"wrote BENCH_serve.json: {run['qps']:.0f} qps, "
      f"p50={run['p50_us']} us p99={run['p99_us']} us "
      f"p999={run['p999_us']} us"
      + (f", {len(payload.get('obs', {}))} obs microbenches"
         if "obs" in payload else ""))

if not os.path.exists("build/bench_serve_baseline.json"):
    print("serve bench guard: no committed BENCH_serve.json baseline — skipped")
    sys.exit(0)
with open("build/bench_serve_baseline.json") as f:
    base_all = json.load(f)
base = base_all["serve"]
ratio = base["qps"] / run["qps"] if run["qps"] > 0 else float("inf")
print(f"serve bench guard: qps {base['qps']:.0f} -> {run['qps']:.0f} "
      f"({ratio:.2f}x slower)" if ratio > 1 else
      f"serve bench guard: qps {base['qps']:.0f} -> {run['qps']:.0f} (faster)")
if ratio > THRESHOLD:
    print(f"serve bench guard: throughput regressed beyond {THRESHOLD}x")
    sys.exit(1)
PY
}

# Replay panel throughput bench: re-price a 3-policy panel on the 400k-record
# log the serve bench just wrote (K=10^4), merged into tracked
# BENCH_replay.json. Guard: fail when panel events/s drops below 1/1.5 of
# the committed baseline. The logging-identity pin runs here too — ncb_replay
# exits 1 itself if the IPS-of-logging-policy identity breaks at this scale.
bench_replay() {
  local log=build/bench_serve.ncbl
  if [ ! -f "$log" ]; then
    echo "error: $log missing — replay bench must run after the serve bench" >&2
    return 1
  fi
  ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'eps-greedy:eps=0.1;ucb1' \
      --arms 10000 --graph er --edge-prob 0.001 --seed 20170605 \
      --epsilon 0.05 --out build/bench_replay_panel.json \
      --bench-out build/bench_replay_run.json | tee build/bench_replay.out
  grep -q 'logging identity OK' build/bench_replay.out
  python3 - <<'PY'
import json
import os
import sys

THRESHOLD = 1.5

with open("build/bench_replay_run.json") as f:
    run = json.load(f)
with open("BENCH_replay.json", "w") as f:
    json.dump({"schema": 1, "replay": run}, f, indent=1)
    f.write("\n")
print(f"wrote BENCH_replay.json: {run['events_per_s']:.0f} events/s "
      f"({run['records']} records x {run['policies']} policies in "
      f"{run['elapsed_s']:.2f} s)")

if os.system("git show HEAD:BENCH_replay.json > build/bench_replay_baseline.json 2>/dev/null") != 0:
    print("replay bench guard: no committed BENCH_replay.json baseline — skipped")
    sys.exit(0)
with open("build/bench_replay_baseline.json") as f:
    base = json.load(f)["replay"]
rate, base_rate = run["events_per_s"], base["events_per_s"]
ratio = base_rate / rate if rate > 0 else float("inf")
print(f"replay bench guard: {base_rate:.0f} -> {rate:.0f} events/s "
      + (f"({ratio:.2f}x slower)" if ratio > 1 else "(faster)"))
if ratio > THRESHOLD:
    print(f"replay bench guard: panel throughput regressed beyond {THRESHOLD}x")
    sys.exit(1)
PY
}

release_lane() {
  stage "layering" "layering: src/ subsystems include only earlier ones" \
        layering
  stage "tier-1" "tier-1: -Werror Release build + full test suite" tier1
  stage "smoke" "observe-path smoke: batched vs per-edge delivery must run" smoke
  stage "sweep" "sweep smoke: resume + thread/worker determinism + kill-requeue" \
        sweep_smoke
  stage "serve" "serve smoke: 10k decisions over 2 connections + SIGTERM drain" \
        serve_smoke
  stage "replay" "replay smoke: offline panel + logging-identity pin" \
        replay_smoke
  stage "metrics" "metrics identity: bytes unchanged with metrics on/polled/off" \
        metrics_identity
}

asan_lane() {
  stage "asan" "sanitizers: ASan/UBSan build + test suite" asan
}

case "${1:-}" in
  bench)
    stage "build" "-Werror Release build" release_build
    stage "bench" "tracked benches: micro_policies + scaling_k -> BENCH_graph.json" \
          bench_tracked
    stage "serve-bench" "serve bench: 200k decisions @ K=10^4 -> BENCH_serve.json" \
          bench_serve
    stage "replay-bench" "replay bench: 3-policy panel @ K=10^4 -> BENCH_replay.json" \
          bench_replay
    ;;
  release)
    release_lane
    ;;
  asan)
    asan_lane
    ;;
  "")
    release_lane
    asan_lane
    ;;
  *)
    echo "usage: $0 [release|asan|bench]" >&2
    exit 2
    ;;
esac

echo "== CI green =="
recap_line=""
for r in "${RECAP[@]}"; do recap_line+="${recap_line:+ · }${r}"; done
echo "${recap_line}"
