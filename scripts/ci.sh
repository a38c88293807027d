#!/usr/bin/env sh
# CI matrix: builds the tree three times — Release (invariants compiled
# out), RelWithDebInfo under ASan+UBSan (invariants live), and TSan over
# the concurrency-heavy suites (farm worker pool, the striped frame pool
# its workers share, the RPC and NTCP code they run through) — with warnings as errors throughout, runs the full test
# suite in the first two (the Release leg asserts the exact per-step
# allocation budgets of alloc_budget_test; the sanitizer legs skip them.
# The asan+lockdep leg asserts the exact per-step lock-acquisition budgets
# of lock_budget_test, which count through lockdep; Release, with lockdep
# compiled out, skips them) and the gridbench self-test after the Release
# leg (plus one 10-second untraced run of each gridbench workload and a
# 100,000-seed Release fuzz campaign, whose summary must count at least
# one crash-marked transaction and one re-wake and whose count fields must
# equal tests/data/campaign_100k.txt, and a 40-step bench_obs
# run whose traces must be byte-identical and whose breakdown must bill
# 0.0% to protocol), then gates on
# protocol conformance: a fresh
# 150-step hybrid MOST trace must pass nees_lint, a 200-seed sharded fuzz
# campaign (two forked workers, campaign template mix, all oracles, ASan +
# live invariants) must come back clean — on failure nees_fuzz prints the
# failing seed, the shrunk fault schedule, and the replay command — and
# the committed regression corpus (pinned seeds + shrunk masks,
# docs/RECOVERY.md) replays under the same sanitizers. Finally a docs
# check fails if README/EXPERIMENTS reference a bench JSON key that no
# longer exists in the committed BENCH_*.json files, or if a doc's quoted
# headline number (bench-cite comments) drifts from the committed JSON,
# and two perf gates re-measure the step engine and the fuzz campaign
# against their committed trajectories.
#
#   scripts/ci.sh [build-dir-prefix]     # default: <repo>/build-ci
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-$repo/build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  build="$1"
  shift
  echo
  echo "######## configure $build ########"
  cmake -B "$build" -S "$repo" -DNEES_WERROR=ON "$@"
  cmake --build "$build" -j "$jobs"
  (cd "$build" && ctest --output-on-failure -j "$jobs")
}

# Release compiles the lockdep runtime out (NEES_LOCKDEP=AUTO): the bench
# binaries under $prefix-release/bench ship without instrumentation, which
# the check after the matrix asserts. The asan tree pins NEES_LOCKDEP=ON so
# the lock-order checker runs composed with ASan/UBSan across the whole
# suite and the fuzz legs below.
run_config "$prefix-release" -DCMAKE_BUILD_TYPE=Release

echo
echo "######## gridbench self-test ########"
# The benchmark program compiles against the system's headers (obs/trace.h,
# util/bytes.h, util/frame_pool.h, ...), so an API change that breaks it
# must fail here, not first in the benchmark pipeline. Runs every workload
# at its smallest size in both modes plus the deliberately-wrong-output
# checks (about 6 s once built).
python3 "$repo/gridbench/run.py" --selftest

echo
echo "######## gridbench untraced runs (both workloads, 10 s) ########"
# The self-test runs each workload at its smallest size. Run each workload
# once more at a real length, invoked as the benchmark invokes it; run.py
# exits nonzero when the run's output is not correct (a failed seed or
# tenant). How far a 10 s run gets from seed 1 depends on the host's speed,
# so these runs cover a different seed set on each machine; the
# fixed-range campaign below is the reproducible gate on seeds.
for workload in farm_mini100_w4 fuzz_campaign; do
  python3 "$repo/gridbench/run.py" --workload "$workload" --seed 1 \
          --seconds 10 --trace 0
done

echo
echo "######## nees_fuzz campaign, seeds 1-100,000 (Release) ########"
# The same seeds on every host (about 50 s on a 4-vCPU host): every seed
# runs the cheap oracles, and a failure prints its replay command. The
# range holds seed 86665, whose up-front GSI login used to run out of
# retries.
campaign_log="$prefix-release/campaign-100k.txt"
if ! "$prefix-release/tools/nees_fuzz" --campaign --seeds 100000 \
       --workers "$jobs" > "$campaign_log"; then
  cat "$campaign_log"
  exit 1
fi
cat "$campaign_log"
# Coverage floor: the range must still crash a site mid-execute (WAL
# crash-marking) and still lose a wake that only the plugin's re-wake
# recovers. An event-order change that stops exercising either backstop
# fails here instead of passing silently.
for counter in crash-marked re-wakes; do
  if grep -Eq "[ ]0 $counter" "$campaign_log"; then
    echo "campaign coverage FAILED: 0 $counter in seeds 1-100,000" >&2
    exit 1
  fi
done
# Identity gate: the campaign's count fields (failures, determinism-checked
# seeds, virtual events, the template mix and the fault totals) must equal
# the committed record. A refactor that keeps event order prints the same
# counts; one that moves it on purpose re-records the file.
campaign_counts="$prefix-release/campaign-100k-counts.txt"
sed -e 's/ across [0-9]* workers,/,/' -e '/s wall (/d' "$campaign_log" \
    > "$campaign_counts"
if ! grep -v '^#' "$repo/tests/data/campaign_100k.txt" |
     diff -u - "$campaign_counts"; then
  echo "campaign identity FAILED: counts differ from" \
       "tests/data/campaign_100k.txt" >&2
  exit 1
fi

echo
echo "######## E-obs breakdown (bench_obs 40, Release) ########"
# A traced 40-step hybrid MOST run, twice: the two traces must be
# byte-identical, and the client protocol spans must bill no exclusive
# time, since each site's server, network and settle spans nest under its
# own call. A protocol share above 0.0% means spans are parented under
# another site's call again.
obs_log="$prefix-release/bench-obs-40.txt"
"$prefix-release/bench/bench_obs" 40 > "$obs_log"
cat "$obs_log"
if ! grep -q '^determinism: .* are byte-identical$' "$obs_log"; then
  echo "bench_obs FAILED: the two runs' traces are not byte-identical" >&2
  exit 1
fi
if ! grep -Eq '^\| protocol +\|.*\| +0\.0% \|$' "$obs_log"; then
  echo "bench_obs FAILED: the protocol row bills a non-zero share" >&2
  exit 1
fi
run_config "$prefix-asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
           "-DNEES_SANITIZE=address;undefined" -DNEES_LOCKDEP=ON

echo
echo "######## configure $prefix-tsan (concurrency suites) ########"
cmake -B "$prefix-tsan" -S "$repo" -DNEES_WERROR=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNEES_SANITIZE=thread
cmake --build "$prefix-tsan" -j "$jobs" \
      --target util_test net_test ntcp_test psd_test plugins_test \
               most_test farm_test nees_farm_cli
# The suites that exercise real threads: the multi-tenant farm's worker
# pool + swarm shards over one shared kImmediate fabric (farm_test), two
# threads executing on one MPlugin through its inline backend
# (plugins_test), and the MOST runs the farm hosts (most_test). util_test
# hammers the striped util::FramePool from eight threads: every farm
# worker acquires and releases its wire frames there. The net/ntcp/psd suites cover the RPC,
# NTCP and coordinator code those threads run through.
for suite in util_test net_test ntcp_test psd_test plugins_test most_test \
             farm_test; do
  echo "-- tsan: $suite"
  "$prefix-tsan/tests/$suite" --gtest_brief=1
done

echo
echo "######## nees_farm smoke wave (TSan) ########"
# A mixed tenant wave plus a sharded CHEF swarm on the TSan build: many
# namespaced experiments racing over one container/registry/NSDS/CHEF
# host is the farm's whole concurrency story, so it runs instrumented.
"$prefix-tsan/tools/nees_farm" --tenants 12 --mix mixed --workers 4 \
                               --swarm 200 --swarm-shards 4

echo
echo "######## lockdep lock-order report (nees_locks) ########"
# Clean pass on the standard workload (a MOST run + virtual-time
# fuzz block), then prove the detector end to end: a deliberately injected
# inversion and a deliberately injected condvar wait under a second lock
# must each come back nonzero. No product path waits on a CondVar, so the
# injected wait is the only live proof of the wait rule outside
# analysis_test.
"$prefix-asan/tools/nees_locks" --steps 60 --seeds 3
if "$prefix-asan/tools/nees_locks" --inject-inversion > /dev/null 2>&1; then
  echo "lockdep check FAILED: injected inversion was not detected" >&2
  exit 1
fi
echo "injected inversion detected (nonzero exit) -- detector is live"
if "$prefix-asan/tools/nees_locks" --inject-wait > /dev/null 2>&1; then
  echo "lockdep check FAILED: injected wait-while-holding was not detected" >&2
  exit 1
fi
echo "injected wait-while-holding detected (nonzero exit) -- wait rule is live"

echo
echo "######## clang -Wthread-safety leg (build-only, needs clang) ########"
if command -v clang++ > /dev/null 2>&1; then
  cmake -B "$prefix-tsa" -S "$repo" -DCMAKE_CXX_COMPILER=clang++ \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNEES_THREAD_SAFETY=ON \
        -DNEES_WERROR=ON
  cmake --build "$prefix-tsa" -j "$jobs"
  echo "thread-safety leg OK (zero -Wthread-safety findings)"
else
  echo "clang++ not on PATH: skipping the -Wthread-safety leg"
fi

echo
echo "######## clang-tidy leg (.clang-tidy profile, needs clang-tidy) ########"
if command -v clang-tidy > /dev/null 2>&1; then
  # The release tree's compile_commands.json carries no sanitizer flags.
  find "$repo/src" "$repo/tools" -name '*.cpp' -print0 |
    xargs -0 -P "$jobs" -n 8 clang-tidy -p "$prefix-release" --quiet
  echo "clang-tidy leg OK"
else
  echo "clang-tidy not on PATH: skipping the clang-tidy leg"
fi

echo
echo "######## nees_lint on a fresh most_experiment trace ########"
trace="$prefix-asan/most_trace.jsonl"
"$prefix-asan/examples/most_experiment" 150 "$trace" > /dev/null
"$prefix-asan/tools/nees_lint" "$trace"

echo
echo "######## nees_fuzz campaign smoke (200 seeds, 2 workers, ASan) ########"
# The sharded sweep driver end to end: fork two workers, each owning a
# deterministic shard of the seed range (campaign mix: mini-dominated,
# with standard / full-MOST / centrifuge shapes riding along), merge their
# JSON reports, fail if any worker dies or any seed fails an oracle. The
# asan tree runs with NEES_LOCKDEP=ON, so every seed also checks oracle 5:
# no lock-order inversion, wait-while-holding, or blocking RPC under a
# lock anywhere in the run.
"$prefix-asan/tools/nees_fuzz" --campaign --seeds 200 --workers 2

echo
echo "######## regression corpus replay (pinned seeds, ASan) ########"
# Every pinned (seed, mask, template) triple in the committed corpus runs
# the thorough path: full artifacts, all oracles, double-run determinism.
# Includes the WAL-recovery pins (25/187/49/44, docs/RECOVERY.md), the
# all-seven-fault-classes schedule (11), and the centrifuge retry-ladder
# regressions with their shrunk masks (3/120).
"$prefix-asan/tools/nees_fuzz" --corpus "$repo/tests/data/fuzz_corpus.txt"

echo
echo "######## docs vs bench JSON key check ########"
# Drift gate: every BENCH_*.json the docs cite must be committed, and
# every JSON key the README/EXPERIMENTS tables are derived from must
# still exist in it — renaming a key without refreshing the docs (and
# this list) fails here.
docs_fail=0
for ref in $(grep -ho 'BENCH_[a-z_]*\.json' "$repo/README.md" \
             "$repo/EXPERIMENTS.md" "$repo"/docs/*.md | sort -u); do
  if [ ! -f "$repo/$ref" ]; then
    echo "docs check: $ref is cited by the docs but not committed" >&2
    docs_fail=1
  fi
done
require_keys() {
  file="$1"
  shift
  for key in "$@"; do
    if ! grep -q "\"$key\":" "$repo/$file"; then
      echo "docs check: $file lost key '$key' still cited by the docs" >&2
      docs_fail=1
    fi
  done
}
require_keys BENCH_step_engine.json sites engine mode steps_per_sec \
             modeled_steps_per_sec propose_phase_ms_mean \
             execute_phase_ms_mean frames_per_step wal wal_records completed
require_keys BENCH_fuzz.json seeds failures wall_seconds seeds_per_hour \
             virtual_events events_per_second site_crashes site_recoveries \
             transactions_recovered inflight_failed \
             campaign_seeds campaign_failures campaign_checked \
             campaign_wall_seconds campaign_seeds_per_hour \
             campaign_virtual_events campaign_events_per_second \
             campaign_mini campaign_standard campaign_full_most \
             campaign_centrifuge campaign_frames_corrupted \
             campaign_auth_refreshes
require_keys BENCH_farm.json tenants experiments_per_sec \
             experiments_per_sec_100 worker_sweep workers \
             peak_services services_after_reap \
             mixed_tenants mixed_experiments_per_sec swarm_participants \
             swarm_participants_per_sec swarm_failures

# Stale-number gate: headline figures quoted in prose carry a
# machine-readable citation next to them,
#   <!-- bench-cite: FILE KEY VALUE TOL% -->
# and this leg fails if the committed JSON's value for KEY has drifted
# outside VALUE +/- TOL% — i.e. someone regenerated the bench without
# refreshing the prose, or edited the prose without regenerating.
cites="$prefix-asan/bench_cites.txt"
grep -ho 'bench-cite: [^>]*' "$repo/README.md" "$repo/EXPERIMENTS.md" \
     "$repo"/docs/*.md > "$cites" || true
while read -r _ cite_file cite_key cite_value cite_tol; do
  # cite_tol may carry the comment closer ("35% -->"): keep the number.
  cite_tol="${cite_tol%\%*}"
  actual="$(grep -o "\"$cite_key\": [0-9.]*" "$repo/$cite_file" 2>/dev/null \
            | head -1 | awk '{print $2}')"
  if [ -z "$actual" ]; then
    echo "bench-cite: $cite_file has no key '$cite_key'" >&2
    docs_fail=1
    continue
  fi
  if ! awk -v a="$actual" -v c="$cite_value" -v t="$cite_tol" \
       'BEGIN { d = a - c; if (d < 0) d = -d; exit !(d <= t / 100.0 * c) }'
  then
    echo "bench-cite drift: $cite_file $cite_key is $actual, docs cite" \
         "$cite_value (tol $cite_tol%)" >&2
    docs_fail=1
  fi
done < "$cites"
[ "$docs_fail" -eq 0 ] || { echo "docs check FAILED" >&2; exit 1; }
echo "docs check OK"

# Release benches must exist and carry no lockdep instrumentation (exit 3
# is nees_locks' "compiled out" marker, proving NEES_LOCKDEP=AUTO resolved
# to off for the whole Release tree).
test -x "$prefix-release/bench/bench_step_engine"

echo
echo "######## step-engine perf regression gate ########"
# Quick gate: re-measures the 32-site async immediate point (best of two
# sub-second runs) and fails if it lands more than 20% below the committed
# BENCH_step_engine.json trajectory.
"$prefix-release/bench/bench_step_engine" --quick "$repo/BENCH_step_engine.json"

echo
echo "######## fuzz campaign throughput regression gate ########"
# Same pattern for the fuzzer: a short campaign-mix sample (best of two)
# must not land more than 20% below the committed campaign_seeds_per_hour
# in BENCH_fuzz.json.
"$prefix-release/bench/bench_fuzz" --quick "$repo/BENCH_fuzz.json"

echo
echo "######## farm tenancy throughput regression gate ########"
# And for the farm: the 4-worker, 100-tenant sweep point, measured as the
# sweep measures it (median of warm waves on one host), must not land more
# than 20% below the committed worker_sweep row for 4 workers in
# BENCH_farm.json.
"$prefix-release/bench/bench_farm" --quick "$repo/BENCH_farm.json"

if "$prefix-release/tools/nees_locks" > /dev/null 2>&1; then rc=0; else rc=$?; fi
if [ "$rc" -ne 3 ]; then
  echo "Release tree unexpectedly has lockdep compiled in (rc=$rc)" >&2
  exit 1
fi
echo "Release benches built with lockdep compiled out"

echo
echo "CI matrix green: Release + ASan/UBSan+lockdep + TSan (+ Clang legs"
echo "when available), tests + lock-order report + conformance lint +"
echo "200-seed fuzz smoke + crash-restart leg + docs check."
