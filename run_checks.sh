#!/usr/bin/env bash
# Full check pass: normal build + tests, then a sanitized build + tests,
# then a ThreadSanitizer build running the concurrency-sensitive suites.
#
# Usage: ./run_checks.sh [--sanitize-only | --tsan-only | --validation-only
#                         | --coverage | --tidy | --live-smoke | --chaos-smoke
#                         | --bench-smoke | --cell-smoke | --alloc-smoke
#                         | --analysis-smoke | --fresh-clone]
#
# Test tiers are selected by ctest labels (see docs/validation.md):
#   * default passes run everything except the `slow` label (the full-grid
#     convergence test, minutes of simulation under sanitizers);
#   * --validation-only runs the `validation` and `cell` labels — the
#     simulator, property-based, golden-file and fixed-point-vs-DES
#     cross-check suites, including the slow grid;
#   * --coverage builds with gcov instrumentation (build-cov/), runs the
#     non-slow tests and prints per-directory line coverage for src/;
#   * --tidy runs a pinned clang-tidy check set over src/ (skipped with a
#     notice when clang-tidy is not installed);
#   * --live-smoke runs the `live` label (real-socket loopback testbed)
#     plus the loopback e2e binary under a hard timeout, in both the
#     plain and the ASan+UBSan builds.  The timeout is the watchdog: the
#     virtual-clock loop must terminate by going idle, never by waiting
#     on the wall clock, so a hang is a bug, not slowness;
#   * --chaos-smoke runs the `chaos` label (supervised multi-session
#     server + seeded fault injection) plus a 200-session `live load`
#     chaos run, in both the plain and the ASan+UBSan builds, each under
#     a hard timeout.  Same watchdog rationale as --live-smoke.
#   * --bench-smoke builds Release, runs the hot-path micro-suite with
#     --quick --json under a hard timeout, and validates the emitted
#     JSON against the tv-bench-hotpath-v1 schema (keys present, numbers
#     finite; docs/benchmarks.md).  Values are machine-specific and are
#     deliberately not asserted.  It also runs bench_ablation_models
#     --quick (solver vs. simulate_sender, DCF, distortion DP) under a
#     hard timeout.
#   * --cell-smoke runs the `cell` label (the multi-flow contention
#     engine, docs/cell.md) plus the `thriftyvid cell --validate`
#     cross-check grid and a 100-flow capacity cell, in both the plain
#     and the ASan+UBSan builds, each under a hard timeout.
#   * --analysis-smoke runs the `analysis` label (the traffic-analysis
#     adversary, docs/adversary.md) plus the full pcap round trip: a
#     deterministic `live loopback --pcap` capture piped through
#     `thriftyvid analyze`, with the emitted JSONL checked for schema
#     validity and the no-countermeasure I-frame recall floor (>= 0.9).
#     Both the plain and the ASan+UBSan builds, each under a hard
#     timeout.
#   * --fresh-clone clones the committed tree (git clone of this working
#     copy) into a temporary directory and builds and runs the non-slow
#     tests there, so a fixture that exists only as an untracked or
#     ignored file in the working copy cannot make the suite pass.
#     Uncommitted changes are not part of the clone.
#
# Every build configures with -DTHRIFTYVID_WERROR=ON: the tree is expected
# to be warning-clean under -Wall -Wextra, and promoting warnings to errors
# here keeps new ones from accumulating silently.
#
# The sanitized pass builds with -fsanitize=address,undefined and
# -fno-sanitize-recover=all, so any report aborts the run and fails the
# script.  The TSan pass builds with -DTHRIFTYVID_TSAN=ON and runs the
# thread pool / sweep / validation / flags suites (the code that actually
# shares state across threads) — running every test under TSan would be
# prohibitively slow.  All build trees are kept (build/, build-asan/,
# build-tsan/, build-cov/) so incremental re-runs are fast.
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 4)
mode="${1:-}"

case "${mode}" in
  ""|--sanitize-only|--tsan-only|--validation-only|--coverage|--tidy|--live-smoke|--chaos-smoke|--bench-smoke|--cell-smoke|--alloc-smoke|--analysis-smoke|--fresh-clone) ;;
  *)
    echo "usage: $0 [--sanitize-only | --tsan-only | --validation-only |" \
         "--coverage | --tidy | --live-smoke | --chaos-smoke |" \
         "--bench-smoke | --cell-smoke | --alloc-smoke |" \
         "--analysis-smoke | --fresh-clone]" >&2
    exit 2
    ;;
esac

if [[ "${mode}" == "--fresh-clone" ]]; then
  # Everything the tests read must be tracked: build and test a clone of
  # HEAD, which carries no untracked or ignored file of this working copy.
  if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
    echo "=== fresh clone: note: uncommitted changes are not tested ==="
  fi
  clone_root=$(mktemp -d)
  trap 'rm -rf "${clone_root}"' EXIT
  git clone --quiet . "${clone_root}/repo"
  echo "=== fresh clone: plain build + tests in ${clone_root}/repo ==="
  cmake -B "${clone_root}/repo/build" -S "${clone_root}/repo" \
        -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build "${clone_root}/repo/build" -j "${jobs}"
  ctest --test-dir "${clone_root}/repo/build" --output-on-failure \
        -j "${jobs}" -LE slow
  echo "=== fresh clone passed ==="
  exit 0
fi

if [[ "${mode}" == "--bench-smoke" ]]; then
  # The bench must complete quickly and emit schema-valid JSON; `timeout`
  # is the watchdog against a wedged measurement loop.
  echo "=== bench smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}" --target bench_hotpath bench_ablation_models
  out=build/bench_smoke_hotpath.json
  rm -f "${out}"
  timeout 300 ./build/bench/bench_hotpath --quick --json="${out}"
  # The ablation bench is the one non-test driver of sim::simulate_sender.
  timeout 120 ./build/bench/bench_ablation_models --quick --threads=2

  if ! command -v python3 >/dev/null 2>&1; then
    echo "=== bench smoke: python3 not installed; skipping JSON validation ==="
    exit 0
  fi
  python3 - "${out}" <<'PY'
import json, math, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def fail(msg):
    sys.exit(f"bench smoke: schema violation: {msg}")

def finite(value, where):
    # null is the documented encoding for "not measurable on this host".
    if value is None:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"{where} is {value!r}, expected a number or null")
    if not math.isfinite(value):
        fail(f"{where} is not finite: {value!r}")

if doc.get("schema") != "tv-bench-hotpath-v2":
    fail(f"schema is {doc.get('schema')!r}")
for key in ("quick", "cycle_clock_available", "aes_ni_available"):
    if not isinstance(doc.get(key), bool):
        fail(f"{key} missing or not a bool")
finite(doc.get("tsc_ghz"), "tsc_ghz")

for section in ("ciphers", "ofb"):
    points = doc.get(section)
    if not isinstance(points, list) or not points:
        fail(f"{section} missing or empty")
    for p in points:
        for key in ("algorithm", "backend", "path"):
            if not isinstance(p.get(key), str):
                fail(f"{section}[].{key} missing")
        for key in ("mb_s", "cycles_per_byte"):
            if key not in p:
                fail(f"{section}[].{key} missing")
            finite(p[key], f"{section}[].{key}")
        if p["mb_s"] is None:
            fail(f"{section} mb_s must be measured, got null")

for key in ("forward_blocks_per_s", "roundtrip_blocks_per_s"):
    finite(doc.get("dct", {}).get(key), f"dct.{key}")
    if doc.get("dct", {}).get(key) is None:
        fail(f"dct.{key} must be measured, got null")
transfer = doc.get("transfer", {})
if not isinstance(transfer.get("packets"), int) or transfer["packets"] <= 0:
    fail("transfer.packets missing or non-positive")
finite(transfer.get("packets_per_s"), "transfer.packets_per_s")
# v2: steady-state heap traffic of the zero-copy packet path.
finite(transfer.get("allocations_per_packet"),
       "transfer.allocations_per_packet")
if transfer.get("allocations_per_packet") is None:
    fail("transfer.allocations_per_packet must be measured, got null")
if transfer["allocations_per_packet"] > 0.5:
    fail("transfer.allocations_per_packet regressed: "
         f"{transfer['allocations_per_packet']} (expected ~0)")
if not isinstance(transfer.get("allocations_per_transfer"), int):
    fail("transfer.allocations_per_transfer missing or not an int")
arena = doc.get("arena", {})
for key in ("payload_bytes", "chunks", "allocations"):
    if not isinstance(arena.get(key), int) or arena[key] <= 0:
        fail(f"arena.{key} missing or non-positive")
for key in ("aes128_batch_over_block", "aes128_aesni_over_block"):
    if key not in doc.get("speedups", {}):
        fail(f"speedups.{key} missing")
    finite(doc["speedups"][key], f"speedups.{key}")

print(f"bench smoke: {sys.argv[1]} is schema-valid "
      f"({len(doc['ciphers'])} cipher points, {len(doc['ofb'])} ofb points)")
PY
  echo "=== bench smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--alloc-smoke" ]]; then
  # The allocation-regression gate: the counting-operator-new suite must
  # hold steady-state allocations/packet at ~0 through simulate_transfer,
  # and it must stay clean under ASan (the shim routes through malloc, so
  # the sanitizer still tracks every allocation).
  echo "=== alloc smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}" --target tv_alloc_tests
  timeout 300 ./build/tests/tv_alloc_tests

  echo "=== alloc smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}" --target tv_alloc_tests
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 600 ./build-asan/tests/tv_alloc_tests
  echo "=== alloc smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--cell-smoke" ]]; then
  # The CI gate for the cell engine: the fixed-point-vs-DES cross-check
  # grid must hold every acceptance band (the CLI exits non-zero
  # otherwise), and a 100-flow capacity cell with background traffic must
  # complete under a hard timeout — both deterministic in --seed, so
  # `timeout` is purely the hang watchdog.
  validate_args=(cell --validate)
  sweep_args=(cell --flows=100 --background=5 --frames=16 --gops=8
              --reps=1 --deadlines=20 --quality=off --format=csv --seed=1)

  echo "=== cell smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -L cell
  timeout 120 ./build/tools/thriftyvid "${validate_args[@]}"
  timeout 300 ./build/tools/thriftyvid "${sweep_args[@]}" >/dev/null

  echo "=== cell smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L cell
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 300 ./build-asan/tools/thriftyvid "${validate_args[@]}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 600 ./build-asan/tools/thriftyvid "${sweep_args[@]}" >/dev/null

  echo "=== cell smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--analysis-smoke" ]]; then
  # The CI gate for the adversary: capture one deterministic loopback
  # transfer as pcap, run `thriftyvid analyze` over it, and hold the
  # emitted JSONL to the leakage-record schema and the headline result
  # (I-frame recall >= 0.9 with no countermeasures).  Both runs are
  # deterministic in --seed, so `timeout` is purely the hang watchdog.
  analysis_smoke() {
    local build="$1"
    local pcap="${build}/analysis_smoke.pcap"
    local jsonl="${build}/analysis_smoke.jsonl"
    rm -f "${pcap}" "${jsonl}"
    timeout 300 "./${build}/tools/thriftyvid" live loopback \
      --frames=48 --gop=16 --policy=I --seed=1 --pcap="${pcap}"
    timeout 300 "./${build}/tools/thriftyvid" analyze "${pcap}" \
      --policy=I --gop=16 --frames=48 --seed=1 \
      --format=jsonl --out="${jsonl}"
    if ! command -v python3 >/dev/null 2>&1; then
      echo "=== analysis smoke: python3 not installed; skipping JSONL check ==="
      return 0
    fi
    python3 - "${jsonl}" <<'PY'
import json, math, sys

def fail(msg):
    sys.exit(f"analysis smoke: {msg}")

with open(sys.argv[1]) as f:
    lines = [line for line in f if line.strip()]
if not lines:
    fail("empty JSONL output")

NUMERIC = (
    "bitrate_est_bps", "bitrate_true_bps", "q_est", "q_true",
    "psnr_est_db", "psnr_true_db", "i_precision", "i_recall", "i_f1",
    "bitrate_rel_error", "trajectory_mae_kbps", "encrypted_fraction_error",
    "psnr_error_db", "duration_s", "mean_delay_ms", "mean_power_w",
    "jitter_mean_delay_s",
)
for line in lines:
    rec = json.loads(line)
    for key in ("cell", "policy", "shaping", "seed", "packets", "captured",
                "frames_observed", "gop_est", "gop_true", "motion_est",
                "motion_true", "gop_error", "motion_match",
                "pad_overhead_bytes", *NUMERIC):
        if key not in rec:
            fail(f"record missing key {key!r}")
    for key in NUMERIC:
        value = rec[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{key} is {value!r}, expected a number")
        if not math.isfinite(value):
            fail(f"{key} is not finite: {value!r}")
    # The headline adversary result: with no shaping, I-frames stand out.
    if rec["shaping"] == "none" and rec["i_recall"] < 0.9:
        fail(f"i_recall {rec['i_recall']} below the 0.9 floor")

print(f"analysis smoke: {sys.argv[1]} is schema-valid "
      f"({len(lines)} leakage record(s))")
PY
  }

  echo "=== analysis smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -L analysis
  analysis_smoke build

  echo "=== analysis smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L analysis
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    analysis_smoke build-asan

  echo "=== analysis smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--chaos-smoke" ]]; then
  # A 200-session fleet under a composite chaos plan: EAGAIN storms,
  # short writes, bursty loss, dropped control replies, mid-stream kills
  # and a receiver stall.  The run is deterministic in --seed and must
  # terminate by the loop going idle; `timeout` is the hang watchdog.
  smoke_args=(live load --sessions=200 --ramp=20 --seed=1
              --idle-timeout=8 --stall-timeout=8
              --chaos=eagain=0.2,short=0.05,loss=0.05,burst=3,ctrl-drop=0.2,kill=0.1,stall=4:2)

  echo "=== chaos smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -L chaos
  timeout 120 ./build/tools/thriftyvid "${smoke_args[@]}"

  echo "=== chaos smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L chaos
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 300 ./build-asan/tools/thriftyvid "${smoke_args[@]}"

  echo "=== chaos smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--live-smoke" ]]; then
  # The loopback run replays a deterministic transfer over real UDP
  # sockets; `timeout` is a hard watchdog against event-loop hangs.
  smoke_args=(live loopback --frames=32 --gop=16 --policy=I --seed=1)

  echo "=== live smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -L live
  timeout 120 ./build/tools/thriftyvid "${smoke_args[@]}"

  echo "=== live smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L live
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 300 ./build-asan/tools/thriftyvid "${smoke_args[@]}"

  echo "=== live smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--tidy" ]]; then
  # Static-analysis pass: a pinned check set so results stay stable across
  # clang-tidy releases.  bugprone-easily-swappable-parameters and
  # -narrowing-conversions are excluded as noise for this codebase (math
  # code passes many adjacent doubles and converts sizes deliberately).
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "=== tidy: clang-tidy not installed; skipping ==="
    exit 0
  fi
  echo "=== clang-tidy (pinned checks) over src/ ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  checks='-*,bugprone-*,-bugprone-easily-swappable-parameters'
  checks+=',-bugprone-narrowing-conversions,performance-*'
  checks+=',readability-container-size-empty,readability-container-contains'
  checks+=',readability-container-data-pointer'
  find src -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p build --quiet --checks="${checks}" \
          --warnings-as-errors='*'
  echo "=== tidy pass done ==="
  exit 0
fi

if [[ "${mode}" == "--validation-only" ]]; then
  echo "=== validation tier (plain build) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" \
        -L 'validation|slow|cell'
  echo "=== validation tier passed ==="
  exit 0
fi

if [[ "${mode}" == "--coverage" ]]; then
  echo "=== coverage build + tests (gcov) ==="
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DTHRIFTYVID_COVERAGE=ON \
        -DTHRIFTYVID_WERROR=ON
  cmake --build build-cov -j "${jobs}"
  ctest --test-dir build-cov --output-on-failure -j "${jobs}" -LE slow
  echo "=== per-directory line coverage (src/) ==="
  covdir=build-cov/coverage
  rm -rf "${covdir}"
  mkdir -p "${covdir}"
  # -p keeps the full path in each .gcov filename so sources with the same
  # basename in different directories cannot clobber each other.
  (cd "${covdir}" &&
     find ../src -name '*.gcda' -print0 |
       xargs -0 gcov -p >/dev/null 2>&1) || true
  report=$(awk -v root="$(pwd)/src/" '
    BEGIN { FS = ":" }
    {
      count = $1; sub(/^[ \t]+/, "", count)
      lineno = $2 + 0
    }
    lineno == 0 && $3 == "Source" {
      keep = index($4, root) == 1
      if (keep) {
        rel = substr($4, length(root) + 1)
        dir = rel
        if (sub(/\/[^\/]*$/, "", dir) == 0) dir = "."
        dir = "src/" dir
      }
      next
    }
    !keep || lineno == 0 || count == "-" { next }
    {
      total[dir]++
      if (count != "#####" && count != "=====") hit[dir]++
    }
    END {
      for (d in total) {
        printf "%-22s %6.1f%%  (%d/%d lines)\n",
               d, 100.0 * hit[d] / total[d], hit[d], total[d]
        grand_total += total[d]
        grand_hit += hit[d]
      }
      if (grand_total > 0) {
        printf "TOTAL %6.1f%% (%d/%d lines)\n",
               100.0 * grand_hit / grand_total, grand_hit, grand_total
      }
    }' "${covdir}"/*.gcov)
  echo "${report}" | grep -v '^TOTAL' | sort
  echo "${report}" | grep '^TOTAL'
  echo "=== coverage pass done ==="
  exit 0
fi

if [[ "${mode}" != "--sanitize-only" && "${mode}" != "--tsan-only" ]]; then
  echo "=== plain build + tests ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -LE slow
fi

if [[ "${mode}" != "--tsan-only" ]]; then
  echo "=== sanitized build + tests (ASan + UBSan) ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -LE slow
fi

if [[ "${mode}" != "--sanitize-only" ]]; then
  echo "=== ThreadSanitizer build + concurrency tests ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_TSAN=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-tsan -j "${jobs}"
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${jobs}" \
          -R 'ThreadPool|Sweep|WorkloadCache|OnceMap|ReferenceCache|Flags|Validation'
fi

echo "=== all checks passed ==="
