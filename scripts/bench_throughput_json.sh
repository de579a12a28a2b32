#!/usr/bin/env bash
# Runs the throughput benchmark suite with JSON output so the perf
# trajectory is tracked PR over PR.
#
# The tracked artifact must come from a Release build: the script checks
# the build tree's CMAKE_BUILD_TYPE (configuring one if needed) and
# refuses to run from anything else. It also refuses to overwrite the
# tracked JSON from a build tree whose cached CMAKE_CXX_FLAGS carry
# sanitizer/coverage instrumentation (reconfiguring such a tree as
# Release does NOT clear those cached flags, so a sanitized run would
# silently pollute the perf trajectory). The bench binary itself stamps
# the JSON context with tommy_build_type, hardware_threads and the
# shard grid the service benchmarks sweep; this script adds the CPU
# model, nproc, compiler, flags and commit.
#
# Usage:
#   scripts/bench_throughput_json.sh [output.json]
#
# Environment:
#   BUILD_DIR     build tree holding bench_throughput (default: ./build).
#                 Created/reconfigured as Release if missing or not
#                 Release.
#   BENCH_FILTER  optional --benchmark_filter regex (e.g. 'BM_Online.*')
#   BENCH_SMOKE   1 = small-size smoke run (CI): only the smallest size
#                 of every series, minimal repetition time. Keeps the
#                 bench binary exercised without burning CI minutes; do
#                 NOT commit smoke output over the tracked JSON.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT="${1:-$ROOT/BENCH_throughput.json}"
FILTER="${BENCH_FILTER:-}"
SMOKE="${BENCH_SMOKE:-0}"

build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" \
    2>/dev/null || true
}

cxx_flags() {
  sed -n 's/^CMAKE_CXX_FLAGS:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" \
    2>/dev/null || true
}

# Instrumented trees (-fsanitize / coverage) may never write the tracked
# artifact — reconfiguring as Release below would not clear the cached
# flags — so check before touching the tree at all.
TRACKED="$ROOT/BENCH_throughput.json"
case "$(cxx_flags)" in
  *-fsanitize*|*-fprofile*|*--coverage*)
    if [[ "$(readlink -m "$OUT")" == "$(readlink -m "$TRACKED")" ]]; then
      echo "error: $BUILD_DIR is instrumented (CMAKE_CXX_FLAGS='$(cxx_flags)');" \
           "refusing to overwrite the tracked $TRACKED. Point BUILD_DIR at a" \
           "clean Release tree, or write elsewhere: $0 /tmp/bench.json" >&2
      exit 1
    fi
    echo "warning: benching an instrumented tree (output: $OUT)" >&2
    ;;
esac

if [[ "$(build_type)" != "Release" ]]; then
  echo "configuring $BUILD_DIR as Release (found: '$(build_type)')" >&2
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" --target bench_throughput -j "$(nproc)"

if [[ ! -x "$BUILD_DIR/bench_throughput" ]]; then
  echo "error: $BUILD_DIR/bench_throughput not built (is google-benchmark" \
       "installed?)." >&2
  exit 1
fi

EXTRA_ARGS=()
if [[ "$SMOKE" == "1" ]]; then
  # Smallest arg of each single-size series, plus the smallest message
  # count of every multi-shard series, plus the reconfig family's one
  # row.
  FILTER="${FILTER:-/(64|256|1024)\$|/4096(/[0-9]+)*(/real_time)?\$|ReconfigSwap/64(/real_time)?\$|BackloggedInsertRelease/10000(/real_time)?\$}"
  # Plain-double form: accepted by every google-benchmark (the "0.05s"
  # suffix form only exists from 1.8 on).
  EXTRA_ARGS+=(--benchmark_min_time=0.05)
fi

"$BUILD_DIR/bench_throughput" \
  ${FILTER:+--benchmark_filter="$FILTER"} \
  ${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"} \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  --benchmark_format=console

# A Release tree is necessary but not sufficient: the benchmark HARNESS
# itself must be a Release build too. System libbenchmark packages are
# frequently Debug builds (the library then stamps
# "library_build_type": "debug" into the JSON context), and a Debug
# harness inflates every timed region with its own assertions. The
# bundled minibench (cmake -DTOMMY_BENCH_LIB=bundled, the default)
# inherits the tree's Release configure, so this check passes there by
# construction.
LIB_TYPE="$(python3 -c "
import json,sys
print(json.load(open('$OUT')).get('context',{}).get('library_build_type',''))")"
if [[ "$LIB_TYPE" != "release" ]]; then
  if [[ "$(readlink -m "$OUT")" == "$(readlink -m "$TRACKED")" ]]; then
    rm -f "$OUT"
    echo "error: benchmark library is a '$LIB_TYPE' build; refusing to" \
         "write the tracked $TRACKED from a non-Release harness." \
         "Configure with -DTOMMY_BENCH_LIB=bundled (default) or point the" \
         "system lib at a Release google-benchmark." >&2
    exit 1
  fi
  echo "warning: benchmark library is a '$LIB_TYPE' build (output: $OUT)" >&2
fi

# Provenance, the fields livebench prints: the hardware, toolchain and
# commit the rows came from ("-dirty" when tracked files differ from it).
python3 - "$OUT" "$ROOT" "$BUILD_DIR" <<'EOF'
import json
import os
import subprocess
import sys

out, root, build = sys.argv[1:]


def cache(key):
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.rstrip("\n").split("=", 1)[1]
    return ""


def first_line(*cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return (done.stdout.splitlines() or [""])[0].strip()


cpu_model = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
commit = first_line("git", "-C", root, "rev-parse", "HEAD") or "unknown"
status = ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"]
artifact = os.path.relpath(os.path.realpath(out), os.path.realpath(root))
if not artifact.startswith(".."):
    # The tracked artifact this run is writing does not make the tree dirty.
    status += ["--", ".", ":(exclude)" + artifact]
if first_line(*status):
    commit += "-dirty"
with open(out) as f:
    data = json.load(f)
data["context"].update({
    "cpu_model": cpu_model,
    "nproc": os.cpu_count(),
    "compiler": first_line(cache("CMAKE_CXX_COMPILER"), "--version"),
    "cxx_flags": " ".join(flags for flags in (
        cache("CMAKE_CXX_FLAGS"), cache("CMAKE_CXX_FLAGS_RELEASE")) if flags),
    "commit": commit,
})
with open(out, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
EOF

echo "wrote $OUT"
