#!/usr/bin/env bash
# Multi-process throughput benchmark: N client PROCESSES blast the wire
# protocol at ONE FrameServer process-half over a Unix-domain socket, and
# the measured ingest rate is merged into the tracked benchmark JSON —
# the first benchmarks in the repo whose numbers cross a real kernel
# socket boundary instead of a function call. Every row runs the same
# event-loop (M-poller epoll) front-end; the rows differ in how the load
# arrives, and the merge names each row's family:
#
#   MP_UnixServerIngest   one blast process per client (C = MP_CLIENTS)
#   MP_EpollServerIngest  high connection counts (C=100 and C=1000),
#                         driven by one blast process holding C sockets
#                         round-robin
#
# The merge REPLACES any existing MP_* entries in the target JSON and
# leaves every other family untouched, so the tracked artifact is
# regenerated as:
#
#   scripts/bench_throughput_json.sh        # in-process families
#   scripts/bench_multiproc.sh              # + the multi-process families
#
# Usage:
#   scripts/bench_multiproc.sh [target.json]   (default: BENCH_throughput.json)
#
# Environment:
#   BUILD_DIR      build tree holding example_wire_replay (default ./build;
#                  configured/built as Release if needed, same policy as
#                  bench_throughput_json.sh)
#   MP_CLIENTS     client process count        (default 4)
#   MP_MESSAGES    messages per client         (default 50000)
#   MP_SHARDS      shard count                 (default 1)
#   MP_POLLERS     poller threads, every row   (default 2; the service
#                  serializes ingest behind one lock, so more pollers
#                  only add contention)
#   MP_EPOLL_MESSAGES  per-connection messages for the C=100 epoll row
#                      (default 2000; the C=1000 row scales it by 1/10)
#   BENCH_SMOKE    1 = small sizes for CI      (2 clients x 5000 msgs;
#                  epoll rows 100 and 20 msgs/connection)
set -euo pipefail

# C=1000 means >1000 fds in both the server and the blast driver.
ulimit -n 4096 2>/dev/null || true

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
TARGET="${1:-$ROOT/BENCH_throughput.json}"
CLIENTS="${MP_CLIENTS:-4}"
MESSAGES="${MP_MESSAGES:-50000}"
SHARDS="${MP_SHARDS:-1}"
POLLERS="${MP_POLLERS:-2}"
EPOLL_MESSAGES="${MP_EPOLL_MESSAGES:-2000}"

if [[ "${BENCH_SMOKE:-0}" == "1" ]]; then
  CLIENTS=2
  MESSAGES=5000
  EPOLL_MESSAGES=100
fi

build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" \
    2>/dev/null || true
}

cxx_flags() {
  sed -n 's/^CMAKE_CXX_FLAGS:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" \
    2>/dev/null || true
}

# Same provenance rule as bench_throughput_json.sh: instrumented trees
# never write the tracked artifact.
TRACKED="$ROOT/BENCH_throughput.json"
case "$(cxx_flags)" in
  *-fsanitize*|*-fprofile*|*--coverage*)
    if [[ "$(readlink -m "$TARGET")" == "$(readlink -m "$TRACKED")" ]]; then
      echo "error: $BUILD_DIR is instrumented; refusing to touch $TRACKED." >&2
      exit 1
    fi
    echo "warning: benching an instrumented tree (target: $TARGET)" >&2
    ;;
esac

if [[ "$(build_type)" != "Release" ]]; then
  echo "configuring $BUILD_DIR as Release (found: '$(build_type)')" >&2
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" --target example_wire_replay -j "$(nproc)"

BIN="$BUILD_DIR/example_wire_replay"
SOCK="$(mktemp -u /tmp/tommy_mp_XXXXXX.sock)"
OUT="$(mktemp /tmp/tommy_mp_XXXXXX.json)"
OUT_E100="$(mktemp /tmp/tommy_mp_XXXXXX.json)"
OUT_E1K="$(mktemp /tmp/tommy_mp_XXXXXX.json)"
SERVER_PID=""
# Kill the background server too: a failing client aborts the script at
# its `wait`, and an orphaned server would otherwise serve a deadline out
# against deleted temp paths.
trap '[[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null; rm -f "$SOCK" "$OUT" "$OUT_E100" "$OUT_E1K"' EXIT

# Arguments every serve process shares, whatever the row.
COMMON_SERVE_ARGS=(--shards "$SHARDS" --pollers "$POLLERS")

# ── Row 1: one blast process per client ──────────────────────────────────
EXPECT=$((CLIENTS * MESSAGES))
"$BIN" serve --unix "$SOCK" --clients "$CLIENTS" \
    --expect-submits "$EXPECT" "${COMMON_SERVE_ARGS[@]}" --json "$OUT" &
SERVER_PID=$!

CLIENT_PIDS=()
for ((i = 0; i < CLIENTS; i++)); do
  "$BIN" blast --unix "$SOCK" --client "$i" --messages "$MESSAGES" &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do wait "$pid"; done
wait "$SERVER_PID"
SERVER_PID=""

# ── Rows 2+3: C=100 and C=1000 connections ──────────────────────────────
# One blast process drives all C sockets round-robin; the server runs
# $POLLERS poller threads, exactly as row 1.
run_epoll_row() {
  local connections="$1" per_conn="$2" out="$3"
  local sock expect
  sock="$(mktemp -u /tmp/tommy_mp_XXXXXX.sock)"
  expect=$((connections * per_conn))
  "$BIN" serve --unix "$sock" --clients "$connections" \
      --expect-submits "$expect" "${COMMON_SERVE_ARGS[@]}" --json "$out" &
  SERVER_PID=$!
  "$BIN" blast --unix "$sock" --client 0 --connections "$connections" \
      --messages "$per_conn"
  wait "$SERVER_PID"
  SERVER_PID=""
  rm -f "$sock"
}

run_epoll_row 100 "$EPOLL_MESSAGES" "$OUT_E100"
run_epoll_row 1000 $((EPOLL_MESSAGES / 10 > 0 ? EPOLL_MESSAGES / 10 : 1)) "$OUT_E1K"

# Merge: replace MP_* entries in the target (creating it with the first
# run's context if absent), keep everything else. Each run is passed as
# FAMILY=PATH: the server writes one family name, and the merge renames
# the row to the family its load shape belongs to.
python3 - "$TARGET" "MP_UnixServerIngest=$OUT" \
    "MP_EpollServerIngest=$OUT_E100" "MP_EpollServerIngest=$OUT_E1K" <<'EOF'
import json
import sys

target_path, run_args = sys.argv[1], sys.argv[2:]
runs = []
for arg in run_args:
    family, path = arg.split("=", 1)
    with open(path) as f:
        run = json.load(f)
    for b in run["benchmarks"]:
        for key in ("name", "run_name"):
            b[key] = family + "/" + b[key].split("/", 1)[1]
    runs.append(run)
try:
    with open(target_path) as f:
        target = json.load(f)
except FileNotFoundError:
    target = {"context": runs[0]["context"], "benchmarks": []}

kept = [b for b in target.get("benchmarks", [])
        if not b["name"].startswith("MP_")]
merged = [b for run in runs for b in run["benchmarks"]]
target["benchmarks"] = kept + merged
with open(target_path, "w") as f:
    json.dump(target, f, indent=1)
    f.write("\n")
print(f"merged {[b['name'] for b in merged]} into {target_path}")
EOF
