#!/usr/bin/env python3
"""Parent-versus-change comparison on one livebench workload or bench.

    python3 scripts/ab.py --base REV --workload W [--pairs 10] [--seed0 N]
                          [--claim METRIC]
    python3 scripts/ab.py --base REV --bench TARGET --filter RE
                          [--pairs 10] [--min-time S]

Exports REV with `git archive` into a temporary directory (the parent
side) and compares it with this checkout (the change side). Refuses to
run (exit 2) when livebench/ or BENCHMARK.json differ between the two
trees: both sides must run the same benchmark. Runs BENCHMARK.json's command
`--pairs` times on each side, one pair per seed from `--seed0` on, the
same seed on both sides of a pair, alternating which side runs first.
Each side builds its own harness under its own .bench_build/.

For every end-to-end metric it prints each side's median and quartiles
and the change's win count (ties count for neither side). For the
`--claim` metric it applies the rule for claiming a gain: the change
wins at least nine tenths of the pairs, and the medians differ, in the
change's favour, by more than the parent's interquartile range. Every
other metric gets one verdict against its BENCHMARK.json bound:

  holds       the change's median is no worse than the parent's by more
              than the bound (or every change run beats every parent run);
  worse       the change's median is worse by more than the bound;
  unresolved  a side's quartile spread is wider than the bound, so the
              runs cannot tell.

Exits 1 if any run fails its checks (and prints that run's FAILED
lines), or if the claim is not met.

With --bench, the comparison is over the rows of one benchmark binary
(a bench/ target, e.g. bench_throughput) instead. Each tree builds
TARGET as Release in its own temporary build directory; the pairs run
both binaries with --benchmark_filter=RE (and --benchmark_min_time=S
when given), reading each run's --benchmark_out JSON, again alternating
which side runs first. Per row it prints each side's median and
quartiles of items_per_second (real_time for rows without a rate) and
the change's win count. A row is "better" or "worse" only when every
change run beats, or loses to, every parent run; otherwise it is
"within noise". Rows found on one side only are listed as added or
removed. Exits 1 when a build or a benchmark binary fails.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(rev, dest):
    """Extracts the tree of `rev` into `dest` with git archive."""
    out = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(out.stdout)) as tar:
        tar.extractall(dest)


def tree_files(root, rel):
    """{relative path: bytes} of every file under root/rel (or the file)."""
    base = root / rel
    if base.is_file():
        return {rel: base.read_bytes()}
    files = {}
    if base.is_dir():
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files[str(path.relative_to(root))] = path.read_bytes()
    return files


def benchmark_differs(parent_root):
    """Paths under livebench/ or BENCHMARK.json that differ between trees."""
    differing = []
    for rel in ("livebench", "BENCHMARK.json"):
        a, b = tree_files(parent_root, rel), tree_files(ROOT, rel)
        differing += sorted(p for p in a.keys() | b.keys()
                            if a.get(p) != b.get(p))
    return differing


def run_once(root, spec, workload, seed):
    """One benchmark run; returns ({metric: value} or None, FAILED lines)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"])]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    failed = [l for l in lines if l.startswith("FAILED")]
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if (out.returncode != 0 or result is None or not result["correct"]
            or result.get("failed", 0) != 0):
        if result is None:
            failed.append(f"FAILED no result (exit {out.returncode}): "
                          + out.stderr.strip()[-500:])
        elif result.get("failed", 0) != 0:
            failed.append(f"FAILED {result['failed']} of "
                          f"{result['attempted']} messages failed")
        return None, failed
    return {k: v["value"] for k, v in result["metrics"].items()}, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def relative_worsening(metric, parent, change):
    """How much worse the change's median is, as a share of the parent's
    (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == 0 else math.inf
    delta = (change - parent) / abs(parent)
    return delta if metric["better"] == "lower" else -delta


def verdict(metric, parent_runs, change_runs):
    """One of holds / worse / unresolved against the metric's bound."""
    bound = metric["bound"]
    if all(better(metric, c, p) for c in change_runs for p in parent_runs):
        return "holds (every change run better)"
    spreads = []
    for runs in (parent_runs, change_runs):
        q1, med, q3 = quartiles(runs)
        spreads.append((q3 - q1) / abs(med) if med else math.inf)
    worse = relative_worsening(metric, statistics.median(parent_runs),
                               statistics.median(change_runs))
    if max(spreads) > bound:
        return (f"unresolved (spread {max(spreads):.1%} > bound "
                f"{bound:.0%}; median {worse:+.1%} worse)")
    if worse > bound:
        return f"WORSE beyond the bound ({worse:+.1%} > {bound:.0%})"
    return f"holds ({worse:+.1%} worse, bound {bound:.0%})"


def claim_verdict(metric, parent_runs, change_runs, wins, pairs):
    p_q1, p_med, p_q3 = quartiles(parent_runs)
    c_med = statistics.median(change_runs)
    gap = (p_med - c_med) if metric["better"] == "lower" else (c_med - p_med)
    iqr = p_q3 - p_q1
    met = pairs > 0 and wins >= math.ceil(0.9 * pairs) and gap > iqr
    return met, (f"claim {'MET' if met else 'NOT met'}: wins {wins}/{pairs} "
                 f"(need {math.ceil(0.9 * pairs)}), median gap {gap:.6g} "
                 f"vs parent IQR {iqr:.6g}")


def build_bench(root, target, build_dir):
    """Builds `target` as Release from `root` into `build_dir`; returns the
    binary, or None (after printing the tail of the log) on failure."""
    steps = (["cmake", "-B", str(build_dir), "-S", str(root),
              "-DCMAKE_BUILD_TYPE=Release", "-DTOMMY_BUILD_TESTS=OFF",
              "-DTOMMY_BUILD_EXAMPLES=OFF"],
             ["cmake", "--build", str(build_dir), "--target", target,
              "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"ab: {' '.join(cmd)} failed:\n"
                  + (out.stdout + out.stderr)[-2000:], file=sys.stderr)
            return None
    return build_dir / target


def run_bench(binary, args, out_path):
    """One pass of the binary; returns {row name: (value, higher is
    better)} or None when the binary fails."""
    cmd = [str(binary), f"--benchmark_filter={args.filter}",
           f"--benchmark_out={out_path}", "--benchmark_out_format=json"]
    if args.min_time is not None:
        cmd.append(f"--benchmark_min_time={args.min_time}")
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0 or not Path(out_path).is_file():
        print(f"ab: {' '.join(cmd)} exited {out.returncode}:\n"
              + out.stderr.strip()[-1000:], file=sys.stderr)
        return None
    rows = {}
    for row in json.loads(Path(out_path).read_text())["benchmarks"]:
        if row.get("run_type", "iteration") != "iteration":
            continue
        if "items_per_second" in row:
            rows[row["name"]] = (row["items_per_second"], True)
        else:
            rows[row["name"]] = (row["real_time"], False)
    return rows


def bench_main(args):
    """The --bench mode: row-by-row comparison of one benchmark binary."""
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        tmp = Path(tmp)
        roots = {"parent": tmp / "parent", "change": ROOT}
        export(args.base, roots["parent"])
        binaries = {}
        for side in SIDES:
            binaries[side] = build_bench(roots[side], args.bench,
                                         tmp / f"build-{side}")
            if binaries[side] is None:
                return 1
        # values[side][row] = per-pair values; rate[row] = higher is better
        values = {side: {} for side in SIDES}
        rate = {}
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                rows = run_bench(binaries[side], args, tmp / f"{side}.json")
                if rows is None:
                    return 1
                for name, (value, higher) in rows.items():
                    values[side].setdefault(name, []).append(value)
                    rate[name] = higher
            print(f"pair {k + 1}/{args.pairs} done", flush=True)

    both = [n for n in values["parent"] if n in values["change"]]
    print(f"\n{args.bench} --benchmark_filter={args.filter}, base "
          f"{args.base}, {args.pairs} pair(s)")
    print(f"{'row':44s} {'metric':16s} {'parent median [Q1, Q3]':32s} "
          f"{'change median [Q1, Q3]':32s} {'wins':6s} verdict")
    for name in both:
        p_runs, c_runs = values["parent"][name], values["change"][name]
        higher = rate[name]
        beats = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
        wins = sum(beats(c, p) for p, c in zip(p_runs, c_runs))
        if all(beats(c, p) for c in c_runs for p in p_runs):
            text = "better"
        elif all(beats(p, c) for c in c_runs for p in p_runs):
            text = "worse"
        else:
            text = "within noise"
        cells = []
        for runs in (p_runs, c_runs):
            q1, med, q3 = quartiles(runs)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        metric = "items_per_second" if higher else "real_time"
        print(f"{name:44s} {metric:16s} {cells[0]:32s} {cells[1]:32s} "
              f"{f'{wins}/{len(p_runs)}':6s} {text}")
    for side, label in (("parent", "removed"), ("change", "added")):
        other = "change" if side == "parent" else "parent"
        for name in values[side]:
            if name not in values[other]:
                print(f"{name:44s} {label} (only in the {side} tree)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="livebench workload")
    mode.add_argument("--bench", metavar="TARGET",
                      help="benchmark binary target, e.g. bench_throughput")
    parser.add_argument("--filter", metavar="RE",
                        help="--benchmark_filter regex (with --bench)")
    parser.add_argument("--min-time", metavar="S",
                        help="--benchmark_min_time (with --bench)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--claim", help="end-to-end metric claimed better")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.bench is not None:
        if args.filter is None:
            parser.error("--bench needs --filter")
        return bench_main(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must be one of {', '.join(metrics)}")

    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        export(args.base, roots["parent"])
        differing = benchmark_differs(roots["parent"])
        if differing:
            print("ab: the benchmark differs between the trees: "
                  + ", ".join(differing), file=sys.stderr)
            return 2

        values = {side: {name: [] for name in metrics} for side in SIDES}
        wins = {name: 0 for name in metrics}
        pairs_ok = 0
        ok = True
        for k in range(args.pairs):
            seed = args.seed0 + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            row = {}
            for side in order:
                row[side], failed = run_once(roots[side], spec,
                                             args.workload, seed)
                if row[side] is None:
                    ok = False
                    print(f"seed {seed} {side}: FAILED")
                    print("\n".join(failed))
                else:
                    print(f"seed {seed} {side}: " + " ".join(
                        f"{name}={row[side].get(name, float('nan')):.6g}"
                        for name in metrics), flush=True)
            if row["parent"] is None or row["change"] is None:
                continue
            pairs_ok += 1
            for name, metric in metrics.items():
                p, c = row["parent"][name], row["change"][name]
                values["parent"][name].append(p)
                values["change"][name].append(c)
                if better(metric, c, p):
                    wins[name] += 1

    if pairs_ok == 0:
        print("ab: no pair completed on both sides")
        return 1
    print(f"\n{args.workload}, base {args.base}, {pairs_ok} complete "
          f"pair(s) of {args.pairs}, seeds {args.seed0}-"
          f"{args.seed0 + args.pairs - 1}, {spec['run_seconds']} s runs")
    print(f"{'metric':15s} {'unit':6s} {'parent median [Q1, Q3]':36s} "
          f"{'change median [Q1, Q3]':36s} {'wins':6s} verdict")
    claim_met = True
    for name, metric in metrics.items():
        p_runs, c_runs = values["parent"][name], values["change"][name]
        cells = []
        for runs in (p_runs, c_runs):
            q1, med, q3 = quartiles(runs)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        if name == args.claim:
            # A pair with a failed run counts as a pair the change lost.
            claim_met, text = claim_verdict(metric, p_runs, c_runs,
                                            wins[name], args.pairs)
        else:
            text = verdict(metric, p_runs, c_runs)
        print(f"{name:15s} {metric['unit']:6s} {cells[0]:36s} {cells[1]:36s} "
              f"{f'{wins[name]}/{pairs_ok}':6s} {text}")
    return 0 if ok and claim_met else 1


if __name__ == "__main__":
    sys.exit(main())
