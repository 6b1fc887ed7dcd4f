"""Benchmark of confocalfit: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program comes from ``src/`` of that
root, nothing is installed.  One client runs one operation at a time:

  cli-examples     one ``python -m confocalfit.cli`` process per README command
  cli-large        one process per command on a seeded 200k-row CSV
  query-field      restricted fits, restricted PCA and Jacobi coordinates
                   for a stream of query points, in process
  regularize-path  one constrained_fit call per operation over a bound grid,
                   in process

Every output is checked against computations made apart from the program
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
human summary goes to standard error; results and traces are written under
``perfbench/_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from worker import cases  # noqa: E402

# Set-up samples per run, each a fresh process spread over the run; the
# median is reported.
SETUPS = {"cli-examples": 5, "cli-large": 3, "query-field": 5, "regularize-path": 5}
# Percentile reported as op_ms_tail, and the fewest operations a run times
# (in whole rounds) so that at least ten samples lie beyond it.  cli-large
# times too few operations for any tail, so it reports its slowest
# command's median over at least four rounds.  regularize-path times
# exactly three rounds of 36 calls on this machine: a round takes 6-9 s, and
# a run whose round count followed the machine's speed (two or three)
# moved its tail by a fifth.
TAIL_PERCENTILE = {"cli-examples": 75, "query-field": 95, "regularize-path": 85}
MIN_OPS = {"cli-examples": 40, "cli-large": 16, "query-field": 200, "regularize-path": 108}
LAYER_PROBE_ROUNDS = 3
START_PROBES = 5
SPAN_ID_STRIDE = 1 << 32  # keeps span ids of different CLI processes apart

# The only operations allowed to fail: faults of regularize.constrained_fit
# on seed-independent inputs (CHANGES.md, README).
KNOWN_FAILURES = {
    ("cells", "l1", 1e-4), ("cells", "l1", 1e-3),
    ("forbes", "l1", 1e-4), ("forbes", "l1", 1e-3),
    ("cells+1e3", "l1", 1e-4), ("forbes+1e3", "l1", 1e-4),
    ("cells+1e3", "l2", 1e-3), ("forbes+1e3", "l2", 1e-3),
}


def metric_units(section: str) -> dict:
    """Metric name -> unit, in BENCHMARK.json's order (the one list of metrics)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed child)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, stdout_path=None):
    """Run a child to its exit; returns (seconds, exit code, peak RSS in MB)."""
    with open(stdout_path or os.devnull, "wb") as out, \
            open(OUT / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def run_worker(workload, manifest_path, seconds, trace, setup_only):
    result = OUT / f"worker-{workload}.pkl"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(manifest_path),
            str(result), "--seconds", repr(seconds), "--trace", str(trace),
            "--min-ops", str(MIN_OPS[workload])]
    if setup_only:
        argv.append("--setup-only")
    _, code, rss = spawn(argv)
    if code != 0:
        raise BenchError(f"worker exited {code}: {(OUT / 'stderr.txt').read_text()[-2000:]}")
    # written by our own worker a moment ago
    return pickle.loads(result.read_bytes()), rss


def probe(*args) -> dict:
    path = OUT / "probe.json"
    _, code, _ = spawn([sys.executable, str(HERE / "probe.py"), *args], path)
    if code != 0:
        raise BenchError(f"probe {args[0]} exited {code}: {(OUT / 'stderr.txt').read_text()[-2000:]}")
    return json.loads(path.read_text().splitlines()[-1])


# ---------------------------------------------------------------------------
# Closed loops
# ---------------------------------------------------------------------------

def cli_loop(manifest, seconds, trace, min_ops, before_round):
    """One process per command, whole rounds; odd rounds traced when tracing."""
    commands = manifest["commands"]
    stdout_path = OUT / "stdout.bin"
    spans_path = OUT / "spans.json"
    records, first, spans = [], {}, []
    loop_start = time.perf_counter()
    rounds = 0
    while len(records) < min_ops or time.perf_counter() - loop_start < seconds:
        before_round()
        traced = bool(trace) and rounds % 2 == 1
        for index, argv in enumerate(commands):
            if traced:
                head = [sys.executable, str(HERE / "boot.py"), str(spans_path), "--"]
            else:
                head = [sys.executable, "-m", "confocalfit.cli"]
            figure = ROOT / argv[argv.index("--out") + 1] if "--out" in argv else None
            if figure:
                figure.unlink(missing_ok=True)  # the check must see this run's file
            seconds_op, code, rss = spawn(head + argv, stdout_path)
            svg = figure.read_bytes() if figure and figure.exists() else None
            out = (code, stdout_path.read_bytes(), svg)
            if index not in first:
                first[index] = out
            op = len(records)
            records.append((index, seconds_op, out == first[index], traced, rss))
            if traced:
                base = op * SPAN_ID_STRIDE
                spans += [(base + s[0], s[1], s[2], s[3],
                           base + s[4] if s[4] >= 0 else -1, op, s[6])
                          for s in json.loads(spans_path.read_text())]
        rounds += 1
    return records, first, spans


def check_cli(manifest, first):
    from checks import load_cloud, report_problems, schema_validator

    validator = schema_validator(ROOT)
    clouds = {}
    problems = {}
    for index, (code, stdout, svg) in first.items():
        argv = manifest["commands"][index]
        entry = next(e for e in manifest["load"] if e["path"] == argv[1])
        if entry["path"] not in clouds:
            clouds[entry["path"]] = load_cloud(ROOT, entry)
        found = [] if code == 0 else [f"exit code {code}"]
        found += report_problems(argv, stdout.decode("utf-8", "replace"),
                                 clouds[entry["path"]], validator, svg)
        problems[index] = found
    return problems


def check_inprocess(workload, manifest, first):
    from checks import load_cloud, query_problems, regularize_oracle, regularize_problems

    clouds = [load_cloud(ROOT, e) for e in manifest["load"]]
    problems = {}
    for index, blob in first.items():
        out = pickle.loads(blob)  # written by our own worker
        if "error" in out:
            problems[index] = [out["error"]]
            continue
        if workload == "query-field":
            s, q = cases(workload, manifest)[index]
            problems[index] = query_problems(clouds[s], manifest["queries"][s][q], out)
        else:
            s, norm, bound = manifest["cases"][index]
            oracle = regularize_oracle(clouds[s], norm, bound, seed=index)
            problems[index] = regularize_problems(clouds[s], norm, bound, out["u"],
                                                  out["moment"], oracle)
    return problems


def case_name(workload, manifest, index) -> str:
    if workload.startswith("cli-"):
        return " ".join(manifest["commands"][index])
    if workload == "query-field":
        s, q = cases(workload, manifest)[index]
        return f"{manifest['load'][s]['name']} query {q}"
    s, norm, bound = manifest["cases"][index]
    return f"constrained_fit({manifest['load'][s]['name']}, {norm}, {bound:g})"


def is_known_failure(workload, manifest, index) -> bool:
    if workload != "regularize-path":
        return False
    s, norm, bound = manifest["cases"][index]
    return (manifest["load"][s]["name"], norm, bound) in KNOWN_FAILURES


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, records, ok, setups, rss):
    times = [r[1] for r in records]
    out = {
        "op_ms_p50": statistics.median(times) * 1e3,
        "ops_per_s": sum(1 for r in records if ok[r[0]] and r[2]) / sum(times),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    q = TAIL_PERCENTILE.get(workload)
    if q is None:
        by_command = {}
        for r in records:
            by_command.setdefault(r[0], []).append(r[1])
        out["op_ms_tail"] = max(statistics.median(v) for v in by_command.values()) * 1e3
        tail_note = "slowest command's median"
    else:
        out["op_ms_tail"] = percentile(times, q) * 1e3
        tail_note = f"p{q} of {len(times)} ops, {len(times) * (100 - q) / 100:.1f} beyond"
    return out, tail_note


def per_layer(workload, manifest, op_spans, n_ops, all_spans):
    from tracer import layer_metrics

    starts = [probe("start") for _ in range(START_PROBES)]
    largest = max(manifest["load"], key=lambda e: (ROOT / e["path"]).stat().st_size)
    peak = probe("parse", largest["path"], ",".join(largest["cols"] or ["-"]),
                 largest["mass_col"] or "-")
    own = layer_metrics(op_spans, n_ops, all_spans)
    sources = {name: "workload" for name in own}
    if any(v is None for v in own.values()):
        fallback = probe("layers", str(LAYER_PROBE_ROUNDS))
        for name, value in own.items():
            if value is None:
                own[name] = fallback[name]
                sources[name] = "layer probe (README commands in process)"
    own["cli.import_ms"] = statistics.median(s["import_ms"] for s in starts)
    own["regression.f_tail_ms"] = statistics.median(s["f_tail_ms"] for s in starts)
    own["dataset.parse_peak_mb"] = peak["parse_peak_mb"]
    for name in ("cli.import_ms", "regression.f_tail_ms", "dataset.parse_peak_mb"):
        sources[name] = "fresh-interpreter probe"
    return own, sources


# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "confocalfit" / "__init__.py").is_file():
        raise BenchError(f"no program at {ROOT / 'src' / 'confocalfit'}")
    OUT.mkdir(exist_ok=True)
    from selfcheck import self_check

    broken = self_check()
    if broken:
        raise BenchError("checker self-check failed: " + "; ".join(broken))
    manifest = inputs.prepare(ROOT, workload, seed)
    manifest_path = inputs.directory(ROOT, workload, seed) / "manifest.json"
    setups = []
    wanted = 0 if trace else SETUPS[workload]

    def set_up():
        if len(setups) < wanted:
            setups.append(run_worker(workload, manifest_path, 0, 0, True)[0]["setup_s"])

    if workload.startswith("cli-"):
        records, first, spans = cli_loop(manifest, seconds, trace, MIN_OPS[workload], set_up)
        while len(setups) < wanted:
            set_up()
        rss = max(r[4] for r in records if not r[3])
        problems = check_cli(manifest, first)
        all_spans = spans
    else:
        wanted -= 1  # the measuring worker's own set-up is one sample
        for _ in range(wanted // 2):
            set_up()
        result, rss = run_worker(workload, manifest_path, seconds, trace, False)
        while len(setups) < wanted:
            set_up()
        setups.append(result["setup_s"])
        records, first = result["records"], result["first"]
        records = [(i, s, same, traced, rss) for i, s, same, traced in records]
        all_spans = result["spans"]
        spans = [s for s in all_spans if s[5] >= 0]
        problems = check_inprocess(workload, manifest, first)

    ok = {index: not found for index, found in problems.items()}
    failed = sum(1 for r in records if not (ok[r[0]] and r[2]))
    unexpected = sorted({r[0] for r in records if not (ok[r[0]] and r[2])
                         and not is_known_failure(workload, manifest, r[0])})
    summary = [f"{workload} seed {seed}: {len(records)} operations, {failed} failed"]
    for index in sorted(problems):
        if problems[index]:
            tag = "known fault" if is_known_failure(workload, manifest, index) else "WRONG"
            summary.append(f"  {tag}: {case_name(workload, manifest, index)}: "
                           + "; ".join(problems[index][:3]))
    changed = sorted({r[0] for r in records if not r[2]})
    for index in changed:
        summary.append(f"  WRONG: {case_name(workload, manifest, index)}: output changed between rounds")

    untraced = [r for r in records if not r[3]]
    if trace:
        traced = [r for r in records if r[3]]
        metrics, sources = per_layer(workload, manifest, spans, len(traced), all_spans)
        overhead = (statistics.median(r[1] for r in traced)
                    - statistics.median(r[1] for r in untraced)) * 1e3
        summary.append(f"  tracing overhead: {overhead:+.3f} ms on the median operation "
                       f"({len(traced)} traced vs {len(untraced)} untraced operations)")
        units = metric_units("per_layer")
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps({
            "workload": workload, "seed": seed, "overhead_ms": overhead,
            "sources": sources, "metrics": metrics,
            "span_fields": ["id", "name", "start", "end", "parent", "op", "size"],
            "spans": spans if workload.startswith("cli-") else all_spans,
        }))
    else:
        metrics, tail_note = end_to_end(workload, untraced, ok, setups, rss)
        summary.append(f"  op_ms_tail is the {tail_note}; setup_s is the median of "
                       f"{len(setups)} set-ups")
        units = metric_units("end_to_end")
    for name in units:
        summary.append(f"  {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(bool(trace))}.json").write_text(
        json.dumps({**result, "summary": summary}, indent=1))
    print("\n".join(summary), file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
