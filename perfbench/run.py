"""Benchmark for the latinhadamard package.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  The run sets up its workload seven
times (a fresh interpreter importing the package, then input generation
from the seed), runs whole passes of operations until ``--seconds``
seconds have passed, checks every result, and prints one JSON object as
its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, taken over
whole passes: ``setup_s``, ``throughput_per_s`` and ``latency_ms_p50``
(the median pass time).  With ``--trace 1`` about half the operations,
chosen by a seeded coin, run with spans around the package's public
functions, and the metrics are per-layer calls, busy time and self time
per pass, estimated from the traced operations, plus the tracing
overhead against the untraced operations of the same run.  Lines before
the last one are a human-readable summary.
A record of each run, with machine information, is written to
``.perfbench_out/`` and, for traced runs, the spans too.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
WINDOW_S = 0.5  # throughput is the median rate over windows of this much busy time

# Per-layer metrics: one span (or span group) each, reported as calls,
# busy time and self time per pass.
LAYERS = ("latin.abba_quads", "coloring.color", "coloring.orthogonality",
          "algebra.table", "algebra.zd_first", "algebra.zd_list",
          "design.verify", "design.eigenbasis", "chisq.eigenbasis",
          "chisq.decompose", "power", "power.resolve_basis",
          "power.edges", "power.sample", "power.bin", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import latinhadamard from ./src of this checkout, or exit with an error."""
    if not (SRC / "latinhadamard" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'latinhadamard'}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import latinhadamard
    if Path(latinhadamard.__file__).resolve().parent != SRC / "latinhadamard":
        sys.exit(f"perfbench: imported latinhadamard from {latinhadamard.__file__}, "
                 f"not from {SRC}")


def timed_setup(workload_cls, seed, workdir) -> tuple[float, object]:
    """Import in a fresh interpreter, then generate inputs; return (seconds, workload)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import latinhadamard.cli"],
                   check=True, cwd=ROOT)
    workload = workload_cls(seed, workdir)
    return time.perf_counter() - start, workload


class Run:
    """Outcomes of the operations of one run."""

    def __init__(self):
        self.kinds = []           # op kind by op index
        self.durations = defaultdict(list)   # kind -> seconds, passed ops only
        self.passes = []          # (seconds, work) of passes in which every op passed
        self.traced = set()       # indices of traced passed ops
        self.traced_by_kind = defaultdict(list)    # kind -> seconds
        self.untraced_by_kind = defaultdict(list)  # kind -> seconds, traced runs only
        self.attempted = 0
        self.failures = []
        self.probes = defaultdict(lambda: [0, 0])  # kind -> [sent, handled]
        self.probe_messages = {}


def measure(workload, seconds, tracer=None, patches=None, seed=0) -> Run:
    """Run whole passes until ``seconds`` have passed.

    With a tracer, each operation is traced with probability 1/2, drawn
    from ``seed`` so that the choice does not follow a workload's cycle;
    the first operation of each kind is always traced, so that a kind
    that runs once a pass is seen even in a one-pass run.
    """
    coin = random.Random(seed)
    traced_kinds = set()
    run = Run()
    deadline = time.perf_counter() + seconds
    for batch in workload.passes():
        if time.perf_counter() >= deadline:
            return run
        busy = work = 0.0
        whole = True
        for op in batch:
            index = len(run.kinds)
            run.kinds.append(op.kind)
            traced = tracer is not None and (coin.random() < 0.5 or op.kind not in traced_kinds)
            fn = op.fn
            if traced:
                traced_kinds.add(op.kind)
                tracer.op = index
                patches.install()
                fn = lambda op=op: tracer.span(f"bench.{op.kind}", op.fn)
            error = None
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if traced:
                patches.remove()
                tracer.op = -1
            if error is None:
                try:
                    op.check(result)
                except Exception as exc:  # a CheckFailed, or output too malformed to parse
                    error = f"{type(exc).__name__}: {exc}"
            if op.probe:
                tally = run.probes[op.kind]
                tally[0] += 1
                tally[1] += error is None
                if error is not None:
                    run.probe_messages[op.kind] = error
                continue
            run.attempted += 1
            if error is not None:
                run.failures.append(f"{op.kind}: {error}")
                whole = False
                continue
            run.durations[op.kind].append(elapsed)
            busy += elapsed
            work += op.work
            if traced:
                run.traced.add(index)
                run.traced_by_kind[op.kind].append(elapsed)
            elif tracer is not None:
                run.untraced_by_kind[op.kind].append(elapsed)
        if whole:
            run.passes.append((busy, work))
    return run


def tail(values):
    """Highest of p99.9, p99, p90 with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    for level in (99.9, 99.0, 90.0):
        if len(ordered) * (100.0 - level) / 100.0 >= 10:
            rank = min(len(ordered) - 1, math.ceil(level / 100.0 * len(ordered)) - 1)
            return level, ordered[rank]
    return None


def window_rates(passes):
    """Work per second over consecutive windows of whole passes, each
    window at least WINDOW_S of busy time.

    A trailing window shorter than WINDOW_S is dropped unless it is the
    only one.  The median of these rates resists the seconds-long slow
    spells that other tenants of a shared machine cause.
    """
    rates = []
    busy = work = 0.0
    for seconds, units in passes:
        busy += seconds
        work += units
        if busy >= WINDOW_S:
            rates.append(work / busy)
            busy = work = 0.0
    if not rates and busy > 0:
        rates.append(work / busy)
    return rates


def end_to_end(run, setups) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "throughput_per_s": {"value": statistics.median(window_rates(run.passes)),
                             "unit": "1/s"},
        "latency_ms_p50": {"value": statistics.median(s for s, _ in run.passes) * 1e3,
                           "unit": "ms"},
    }


def per_layer(run, tracer) -> dict:
    """Calls, busy and self time per pass, estimated from the traced operations.

    A traced operation stands for all operations of its kind: its figures
    are weighted by the kind's operations per traced operation, over passes.
    """
    weight = {kind: len(run.durations[kind]) / len(traced) / len(run.passes)
              for kind, traced in run.traced_by_kind.items()}

    def layer_of(op, name):
        if name == "algebra.zero_divisors":
            return "algebra.zd_list" if run.kinds[op] == "zd_list" else "algebra.zd_first"
        return name

    calls = defaultdict(float)
    busy = defaultdict(float)
    self_ns = defaultdict(float)
    for (op, name), count in tracer.calls.items():
        if op in run.traced:
            calls[layer_of(op, name)] += count * weight[run.kinds[op]]
    for op, name, own, total in tracer.self_and_busy():
        if op in run.traced:
            busy[layer_of(op, name)] += total * weight[run.kinds[op]]
            self_ns[layer_of(op, name)] += own * weight[run.kinds[op]]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = {"value": calls[layer], "unit": "calls/pass"}
        metrics[f"{layer}.busy_ms"] = {"value": busy[layer] / 1e6, "unit": "ms/pass"}
        metrics[f"{layer}.self_ms"] = {"value": self_ns[layer] / 1e6, "unit": "ms/pass"}
    checked = calls["coloring.orthogonality"]
    valid = sum(count * weight[run.kinds[op]] for (op, name), count in tracer.true_counts.items()
                if name == "coloring.orthogonality" and op in run.traced)
    metrics["coloring.valid_share"] = {"value": valid / checked if checked else 0.0,
                                       "unit": "ratio"}
    metrics["trace.overhead_pct"] = {"value": overhead_pct(run), "unit": "%"}
    sent = sum(s for s, _ in run.probes.values())
    handled = sum(h for _, h in run.probes.values())
    metrics["cli.malformed_mishandled_share"] = {
        "value": (sent - handled) / sent if sent else 0.0, "unit": "ratio"}
    return metrics


def overhead_pct(run) -> float:
    """Traced minus untraced time, as a share of untraced, kind by kind.

    Each op kind contributes its mean traced and mean untraced duration,
    weighted by how often it ran, so the mix is the same on both sides.
    """
    traced = untraced = 0.0
    for kind, durations in run.traced_by_kind.items():
        plain = run.untraced_by_kind.get(kind)
        if plain:
            weight = len(durations) + len(plain)
            traced += weight * statistics.fmean(durations)
            untraced += weight * statistics.fmean(plain)
    return 100.0 * (traced / untraced - 1.0) if untraced else 0.0


def machine_info(seed) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "latinhadamard").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    from workloads import available_cpus
    return {"nproc": available_cpus(), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "commit": commit, "source_sha256": digest.hexdigest(),
            "workload_seed": seed}


def summary_lines(workload, args, run, setups, info):
    work = sum(units for _, units in run.passes)
    busy = sum(seconds for seconds, _ in run.passes)
    yield (f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
           f"trace={args.trace}: {run.attempted} ops, {len(run.failures)} failed, "
           f"{len(run.passes)} whole passes, {work:g} {workload.work_unit}s "
           f"in {busy:.3f} s busy")
    yield "machine " + " ".join(f"{k}={v}" for k, v in info.items())
    yield "setup_s " + " ".join(f"{s:.4f}" for s in setups)
    pass_times = [seconds for seconds, _ in run.passes]
    for kind, durations in [("PASS", pass_times)] + sorted(run.durations.items()):
        found = tail(durations)
        tail_text = f", p{found[0]:g} {found[1] * 1e3:.4f} ms" if found else ""
        yield (f"  {kind}: n={len(durations)} p50 {statistics.median(durations) * 1e3:.4f} ms"
               f"{tail_text}")
    for kind, (sent, handled) in sorted(run.probes.items()):
        note = f" (last: {run.probe_messages[kind]})" if kind in run.probe_messages else ""
        yield f"  probe {kind}: {sent} sent, {handled} handled as exit 1 + one line{note}"
    for failure in run.failures[:10]:
        yield f"  FAILED {failure}"


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("LH_SEED", None)  # the CLI would let it override --seed
    import_package()
    from workloads import WORKLOADS, trace_targets

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work" / args.workload
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, workload = timed_setup(workload_cls, args.seed, workdir)
        setups.append(seconds)

    tracer = patches = None
    if args.trace:
        import latinhadamard
        from latinhadamard import algebra, chisq, cli, coloring, design, latin, power
        from tracing import Patches, Tracer
        tracer = Tracer()
        namespaces = [latinhadamard, latin, coloring, algebra, design, chisq, power, cli]
        patches = Patches(tracer, trace_targets(), namespaces)

    run = measure(workload, args.seconds, tracer, patches, args.seed)
    info = machine_info(args.seed)
    failed = len(run.failures)
    if not run.passes:
        metrics = {}
    elif args.trace:
        metrics = per_layer(run, tracer)
    else:
        metrics = end_to_end(run, setups)
    result = {"correct": failed == 0 and run.attempted > 0, "attempted": run.attempted,
              "failed": failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "setup_s": setups,
              "ops": {kind: {"n": len(d), "median_ms": statistics.median(d) * 1e3,
                             "tail": tail(d)} for kind, d in run.durations.items()},
              "probes": {kind: {"sent": s, "handled": h} for kind, (s, h) in run.probes.items()},
              "failures": run.failures, "result": result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.csv")

    for line in summary_lines(workload, args, run, setups, info):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
