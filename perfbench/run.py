"""dualhead benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload fit_ce --seed 0 --seconds 28 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped. ``--trace 1`` spends half the time untraced and half with every
layer wrapped, prints the per-layer metrics and the tracing overhead,
and writes the spans to ``.perfbench_out/``. Both print one
human-readable line per metric and, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Operations are closed-loop: one at a time, each starting when the last
returns, until the next one would overrun ``--seconds``; at least one
always runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
WORKLOADS = ("fit_ce", "fit_membank", "ablate", "gradcheck")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="work per operation (tiny: smoke test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_program():
    """Import dualhead from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "dualhead" / "__init__.py").is_file():
        raise SystemExit(f"error: no dualhead sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dualhead

    if Path(dualhead.__file__).resolve().parent != (SRC / "dualhead").resolve():
        raise SystemExit(f"error: imported dualhead from {dualhead.__file__}, not {SRC}")
    return dualhead


def program_modules() -> dict:
    from dualhead import cli, gradcheck, keypool, losses, model, ndgrad, trainer

    return {
        "ndgrad": ndgrad, "model": model, "keypool": keypool, "losses": losses,
        "trainer": trainer, "cli": cli, "gradcheck": gradcheck,
    }


def measure(workload, seed: int, first_index: int, seconds: float) -> tuple[list, int]:
    """Closed loop of operations for about ``seconds``; returns outcomes and next index."""
    outcomes = []
    index = first_index
    started = time.perf_counter()
    while True:
        outcomes.append(workload.run(seed, index))
        index += 1
        typical = statistics.median(o.seconds for o in outcomes)
        if time.perf_counter() - started + typical > seconds:
            return outcomes, index


def throughput(outcomes) -> float:
    return statistics.median(o.units / o.seconds for o in outcomes)


def setup_seconds(args) -> float:
    """Median wall time from launching a fresh interpreter to the workload being built."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--size", args.size, "--setup-only",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed (exit {code}, said {line.strip()!r})")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    src_lines = 0
    for path in sorted((SRC / "dualhead").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_dualhead_lines": src_lines,
    }


def git_commit() -> str | None:
    """HEAD's commit read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fmt(value: float) -> str:
    return repr(float(value))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    workload = workloads.build(args.workload, args.size, OUT_DIR)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import metrics

    load_before = os.getloadavg()
    if args.trace:
        result, outcomes, info = traced_run(args, workload)
    else:
        outcomes, _ = measure(workload, args.seed, 0, args.seconds)
        result = {"throughput": throughput(outcomes), "peak_rss_mb": peak_rss_mb()}
        result["setup_s"] = setup_seconds(args)
        info = {}
    info.update(provenance=provenance(), loadavg_before=load_before, loadavg_after=os.getloadavg())

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for problem in o.problems:
            print(f"failed: {problem}", file=sys.stderr)

    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    unit_of = {name: spec[0] for name, spec in catalogue.items()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} operations {len(outcomes)}")
    for name in catalogue:
        label = name
        if name == "throughput":
            label = f"throughput ({metrics.THROUGHPUT_NAMES[args.workload]})"
        print(f"metric {label} {fmt(result[name])} {unit_of[name]}")
    print(f"metric failed_share {fmt(failed / attempted)} ({failed} failed / {attempted} attempted)")
    print("info " + json.dumps(info, sort_keys=True))

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(result[name]), "unit": unit_of[name]} for name in catalogue},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**summary, "info": info}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary, sort_keys=True))
    return 0


def traced_run(args, workload) -> tuple[dict, list, dict]:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    import metrics
    import tracing

    half = args.seconds / 2.0
    plain, index = measure(workload, args.seed, 0, half)
    tracer = tracing.Tracer(program_modules())
    with tracer:
        traced, _ = measure(workload, args.seed, index, half)
    spans = tracer.spans()
    result = metrics.layer_metrics(spans, tracer.names)
    plain_rate, traced_rate = throughput(plain), throughput(traced)
    result["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(path, spans)
    info = {
        "untraced_throughput": plain_rate,
        "traced_throughput": traced_rate,
        "spans": int(spans["id"].shape[0]),
        "spans_file": str(path.relative_to(ROOT)),
    }
    return result, plain + traced, info


if __name__ == "__main__":
    sys.exit(main())
