"""Smoke test of the benchmark itself, at a tiny size per operation.

    python3 perfbench/smoke.py

For every workload it checks that:

* BENCHMARK.json names the same metrics, units and directions as
  ``metrics.py``, and every name matches ``[A-Za-z0-9_.-]+``;
* an untraced run never calls ``Tracer.install`` and leaves every
  dualhead module and wrapped class exactly as it found it;
* a traced run wraps while it measures and restores every attribute;
* both runs print a well-formed result line with every metric, a unit
  each, and no failed operation;
* the exact counts repeat between two traced runs of one seed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import metrics
import run
import tracing

SECONDS = "1"


def snapshot(modules: dict) -> dict:
    """Every attribute of the layer modules and of the classes the tracer wraps."""
    snap = {name: dict(vars(mod)) for name, mod in modules.items()}
    for layer, classes in tracing.CLASS_METHODS.items():
        for cls_name in classes:
            snap[f"{layer}.{cls_name}"] = dict(vars(vars(modules[layer])[cls_name]))
    return snap


def changed(before: dict, after: dict) -> list[str]:
    out = []
    for owner, attrs in before.items():
        now = after[owner]
        for key in attrs.keys() | now.keys():
            if attrs.get(key, None) is not now.get(key, None):
                out.append(f"{owner}.{key}")
    return sorted(out)


def run_once(workload: str, trace: int, seed: int = 3) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"]
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(result: dict, catalogue: dict, where: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    got = result.get("metrics", {})
    if set(got) != set(catalogue):
        problems.append(f"{where}: metrics differ from the catalogue: {sorted(set(got) ^ set(catalogue))}")
    for name, entry in got.items():
        if not re.fullmatch(metrics.NAME_PATTERN, name):
            problems.append(f"{where}: bad metric name {name!r}")
        if not entry.get("unit") or not isinstance(entry.get("value"), float):
            problems.append(f"{where}: {name} has no unit or value: {entry!r}")
    return problems


def check_benchmark_json() -> list[str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for key, catalogue in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        ours = {name: spec[:2] for name, spec in catalogue.items()}
        if listed != ours:
            problems.append(f"BENCHMARK.json {key} disagrees with metrics.py: {sorted(set(listed.items()) ^ set(ours.items()))}")
        problems += [f"bad metric name {n!r}" for n in listed if not re.fullmatch(metrics.NAME_PATTERN, n)]
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {[w['name'] for w in bench['workloads']]}")
    return problems


def main() -> int:
    run.import_program()
    modules = run.program_modules()
    problems = check_benchmark_json()
    original_install = tracing.Tracer.install
    installs = []

    def refuse(self):
        installs.append(self)
        raise AssertionError("an untraced run installed the tracer")

    def counted(self):
        installs.append(self)
        original_install(self)

    for workload in run.WORKLOADS:
        before = snapshot(modules)
        installs.clear()
        tracing.Tracer.install = refuse
        try:
            result = run_once(workload, trace=0)
        finally:
            tracing.Tracer.install = original_install
        problems += [f"{workload} trace 0 touched {name}" for name in changed(before, snapshot(modules))]
        problems += check_result(result, metrics.END_TO_END, f"{workload} trace 0")
        if installs:
            problems.append(f"{workload} trace 0 installed the tracer")

        traced = []
        for _ in range(2):
            installs.clear()
            tracing.Tracer.install = counted
            try:
                traced.append(run_once(workload, trace=1))
            finally:
                tracing.Tracer.install = original_install
            if len(installs) != 1:
                problems.append(f"{workload} trace 1 installed the tracer {len(installs)} times")
        problems += [f"{workload} trace 1 left {name} patched" for name in changed(before, snapshot(modules))]
        problems += check_result(traced[0], metrics.PER_LAYER, f"{workload} trace 1")
        for name in metrics.EXACT:
            a, b = (t["metrics"][name]["value"] for t in traced)
            if a != b:
                problems.append(f"{workload}: exact count {name} read {a!r} then {b!r}")
        print(f"smoke {workload}: done", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
