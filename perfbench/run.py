"""The repo benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload backlog --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload untraced and then traced for half the
budget each, and reports the per-layer metrics (self times folded from
spans recorded around each layer's public functions, the layer
counters, and the tracing overhead).  Metric names and units come from
``BENCHMARK.json``; the metrics a workload lists in its ``BYPASSED``
report 0, and any other metric it fails to measure is an error.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it describe the
inputs, the environment and per-policy figures.  Scratch files live in
``.perfbench/`` at the repository root; recorded spans are written to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("backlog", "classroom", "lab")


def _load_system() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def _metric_names(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_system()
    expected = _metric_names(bool(args.trace))

    import importlib

    from common import Run, peak_rss_mb, remove_tree

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    remove_tree(workdir)
    (workdir / "tmp").mkdir(parents=True)
    # compilers and job processes inherit this: scratch stays in the checkout
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    ctx = Run(workdir, args.seed, args.seconds, bool(args.trace))
    workload = importlib.import_module(args.workload)
    try:
        measured = workload.run(ctx)
    finally:
        remove_tree(workdir)
    if not args.trace:
        measured["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if ctx.tracer is not None:
        ctx.tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json")

    # a traced run reports 0 for the layers its workload declares bypassed,
    # and nothing else may be missing
    bypassed = set(workload.BYPASSED) if args.trace else set()
    unknown = sorted((set(measured) - set(expected)) | (set(measured) & bypassed))
    if unknown:
        raise SystemExit(f"perfbench: workload produced unlisted or bypassed metrics {unknown}")
    missing = sorted(set(expected) - set(measured) - bypassed)
    if missing:
        raise SystemExit(f"perfbench: workload did not measure {missing}")
    metrics = {}
    for name, unit in expected.items():
        value, got_unit = measured.get(name, (0.0, unit))
        if got_unit != unit:
            raise SystemExit(f"perfbench: {name} measured in {got_unit}, declared {unit}")
        metrics[name] = {"value": float(value), "unit": unit}

    env = ctx.environment()
    for line in ctx.notes:
        print(f"# {args.workload}: {line}")
    print(f"# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# error_ratio={ctx.failed / max(1, ctx.attempted):.6f} "
          f"({ctx.failed} of {ctx.attempted})")
    for problem in ctx.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
