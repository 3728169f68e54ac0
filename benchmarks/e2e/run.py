"""The repo benchmark: five workloads, an end-to-end table, a per-layer ledger.

Two ways to run it, both from the repo root:

``python3 benchmarks/e2e/run.py --seed 0``
    Runs every workload in its own fresh subprocess — once untraced for the
    end-to-end numbers, once traced (shorter) for the per-layer numbers —
    prints every metric by name and unit, checks the outputs, writes
    ``BENCH_e2e.json`` and exits non-zero if any check failed.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process; the form ``BENCHMARK.json`` names.  The
    last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
    ``--trace 0``, every per-layer metric with ``--trace 1``.

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchspec  # noqa: E402

OUT_DEFAULT = "BENCH_e2e.json"
TRACED_SCALE = 0.5  # the traced run of the all-workloads form is shorter
TRACE_BLOCKS = 3  # a traced run alternates this many untraced and traced blocks
CHILD_TIMEOUT_S = 600


# -- one workload, in this process ----------------------------------------------


def make_workload(name: str, seed: int, scale: float):
    """Import the program under test and build the workload object.

    Returns ``(workload, import_seconds)``; the imports are the first part of
    set-up time, so nothing may import numpy or repro before this."""
    src = benchspec.REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"benchmark needs the program under test at {src}/repro")
    benchspec.pin_threads()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    from repro.tensor import backend

    if name in ("train_conv", "train_seq"):
        import wl_train

        cls = {"train_conv": wl_train.TrainConv, "train_seq": wl_train.TrainSeq}[name]
    elif name in ("ddp_factorized", "ddp_powersgd"):
        import wl_ddp

        cls = {"ddp_factorized": wl_ddp.DdpFactorized, "ddp_powersgd": wl_ddp.DdpPowerSGD}[name]
    else:
        import wl_serve

        cls = wl_serve.ServeLive
    import_s = time.perf_counter() - t0
    backend.set_backend(benchspec.BACKEND)
    return cls(seed, scale), import_s


def plan_ops(name: str, scale: float, seconds: float | None, warm_op_s: float) -> int:
    """Timed operations: what the warm-up rate says fits in ``seconds`` (and
    never fewer than a p90 needs), or, without ``--seconds``, the workload's
    fixed count times ``scale``."""
    if seconds is not None:
        return max(benchspec.MIN_TIMED_OPS, int(seconds / warm_op_s))
    return max(2, round(benchspec.OPS[name]["timed"] * scale))


def block_size(n: int, blocks: int, b: int) -> int:
    return n // blocks + (1 if b < n % blocks else 0)


def measure_per_layer(workload, n_ops: int, seed: int):
    """The traced window: untraced and traced blocks alternate, so that slow
    drift of the machine's speed does not pass for tracing overhead.
    Returns (traced log, metrics, problems, untraced log)."""
    from e2e_common import merge_logs
    from spans import Tracer

    n_untraced = max(1, n_ops // 3)
    n_traced = max(1, n_ops - n_untraced)
    blocks = min(TRACE_BLOCKS, n_untraced, n_traced)
    tracer = Tracer()
    plain, spanned = [], []
    for b in range(blocks):
        plain.append(workload.run_ops(block_size(n_untraced, blocks, b)))
        spanned.append(workload.run_ops(block_size(n_traced, blocks, b), tracer))
    untraced, log = merge_logs(plain), merge_logs(spanned)
    found, problems = workload.layer_metrics(tracer, untraced, log)
    base = workload.end_to_end(untraced)["step_ms_p50"]
    with_spans = workload.end_to_end(log)["step_ms_p50"]
    found["observability.trace_overhead_share"] = (with_spans - base) / base
    problems += tracer.integrity_errors()
    tracer.write(f"BENCH_e2e.{workload.name}.trace.json", workload=workload.name, seed=seed,
                 clock="time.perf_counter seconds")
    declared = benchspec.per_layer()
    unknown = sorted(set(found) - set(declared))
    if unknown:
        problems.append(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A layer that is not on this workload's path reads 0.
    found = {m: found.get(m, 0.0) for m in declared}
    return log, found, problems, untraced


def run_workload(name: str, seed: int, seconds: float | None, scale: float, trace: bool) -> dict:
    workload, import_s = make_workload(name, seed, scale)
    build_s = []
    for repeat in range(benchspec.SETUP_REPEATS):
        if repeat:
            workload.teardown()
        t0 = time.perf_counter()
        workload.setup()
        build_s.append(time.perf_counter() - t0)
    n_ops = plan_ops(name, scale, seconds, workload.warm_op_s)
    try:
        if trace:
            declared = benchspec.per_layer()
            log, found, problems, untraced = measure_per_layer(workload, n_ops, seed)
            attempted, failed = log.attempted + untraced.attempted, log.failed + untraced.failed
        else:
            from e2e_common import peak_rss_mb

            declared = benchspec.bounds_for(name)
            log = workload.run_ops(n_ops)
            attempted, failed, problems = log.attempted, log.failed, []
            found = workload.end_to_end(log)
            found["peak_rss_mb"] = peak_rss_mb()  # before the checks build reference models
            found["setup_s"] = import_s + statistics.median(build_s)
            found["failed_share"] = failed / attempted
        problems += workload.check(log)
    finally:
        workload.teardown()
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": found[m], "unit": declared[m]["unit"]} for m in declared},
        # Beyond the four keys of the BENCHMARK.json contract (--full 1 only):
        "workload": name,
        "traced": trace,
        "problems": problems,
        "samples": len(log.op_s),
        "inputs_digest": workload.inputs_digest,
        "setup_parts_s": {"imports": import_s, "builds": build_s},
        "env": benchspec.environment(seed, scale, seconds),
    }


def print_metrics(result: dict) -> None:
    kind = "per-layer (traced)" if result["traced"] else "end-to-end (untraced)"
    print(f"[{result['workload']}] {kind}: {result['samples']} samples, "
          f"{result['failed']} failed of {result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main_one(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, args.scale, bool(args.trace))
    print_metrics(result)
    if not args.full:
        contract = set(benchspec.end_to_end() if not args.trace else benchspec.per_layer())
        result = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: v for m, v in result["metrics"].items() if m in contract},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, each in a fresh subprocess ----------------------------------


def run_child(workload: str, seed: int, scale: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--scale", str(scale), "--trace", str(trace), "--full", "1"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        return json.loads(lines[-1])
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        problem = f"no result within {CHILD_TIMEOUT_S} s"
    except json.JSONDecodeError:
        problem = f"exit code {proc.returncode}, no result: {lines[-1]}"
    print(f"[{workload}] {problem}", flush=True)
    return {"correct": False, "problems": [problem], "metrics": {}, "attempted": 0, "failed": 0}


def main_all(args) -> int:
    names = benchspec.workload_names()
    runs = []
    for seed in args.seeds or [args.seed]:
        workloads = {}
        for name in names:
            untraced = run_child(name, seed, args.scale, trace=0)
            traced = run_child(name, seed, args.scale * TRACED_SCALE, trace=1)
            bounds = benchspec.bounds_for(name)
            workloads[name] = {
                "correct": untraced["correct"] and traced["correct"],
                "attempted": untraced["attempted"],
                "failed": untraced["failed"],
                "samples": untraced.get("samples", 0),
                "problems": untraced["problems"] + traced["problems"],
                "inputs_digest": untraced.get("inputs_digest"),
                "end_to_end": {
                    m: {**v, "better": bounds[m]["better"], "bound": bounds[m]["bound"]}
                    for m, v in untraced["metrics"].items()
                },
                "per_layer": traced["metrics"],
            }
        runs.append({"seed": seed, "env": untraced.get("env"), "workloads": workloads})
    Path(args.out).write_text(json.dumps({"schema": 1, "runs": runs}, indent=1))
    bad = [f"seed {r['seed']} {n}" for r in runs for n, w in r["workloads"].items()
           if not w["correct"]]
    print(f"wrote {args.out}: {len(runs)} run(s) of {len(names)} workload(s); "
          + (f"FAILED: {', '.join(bad)}" if bad else "every check passed"))
    return 1 if bad else 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=benchspec.workload_names(),
                   help="run this one workload in this process (the BENCHMARK.json form)")
    p.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, default=None,
                   help="with --workload: length of the timed window, in place of the "
                        "workload's fixed count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="common factor on every workload's warm-up, probe and fixed timed counts")
    p.add_argument("--full", type=int, choices=(0, 1), default=0,
                   help="with --workload: keep every field in the final JSON line")
    p.add_argument("--seeds", type=int, nargs="+",
                   help="all-workloads form: one full run per seed into the same file")
    p.add_argument("--out", default=OUT_DEFAULT)
    args = p.parse_args(argv)
    if args.seconds is not None and not args.workload:
        p.error("--seconds needs --workload; the all-workloads form runs the fixed counts")
    return args


if __name__ == "__main__":
    cli = parse_args()
    sys.exit(main_one(cli) if cli.workload else main_all(cli))
