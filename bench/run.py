"""wavedens benchmark: fit-100k, sweep-desk and eval-10k.

Run from the repository root:

    python3 bench/run.py --workload fit-100k --seed 20240901 --seconds 38 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each
    python3 bench/run.py --workload all --smoke --seconds 1    # seconds-long smoke run

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics from a run whose
timed operations alternate between traced and untraced.  The line before it holds
provenance, the workload's named metrics and any failure messages.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 20240901
WORKLOAD_NAMES = ("fit-100k", "sweep-desk", "eval-10k")
# set-up repeats at least this often and this long; its median is setup_s
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0
# the first operation of a run warms the process up (allocator, page tables,
# lazily built tables) and measures peak heap; it is checked but not timed.
# At least this many operations are timed after it
WARMUP_OPS = 1
MIN_TIMED_OPS = 3
END_TO_END_UNITS = {"setup_s": "s", "peak_heap_mb": "MiB", "success_rate": "ratio", "op_s": "s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0, help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; skips the reference comparison")
    parser.add_argument("--out", default=None, help="also write the result, with provenance, to this JSON file")
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this run's outputs as the reference for the default seed",
    )
    return parser.parse_args(argv)


def provenance(args) -> dict:
    def read(path, default="unknown"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    cpu_model = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    commit = "unknown"
    head = read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        commit = read(ROOT / ".git" / head[5:])
    elif head != "unknown":
        commit = head
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
    }


def metric_units() -> tuple[dict, dict]:
    """End-to-end and per-layer units, checked against BENCHMARK.json."""
    from tracing import per_layer_units

    layers = per_layer_units()
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        declared = (
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
        )
        if declared != (END_TO_END_UNITS, layers):
            raise SystemExit("BENCHMARK.json metrics do not match the ones bench/run.py reports")
    return END_TO_END_UNITS, layers


@contextlib.contextmanager
def heap_peak(peaks: list):
    """Append the peak bytes that Python and numpy held allocated in the block.

    tracemalloc slows allocation-heavy code, so only the untimed warm-up runs
    under it.  Unlike peak RSS, which moves by several MiB between runs of
    one input with where huge pages land, this peak repeats exactly.
    """
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up several times, then run operations for about ``seconds``.

    Operations run back to back and stop at the operation boundary nearest
    to ``seconds`` of operation time, the warm-up included, once at least
    ``MIN_TIMED_OPS`` have been timed.  In a traced run every other timed
    operation (the first included) is traced, so that traced and untraced
    wall times come from the same run.
    """
    from tracing import TOP_LEVEL, Tracer, layer_metrics

    tracer = Tracer()
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_SECONDS:
        tracer.op = ("setup", len(setup_times))
        t0 = time.perf_counter()
        with tracer if trace else contextlib.nullcontext():
            workload.setup()
        setup_times.append(time.perf_counter() - t0)

    ops = []  # (wall seconds, traced, per-call seconds or None), warm-up first
    heap_peaks = []
    attempted = failed = 0
    messages = []

    def more() -> bool:
        timed = len(ops) - WARMUP_OPS
        if timed < MIN_TIMED_OPS:
            return True
        walls = [op[0] for op in ops]
        # only operation time counts towards ``seconds``; the checks run outside it
        return sum(walls) + median(walls[WARMUP_OPS:]) / 2 < seconds

    while more():
        timed = len(ops) - WARMUP_OPS
        traced = trace and timed >= 0 and timed % 2 == 0
        tracer.op = timed
        t0 = time.perf_counter()
        timings = None
        try:
            with tracer if traced else contextlib.nullcontext(), (
                heap_peak(heap_peaks) if timed < 0 else contextlib.nullcontext()
            ):
                timings, outputs = workload.operation()
            wall = time.perf_counter() - t0
            n, failures = workload.check(outputs)
        except Exception:  # an operation or check that raises is a failure
            wall = time.perf_counter() - t0 if timings is None else wall
            n, failures = 1, [traceback.format_exc()]
        ops.append((wall, traced, timings))
        attempted += n
        failed += min(n, len(failures))
        messages += failures
    missing_reference = workload.reference_failures()
    messages += missing_reference
    attempted += len(missing_reference)
    failed += len(missing_reference)

    warmup, ops = ops[:WARMUP_OPS], ops[WARMUP_OPS:]
    untraced = [op for op in ops if not op[1]]
    timings = [op[2] for op in untraced if op[2] is not None]
    result = {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "warmup_walls": [op[0] for op in warmup],
        "op_walls": [op[0] for op in ops],
        "op_timings": [op[2] for op in ops],
        "setup_times": setup_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "named_metrics": workload.named_metrics(timings) if timings else {},
        "end_to_end": {
            "setup_s": median(setup_times),
            "peak_heap_mb": median(heap_peaks) / 2**20,
            "success_rate": 1.0 - failed / attempted,
            "op_s": median(op[0] for op in untraced),
        },
    }
    if trace:
        traced_ops = [i for i, op in enumerate(ops) if op[1]]
        summaries = [tracer.op_summary(i) for i in traced_ops]
        setup_summaries = [tracer.op_summary(("setup", rep)) for rep in range(len(setup_times))]
        layers = layer_metrics(summaries, setup_summaries)
        missing = [
            name for name in workload.expected_spans
            if layers[f"{name}.calls"] == 0
        ]
        traced_wall = median(ops[i][0] for i in traced_ops)
        untraced_wall = result["end_to_end"]["op_s"]
        unattributed = median(ops[i][0] - s[TOP_LEVEL]["s"] for i, s in zip(traced_ops, summaries))
        layers.update(
            {
                "trace.ops": float(len(traced_ops)),
                "trace.missing_spans": float(len(missing)),
                "trace.unattributed_s": unattributed,
                "trace.unattributed_share": unattributed / traced_wall,
                "trace.overhead_s": traced_wall - untraced_wall,
                "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
            }
        )
        result["per_layer"] = layers
        result["missing_spans"] = missing
    return result


def run_one(args) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "wavedens" / "__init__.py").is_file():
        print(f"error: no wavedens sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import wavedens

    if Path(wavedens.__file__).resolve().parent != (src / "wavedens").resolve():
        print(f"error: imported wavedens from {wavedens.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    end_units, layer_units = metric_units()
    default_inputs = args.seed == DEFAULT_SEED and not args.smoke
    if args.write_reference and not default_inputs:
        print("error: references are stored for the default seed without --smoke", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / f"_work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](
            args.seed, args.smoke, workdir, default_inputs and not args.write_reference
        )
        result = measure(workload, args.seconds, bool(args.trace))
        if args.write_reference and result["failed"] == 0:
            workload.write_reference()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in result["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    for name in result.get("missing_spans", ()):
        print(f"trace: expected span {name} never fired", file=sys.stderr)
    values, units = (result["per_layer"], layer_units) if args.trace else (result["end_to_end"], end_units)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "provenance": provenance(args),
        "named_metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["named_metrics"].items()
        },
        "warmup_walls_s": result["warmup_walls"],
        "op_walls_s": result["op_walls"],
        "op_calls_s": result["op_timings"],
        "setup_runs_s": result["setup_times"],
        "peak_rss_mb": result["peak_rss_mb"],
        "missing_spans": result.get("missing_spans", []),
        "failures": result["messages"][:20],
    }
    if args.out:
        Path(args.out).write_text(json.dumps({**detail, "result": line}, indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        detail, line = json.loads(lines[-2]), json.loads(lines[-1])
        details[name] = {**detail, "result": line}
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        shown = {
            **detail["named_metrics"],
            "peak_rss_mb": {"value": detail["peak_rss_mb"], "unit": "MiB"},
            **line["metrics"],
        }
        for metric, entry in shown.items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"{name:<11} {metric:<52} {entry['value']:>14.6g} {entry['unit']}")
        status = "ok" if line["correct"] else f"FAILED {line['failed']}/{line['attempted']}"
        print(f"{name:<11} {'checks':<52} {status:>14}")
    if args.out:
        Path(args.out).write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
