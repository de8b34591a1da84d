"""Benchmark of the mmtc_outage library, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload (timed from process start as ``setup_s``), runs whole
rounds of its operations until ``--seconds`` have passed, checks the first
round's outputs against computations made apart from the program and every
later round against the first, and prints one JSON object as the last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the first round runs
untraced and later rounds run with spans around the library's public
functions, and the metrics are the per-layer ones.  A JSON record of each
run (per-operation times, check faults, reference figures, spans) goes to
``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("greedy_desk", "cf_report_desk", "series_error_sweep")


def _age_at_start() -> float:
    """Seconds from process start to this module's first statement (the
    interpreter's own start-up), read from /proc at clock-tick resolution;
    0 where /proc is unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK") - (time.perf_counter() - _T0))


_STARTUP = _age_at_start()


def _limit_threads() -> int:
    """Cap BLAS and OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(cpus)
    return cpus


def _reference_seconds(np, grid) -> float:
    """Time of a fixed kernel mixing numpy transforms and interpreted loops,
    like the library's own work.  Timed before every round and after the
    last, it tracks the host's speed, which on a shared machine drifts by
    10-20% over tens of seconds."""
    t0 = time.perf_counter()
    for _ in range(32):
        np.fft.irfft(np.exp(1j * grid), n=1 << 16)
    acc = 0
    for i in range(320_000):
        acc += i & 7
    return time.perf_counter() - t0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _import_library():
    """Import mmtc_outage from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mmtc_outage" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import mmtc_outage

    if Path(mmtc_outage.__file__).resolve().parent != (src / "mmtc_outage").resolve():
        raise SystemExit(f"error: mmtc_outage imported from {mmtc_outage.__file__}, not {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    cpus = _limit_threads()
    _import_library()
    import numpy
    import scipy

    import tracer as tracer_mod
    import workloads

    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
        tracer.enabled = True
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setup_s = _STARTUP + time.perf_counter() - _T0

    grid = numpy.linspace(0.0, 1000.0, 1 << 14)
    rounds = []  # (round seconds, {op: seconds}, {op: output}, traced)
    start = time.perf_counter()
    reference = [_reference_seconds(numpy, grid)]
    while True:
        traced = tracer is not None and bool(rounds)
        if tracer is not None:
            tracer.enabled = traced
            tracer.phase = "round"
        times, outputs = {}, {}
        r0 = time.perf_counter()
        for op in workload.ops:
            t0 = time.perf_counter()
            outputs[op] = workload.run_op(op)
            times[op] = time.perf_counter() - t0
        rounds.append((time.perf_counter() - r0, times, outputs, traced))
        reference.append(_reference_seconds(numpy, grid))
        # stop before a round that would end past --seconds
        typical = statistics.median(r[0] for r in rounds) + statistics.median(reference)
        done = time.perf_counter() - start + typical > args.seconds
        if done and (tracer is None or len(rounds) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False

    faults, figures = workload.check(rounds[0][2])
    failing = {op for op, found in faults.items() if found}
    failed = 0
    for _, _, outputs, _ in rounds:
        for op in workload.ops:
            if op in failing:
                failed += 1
            elif not workload.same(rounds[0][2][op], outputs[op]):
                failed += 1
                faults.setdefault(op, []).append(f"{op}: output differs between rounds")
    attempted = len(workload.ops) * len(rounds)

    untraced = [r for r in rounds if not r[3]]
    traced_rounds = [r for r in rounds if r[3]]
    if args.trace:
        op_figures = workload.op_metrics(untraced[0][1])
        metrics = {name: (op_figures.get(name, 0.0), unit) for name, unit in OP_UNITS.items()}
        for name, value in tracer.layer_metrics(len(traced_rounds)).items():
            metrics[name] = (value, _layer_unit(name))
        plain = statistics.median(r[0] for r in untraced)
        with_spans = statistics.median(r[0] for r in traced_rounds)
        for name, value in (
            ("trace.untraced_round_s", plain),
            ("trace.traced_round_s", with_spans),
            ("trace.overhead_pct", 100.0 * (with_spans / plain - 1.0)),
        ):
            metrics[name] = (value, _layer_unit(name))
    else:
        # each round in units of the reference kernel timed around it
        relative = [
            r[0] / (0.5 * (reference[k] + reference[k + 1])) for k, r in enumerate(rounds)
        ]
        values = {
            "setup_s": setup_s,
            "round_rel": statistics.median(relative),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": cpus,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "rounds": [{"seconds": s, "ops": t, "traced": tr} for s, t, _, tr in rounds],
        "reference_s": reference,
        "faults": {op: found for op, found in faults.items() if found},
        "figures": figures,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer is not None:
        record.update(tracer.dump())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=_plain) + "\n", encoding="utf-8")

    for op, found in record["faults"].items():
        for fault in found:
            print(f"FAULT {fault}", file=sys.stderr)
    per_op = {op: statistics.median(r[1][op] for r in rounds) for op in workload.ops}
    print(json.dumps({
        "round_median_s": statistics.median(r[0] for r in rounds),
        "per_op_median_s": per_op,
        "record": str(out_file.relative_to(ROOT)),
    }))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


E2E_UNITS = {"setup_s": "s", "round_rel": "ratio", "peak_rss_mb": "MB"}

# per-operation times of the untraced first round of a traced run
OP_UNITS = {
    "greedy_single_s": "s",
    "greedy_multiple_s": "s",
    "cf_report_single_s": "s",
    "cf_report_multiple_s": "s",
    "mc_draws_per_s": "1/s",
    "error_sweep_s": "s",
    "cdf_compare_s": "s",
}


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("allocation.sweeps", "allocation.candidates",
                                           "outage.cf.pairs", "outage.mc.draws"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_pct"):
        return "%"
    return "s"


def _plain(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__}")


if __name__ == "__main__":
    sys.exit(main())
