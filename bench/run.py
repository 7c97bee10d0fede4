"""Benchmark of zeroflow's three routes to the zeros, from one process.

    python3 bench/run.py --workload flow|newton|oracle|heat --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it describe the run, and the whole result
goes to ``bench/out/``.  See bench/README.md.
"""

import os
import sys
import time

T0 = time.perf_counter()
# one BLAS/OpenMP thread, set before numpy loads: the first dense solve would
# otherwise spend about 0.7 s starting OpenBLAS threads on a 2-core machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)
SETUP_SAMPLES = 7  # this process plus six fresh ones


def _import_zeroflow():
    """Import the package from the checkout's own src/, never from an
    installed copy; exit without a result when it is not there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    try:
        import zeroflow
    except ImportError as exc:
        sys.exit(f"bench: cannot import zeroflow from {src}: {exc}")
    if not os.path.abspath(zeroflow.__file__).startswith(src + os.sep):
        sys.exit(f"bench: zeroflow came from {zeroflow.__file__}, not {src}")
    return time.perf_counter() - start


IMPORT_S = _import_zeroflow()

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _setup(args):
    """Inputs and one untimed warm-up call per code path.  A traced run
    sets up every workload, since it reports every layer."""
    names = sorted(workloads.WORKLOADS) if args.trace else [args.workload]
    loads = {name: workloads.WORKLOADS[name](args.seed) for name in names}
    for load in loads.values():
        for case in load.warmup:
            case.call()
    return loads


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []

    def run(self, case, timed_call):
        """Attempt one case; return its timed seconds, or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = timed_call()
            elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=3))
            return None
        try:
            reason = case.check(result)
        except Exception:  # noqa: BLE001 - an answer the check cannot read is wrong
            reason = traceback.format_exc(limit=3)
        if reason is not None:
            self.failed += 1
            self.wrong += 1
            self.failures.append(f"{type(case).__name__} n={case.n}: {reason}")
            return None
        return elapsed


def _pass(load, index, tally, tracer=None):
    """One whole pass; returns (verified ops, timed seconds of those ops)."""
    ops, busy = 0, 0.0
    for case in load.cases_for_pass(index):
        call = case.call if tracer is None else (lambda c=case: c.trace(tracer))
        elapsed = tally.run(case, call)
        if elapsed is not None:
            ops += 1
            busy += elapsed
    return ops, busy


def _setup_samples(args):
    """Set-up and import times of fresh processes, run one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def main(argv=None):
    args = _parse_args(argv)
    loads = _setup(args)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": IMPORT_S}))
        return 0

    tally = Tally()
    load = loads[args.workload]
    tracer = workloads.Tracer() if args.trace else None
    ops_total, busy_total, plain_s, traced_s, rates = 0, 0.0, [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    index = 0
    while True:
        if args.trace:
            # untraced and traced passes alternate, so that their ratio is
            # the tracing overhead under the same conditions; each draws its
            # own inputs, since oracle_zeros would answer a repeat from cache
            ops, busy = _pass(load, 2 * index, tally)
            plain_s.append(busy)
            ops, busy = _pass(load, 2 * index + 1, tally, tracer)
            traced_s.append(busy)
        else:
            ops, busy = _pass(load, index, tally)
        ops_total += ops
        busy_total += busy
        rates.append(_ratio(ops, busy))
        index += 1
        if time.perf_counter() - wall0 >= args.seconds:
            break
    if args.trace:
        # one traced pass of every other workload fills the remaining layers
        for name, other in loads.items():
            if name != args.workload:
                _pass(other, 0, tally, tracer)
    wall = time.perf_counter() - wall0
    cpu_per_wall = (time.process_time() - cpu0) / wall

    extra = _setup_samples(args)
    setups = [setup_s] + [s["setup_s"] for s in extra]
    imports = [IMPORT_S] + [s["import_s"] for s in extra]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        layers = workloads.layer_metrics(tracer)
        layers.update(workloads.layer_calls(args.seed))
        layers["zeroflow.import_s"] = float(np.median(imports))
        layers["trace.ops_per_s"] = _ratio(ops_total, busy_total)
        layers["trace.slowdown"] = _ratio(sum(traced_s), sum(plain_s))
        layers["process.cpu_per_wall"] = cpu_per_wall
        values, declared = layers, DECLARED["per_layer"]
    else:
        values = {
            "ops_per_s": _ratio(ops_total, busy_total),
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = DECLARED["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        sys.exit(f"bench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": index, "verified_ops": ops_total, "busy_s": busy_total, "pass_rates": rates,
        "setup_s_samples": setups, "import_s_samples": imports,
        "cpu_per_wall": cpu_per_wall, "environment": _environment(),
        "failures": tally.failures[:20],
    }  # fmt: skip
    if tracer is not None:
        details["spans"] = tracer.spans
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump({"result": result, "details": details}, fh)

    for failure in tally.failures[:5]:
        print(f"# failed: {failure.strip()}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={index} wall={wall:.2f}s "
          f"cpu/wall={cpu_per_wall:.3f} threads={details['environment']['threads']} "
          f"cpus={os.cpu_count()} blas={details['environment']['blas']}")  # fmt: skip
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0



if __name__ == "__main__":
    sys.exit(main())
