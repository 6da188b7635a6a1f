#!/usr/bin/env python3
"""lifshitz-lab benchmark: ensemble throughput of `lifshitz_lab.experiments.run`.

    python3 perfbench/run.py --workload ids_compact_d2 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --smoke               # tiny sizes, metric names only

Run from a source checkout; the package is imported from ../src.  One run:

1. Warm-up batch at the reference seed, compared with reference/<workload>.json.
2. Timed batches (closed loop, one driver call after another) at seeds derived
   from --seed, with tracing off and threads=1, for --seconds.  With --trace 1
   the time is split three ways: untraced threads=1, traced threads=1 (spans
   and counters from tracing.py) and untraced threads=2; artifacts of equal
   seeds must be byte-identical across the three.
3. One batch at --seed recounted independently (checks.independent).
4. With --trace 0, set-up time measured in fresh processes.

Every timing is taken between two passes of a fixed calibration kernel
(calibrate.py) and reported at the reference host speed: time over the mean
of the two passes, times REF_PASS_S.  The shared host's own speed drifts by
up to 1.5x; this ratio does not.  Wall-clock rates and the pass times are in
the results file, and the per-layer set reports `raw.units_per_s` and
`host.pass_s`.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1,
as listed in BENCHMARK.json).  A full record with the environment goes to
.perfbench/results/, spans of a traced run to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

# BLAS and OpenMP pools are pinned before numpy is first imported, here and in
# every child process: with two OpenBLAS threads on a 2-core machine the same
# run read 7.8 s and 6.4 s, against 5.8 s and 5.6 s with one.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99, 90, 75)

sys.path.insert(0, HERE)
from calibrate import REF_PASS_S, Probe  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def batch_seed(seed: int, index: int) -> int:
    """Seed of the index-th timed batch; never the reference seed."""
    return ((int(seed) << 20) + index + 1) % 2**63


class Run:
    """One workload run: batches, checks and their accounting."""

    def __init__(self, wl, size: str, work: str, probe: Probe):
        from lifshitz_lab.config import parse_config
        from lifshitz_lab.experiments import run

        self.wl, self.size, self.work, self.probe = wl, size, work, probe
        self._parse, self._run = parse_config, run
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}  # batch seed -> artifact digest of its first run

    def check(self, label: str, fn, *args, ops: int = 1) -> bool:
        """Count `ops` operations, all failed if fn(*args) lists problems or raises."""
        try:
            problems = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a broken artifact is a failed check
            problems = [f"raised {exc!r}"]
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems

    def batch(self, seed: int, threads: int, out: str, tracer=None) -> tuple[float, bool]:
        """Run one driver call; return its wall time and whether its checks held.

        Output checks are untimed."""
        from checks import digest, sanity

        config = self._parse(self.wl.config(self.size, seed))
        label = f"seed {seed} threads {threads}"
        t0 = perf_counter()
        try:
            if tracer is None:
                result = self._run(config, out_dir=out, threads=threads)
            else:
                with tracer.span("experiments.run"):
                    result = self._run(config, out_dir=out, threads=threads)
        except Exception as exc:  # noqa: BLE001 - a failed batch is counted, not fatal
            wall = perf_counter() - t0
            self.check(label, lambda: [f"raised {exc!r}"], ops=self.wl.units(self.size))
            return wall, False
        wall = perf_counter() - t0
        ok = self.check(label, sanity, self.wl, self.size, result, out,
                        ops=self.wl.units(self.size))
        d = digest(out)
        if seed in self.digests:
            ok &= self.check(f"{label} artifacts", lambda: [] if d == self.digests[seed] else
                             ["differ from an earlier run of this seed"])
        self.digests.setdefault(seed, d)
        return wall, ok

    def phase(self, name: str, seed: int, threads: int, budget: float, tracer=None) -> dict:
        """Closed loop of batches for about `budget` seconds (at least one).

        A calibration pass (calibrate.py) is timed before the first batch and
        after each one; a batch's cost is its wall time over the mean of the
        passes on either side of it."""
        walls, good, passes = [], [], [self.probe.pass_seconds()]
        t_end = perf_counter() + budget
        while True:
            out = os.path.join(self.work, f"{name}-{len(walls)}")
            wall, ok = self.batch(batch_seed(seed, len(walls)), threads, out, tracer)
            passes.append(self.probe.pass_seconds())
            walls.append(wall)
            if ok:
                good.append((wall, wall / ((passes[-2] + passes[-1]) / 2.0)))
            if name != "timed" or len(walls) > 1:  # timed-0 feeds the independent recount
                shutil.rmtree(out, ignore_errors=True)
            if perf_counter() + statistics.median(walls) + passes[-1] > t_end:
                break
        units = self.wl.units(self.size)
        good = good or [(w, w / statistics.median(passes)) for w in walls]  # all failed
        # The host's speed drifts by up to 1.5x over minutes (see calibrate.py);
        # the median cost in calibration passes, times REF_PASS_S, does not.
        cost = statistics.median(c for _, c in good) * REF_PASS_S
        return {"batches": len(walls), "units": units * len(walls), "wall_s": sum(walls),
                "units_per_s": units / cost,
                "raw_units_per_s": units / statistics.median(w for w, _ in good),
                "pass_s": passes, "batch_s": walls}


def setup_seconds(config_path: str, probe: Probe) -> tuple[float, list, list]:
    """Median over fresh processes of import + load_config + validate, each
    at the reference host speed (see `Run.phase`).

    Also returns each process's wall time and the calibration passes."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "import lifshitz_lab\n"
            f"errors = [d for d in lifshitz_lab.validate(lifshitz_lab.load_config({config_path!r}))"
            " if d.severity == 'error']\n"
            "if errors:\n"
            "    raise SystemExit(f'invalid config: {errors}')\n"
            "print(time.perf_counter() - t0)\n")
    times, passes = [], [probe.pass_seconds()]
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
        passes.append(probe.pass_seconds())
    scaled = [t / ((a + b) / 2.0) * REF_PASS_S for t, a, b in zip(times, passes, passes[1:])]
    return statistics.median(scaled), times, passes


def _git_sha() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"blas_env": BLAS_ENV, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": openblas,
            "git_sha": _git_sha()}


def unit_percentiles(latencies: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(latencies)
    tail = next((q for q in TAIL_PERCENTILES if n * (100 - q) / 100 >= 10), 50)
    return {"unit.p50_s": (float(np.percentile(latencies, 50)) if n else 0.0, "s"),
            "unit.tail_s": (float(np.percentile(latencies, tail)) if n else 0.0, "s"),
            "unit.tail_pct": (tail, "%"),
            "unit.samples": (n, "count")}


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "lifshitz_lab")):
        print(f"error: no package source at {SRC}; run from a lifshitz-lab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from checks import compare, independent, load_reference, summarize

    wl = WORKLOADS[args.workload]
    work = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    try:
        # one CPU for the batches and the calibration passes (calibrate.Probe)
        os.sched_setaffinity(0, {cpu})
        with Probe(cpu) as probe:
            bench = Run(wl, args.size, work, probe)
            warm = os.path.join(work, "warmup")
            bench.batch(REFERENCE_SEED, 1, warm)  # untimed; fills caches
            bench.check("reference", lambda: compare(load_reference(wl, args.size),
                                                     summarize(wl, args.size, warm)))
            metrics, tracer, traced_rate, setup_runs = {}, None, None, {}
            if args.trace:
                from tracing import Tracer

                third = args.seconds / 3.0
                base = bench.phase("timed", args.seed, 1, third)
                tracer = Tracer()
                with tracer.patched():
                    traced = bench.phase("traced", args.seed, 1, third, tracer)
                os.sched_setaffinity(0, cpus)
                two = bench.phase("threads2", args.seed, 2, third)
                os.sched_setaffinity(0, {cpu})
                phases = {"timed": base, "traced": traced, "threads2": two}
                traced_rate = traced["units"] / traced["wall_s"]
                metrics.update(tracer.layer_metrics(traced["units"]))
                metrics.update(unit_percentiles(tracer.unit_latencies()))
                metrics["runner.speedup_2t"] = (two["units_per_s"] / base["units_per_s"], "ratio")
                metrics["trace.units_per_s"] = (traced["units_per_s"], "1/s")
                metrics["trace.overhead_frac"] = (
                    base["units_per_s"] / traced["units_per_s"] - 1.0, "ratio")
                metrics["raw.units_per_s"] = (base["raw_units_per_s"], "1/s")
                metrics["host.pass_s"] = (statistics.median(base["pass_s"]), "s")
            else:
                base = bench.phase("timed", args.seed, 1, args.seconds)
                phases = {"timed": base}
            bench.check("independent", independent, wl, args.size, batch_seed(args.seed, 0),
                        os.path.join(work, "timed-0"), work)
            if not args.trace:
                config_path = os.path.join(work, "config.json")
                with open(config_path, "w", encoding="utf-8") as fh:
                    json.dump(wl.config(args.size, args.seed), fh)
                metrics["units_per_s"] = (base["units_per_s"], "1/s")
                setup, setup_runs["probe_s"], setup_runs["pass_s"] = setup_seconds(
                    config_path, probe)
                metrics["setup_s"] = (setup, "s")
                metrics["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
                metrics["ok_frac"] = (1.0 - bench.failed / bench.attempted, "ratio")
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)

    record = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    env = environment()
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "workload": wl.name, "seed": args.seed, "size": args.size,
                   "seconds": args.seconds, "phases": phases,
                   "setup": setup_runs, "problems": bench.problems,
                   "environment": env}, fh, indent=2)
    if tracer is not None:
        tracer.write(os.path.join(STATE, "spans", f"{stem}.jsonl"))
    for p in bench.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} trace={args.trace} batches={base['batches']} "
          f"failed_frac={bench.failed / bench.attempted:.4g} "
          f"raw_units_per_s={base['raw_units_per_s']:.6g} "
          f"pass_s={statistics.median(base['pass_s']):.4g} "
          f"env={json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        # a layer's self time per unit over the traced phase's time per unit
        share = (f"  {value * traced_rate:6.1%} of traced time"
                 if unit == "s/unit" else "")
        print(f"# {name:28s} {value:14.6g} {unit}{share}")
    print(json.dumps(record))
    return 0


def _child(workload: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every workload in its own process; one table of metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        rec = _child(name, args.seed, args.seconds, args.trace, args.size)
        total["correct"] &= rec["correct"]
        total["attempted"] += rec["attempted"]
        total["failed"] += rec["failed"]
        print(f"# {name}: failed_frac = {rec['failed'] / rec['attempted']:.4g} "
              f"({rec['failed']} of {rec['attempted']})")
        for metric, m in rec["metrics"].items():
            print(f"#   {metric:28s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def smoke() -> int:
    """Tiny sizes: every workload emits every metric of BENCHMARK.json with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            rec = _child(name, 1, 1, trace, "smoke")
            got = {k: m["unit"] for k, m in rec["metrics"].items()}
            ok = rec["correct"] and got == want[trace]
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={trace} correct={rec['correct']}"
                  + ("" if got == want[trace] else
                     f" emitted {sorted(got.items())}, expected {sorted(want[trace].items())}"))
    print(f"smoke: {2 * len(WORKLOADS) - bad} of {2 * len(WORKLOADS)} runs ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at its smoke size and check metric names")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
