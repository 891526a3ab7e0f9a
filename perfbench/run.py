"""dephasim benchmark: three workloads run in-process through ``dephasim.cli.main``.

Run from the root of a checkout (no install needed; the package is imported
from ``src``):

    python3 perfbench/run.py --workload cpmg_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first repeats an
untraced measurement, then wraps every public function of the layer modules
(see ``spans.py``) and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, and the spans of a traced run,
go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

#: One BLAS thread: the workloads' own threads (``--workers``) stay within
#: the machine's two cores, and threaded matrix-vector products in
#: ``dominant_frequency`` no longer spin against them.  Set before numpy is
#: imported, here and in the set-up interpreters, which inherit it.
BLAS_THREADS = {name: "1" for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Set-up is timed this many times, in fresh interpreters, per run.
SETUP_REPEATS = 9
#: Runs hold at least this many succeeded items, so a tail percentile exists.
MIN_ITEMS = 40
#: Share of a traced run spent measuring untraced, for the overhead figure.
UNTRACED_SHARE = 0.4


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help="import the package, write the inputs to DIR and exit")
    return parser.parse_args(argv)


def import_package():
    """Import dephasim from this checkout's src, never from elsewhere."""
    if not (SRC / "dephasim" / "__init__.py").is_file():
        raise SystemExit(f"error: no dephasim package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dephasim.cli
    if Path(dephasim.__file__).resolve().parent != (SRC / "dephasim").resolve():
        raise SystemExit(f"error: imported dephasim from {dephasim.__file__}")
    return dephasim.cli


def make_workload(name: str, seed: int, workdir: Path):
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.prepare()
    return workload


def time_setup(args) -> float:
    """Median wall time of interpreter start, package import and input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        command = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   args.workload, "--seed", str(args.seed), "--setup-only", str(workdir)]
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
        shutil.rmtree(workdir)
    return statistics.median(times)


class Runner:
    """Runs whole cycles of a workload's items through cli.main and times each."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.cycles = 0

    def run_item(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # an uncaught exception is a failed operation
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        return code, err.getvalue()

    def measure(self, seconds: float, min_items: int = 1, tracer=None, io_bytes=None) -> dict:
        """Run whole cycles for ``seconds`` (and ``min_items`` succeeded items)."""
        done, times, cycles, attempted = [], [], [], 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(times) < min_items:
            cycle_times = []
            cpu0, wall0 = time.process_time(), time.perf_counter()
            for item in self.workload.cycle(self.cycles):
                t0 = time.perf_counter()
                if tracer is None:
                    code, stderr = self.run_item(item.argv)
                else:
                    code, stderr = tracer.call("item", self.run_item, item.argv)
                elapsed = time.perf_counter() - t0
                attempted += 1
                if self.workload.succeeded(item, code, stderr):
                    done.append(item)
                    cycle_times.append(elapsed)
                if io_bytes is not None:
                    io_bytes["read"] += sum(p.stat().st_size for p in item.inputs)
                    io_bytes["written"] += sum(p.stat().st_size for p in item.output_files())
            cycles.append({"wall": time.perf_counter() - wall0,
                           "cpu": time.process_time() - cpu0, "times": cycle_times})
            times += cycle_times
            self.cycles += 1
        return {"done": done, "times": times, "cycles": cycles, "attempted": attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def end_to_end(phase: dict, setup_s: float) -> dict:
    """The end-to-end metrics of one untraced phase, as name -> (value, unit)."""
    times = sorted(phase["times"])
    n = len(times)
    wall = sum(c["wall"] for c in phase["cycles"])
    cpu = sum(c["cpu"] for c in phase["cycles"])
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (n / wall, "1/s"),
        "item_s_p50": (statistics.median(times), "s"),
        # the highest percentile with at least ten items beyond it
        "item_s_tail": (times[n - 11], "s"),
        "cpu_s_per_item": (cpu / n, "s"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
    }


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "numpy": numpy.__version__,
            "python": platform.python_version(), "machine": platform.machine(),
            **BLAS_THREADS}


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        import_package()
        make_workload(args.workload, args.seed, Path(args.setup_only))
        return 0

    cli = import_package()
    for directory in (SRC / "dephasim", HERE):
        compileall.compile_dir(str(directory), quiet=1)
    setup_s = None if args.trace else time_setup(args)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = make_workload(args.workload, args.seed, rundir)
        runner = Runner(cli, workload)
        runner.run_item(workload.cycle(-1)[0].argv)  # warm-up, not counted
        if args.trace:
            from spans import Tracer, layer_metrics, module_shares
            untraced = runner.measure(args.seconds * UNTRACED_SHARE)
            tracer, io_bytes = Tracer(), Counter()
            tracer.install()
            try:
                traced = runner.measure(args.seconds * (1 - UNTRACED_SHARE),
                                        tracer=tracer, io_bytes=io_bytes)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            metrics = layer_metrics(tracer, traced["attempted"],
                                    statistics.median(traced["times"]),
                                    statistics.median(untraced["times"]), io_bytes)
            extra = {"module_shares": module_shares(tracer), "spans": tracer.summary()}
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(json.dumps({**extra, "span_records": tracer.span_records()}))
        else:
            phases = [runner.measure(args.seconds, MIN_ITEMS)]
            metrics = end_to_end(phases[0], setup_s)
            extra = {"cycles": [[c["wall"], c["cpu"], c["times"]] for c in phases[0]["cycles"]]}
        problems = [p for phase in phases for item in phase["done"]
                    for p in workload.check(item)]
        problems += workload.final_check(phases[0]["done"], runner.run_item)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(phase["attempted"] for phase in phases)
    failed = attempted - sum(len(phase["done"]) for phase in phases)
    env = environment()
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}, "
          f"correct = {not problems}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, **extra}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
