"""raycells benchmark: seeded one-client closed-loop workloads.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Run from the repository root or anywhere else; the repository is found
from this file's location. One process starts a local Ray with
``num_cpus`` = nproc, then runs one job at a time: each job calls the
engine's public functions and its output is checked against a reference
computed in the driver without Ray.

``--trace 0`` sets up the named workload three times (Ray start + input
generation + one checked warm-up job, each from a fresh Ray), then times
jobs for ``--seconds`` and prints the end-to-end metrics.

``--trace 1`` sets up all three workloads once, times the named workload
untraced for ``--seconds``, then runs every workload once more stage by
stage with each stage materialized and timed, plus single-layer
measurements in the driver, and prints the per-layer metrics. Spans go
to ``.perfbench_work/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; everything else, Ray's logs
included, goes to standard error. Metric names and units come from
``BENCHMARK.json``. Inputs, outputs and Ray's session files live under
``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 3
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 165.0  # every job must end within this many seconds of start
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX paths are limited to 107 bytes; Ray adds about 64 to its temp dir
_RAY_SOCKET_SUFFIX = 64


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS when set, else the CPUs
    this process may run on."""
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", ""))
        if n > 0:
            return n
    except ValueError:
        pass
    return len(os.sched_getaffinity(0))


def start_ray(ncpu: int) -> None:
    import ray
    import ray.data

    # workers import raycells from the repository root whatever the
    # working directory; the env var is inherited through the raylet
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path else "")
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    kw = {}
    tmp = os.path.join(WORK, "ray")
    if len(tmp) + _RAY_SOCKET_SUFFIX <= 107:
        kw["_temp_dir"] = tmp
    else:
        print(f"perfbench: {tmp} too long for Ray's sockets; using Ray's default "
              "temp dir", file=sys.stderr)
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES, **kw)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray").setLevel(logging.ERROR)


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    from procs import ProcTree, wait_gone

    if not ray.is_initialized():
        return
    started = [p for p in ProcTree().pids() if p != os.getpid()]
    ray.shutdown()
    killed = wait_gone(started, timeout=15.0)
    if killed:
        print(f"perfbench: killed {len(killed)} processes left after ray.shutdown",
              file=sys.stderr)


class Runner:
    """Runs jobs one at a time, with a time limit each, and counts them."""

    def __init__(self, t_start: float):
        from procs import ProcTree

        signal.signal(signal.SIGALRM, _on_alarm)
        self.deadline = t_start + RUN_BUDGET_S
        self.tree = ProcTree()
        self.attempted = 0
        self.failed = 0
        self.timed_out = False

    def _limit(self) -> float:
        return max(0.5, min(JOB_TIMEOUT_S, self.deadline - time.perf_counter()))

    def call(self, label: str, fn):
        """Run ``fn()`` as one attempted job under the time limit. Returns
        its result, or None after counting the failure."""
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, self._limit())
        try:
            return fn()
        except JobTimeout:
            self.timed_out = True
            print(f"perfbench: {label} timed out", file=sys.stderr)
        except Exception:
            print(f"perfbench: {label} raised", file=sys.stderr)
            traceback.print_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.failed += 1
        return None

    def job(self, wl, measure: bool = False):
        """One checked job of workload ``wl``. Returns a sample dict
        (wall, ok, and with ``measure`` cpu and rss) or None if the job
        raised or timed out."""
        from procs import cpu_delta

        if measure:
            self.tree.reset_peaks()
            cpu0 = self.tree.cpu()
        t0 = time.perf_counter()
        res = self.call(f"{wl.name} job", wl.job)
        if res is None:
            return None
        sample = {"wall": time.perf_counter() - t0}
        if measure:
            sample["cpu"] = cpu_delta(cpu0, self.tree.cpu())
            sample["rss"] = self.tree.peak_rss_mb()
        try:
            sample["ok"] = bool(wl.check(res))
        except Exception:
            traceback.print_exc()
            sample["ok"] = False
        wl.cleanup(res)
        if not sample["ok"]:
            print(f"perfbench: {wl.name} output check failed", file=sys.stderr)
            self.failed += 1
        return sample

    def loop(self, wl, seconds: float) -> list:
        """Closed loop: the next job starts when the previous one ends,
        until ``seconds`` have passed."""
        samples = []
        t_end = time.perf_counter() + seconds
        last = 0.0
        while time.perf_counter() < t_end and not self.timed_out:
            if time.perf_counter() + 2 * last + 1 > self.deadline:
                break
            s = self.job(wl, measure=True)
            if s is not None:
                samples.append(s)
                last = s["wall"]
        return samples


def _median(samples: list, key: str) -> float:
    good = [s[key] for s in samples if s["ok"]] or [s[key] for s in samples]
    return float(statistics.median(good)) if good else 0.0


def make_workload(name: str, seed: int, size: str, ncpu: int):
    from workloads import WORKLOADS

    return WORKLOADS[name](os.path.join(WORK, name), seed, size, ncpu)


def run_untraced(args, runner: Runner, ncpu: int) -> dict:
    wl = make_workload(args.workload, args.seed, args.size, ncpu)
    setups = []
    for rep in range(SETUP_REPS):
        stop_ray()
        shutil.rmtree(wl.work_dir, ignore_errors=True)
        t0 = time.perf_counter()
        start_ray(ncpu)
        wl.generate()
        t2 = time.perf_counter()
        if rep == 0:
            wl.prepare_reference()  # same seed, same inputs: compute once
        warm = runner.job(wl)
        setups.append(t2 - t0 + (warm["wall"] if warm else 0.0))
        print(f"perfbench: setup {rep}: {setups[-1]:.2f} s (ray+gen {t2 - t0:.2f} s)",
              file=sys.stderr)
    samples = runner.loop(wl, args.seconds)
    print(f"perfbench: {len(samples)} timed jobs: "
          + " ".join(f"{s['wall']:.2f}" for s in samples), file=sys.stderr)
    wall = _median(samples, "wall")
    return {
        "wall_s": wall,
        "docs_per_s": wl.docs / wall if wall else 0.0,
        "cpu_s": _median(samples, "cpu"),
        "peak_rss_mb": _median(samples, "rss"),
        "setup_s": float(statistics.median(setups)),
    }


def run_traced(args, runner: Runner, ncpu: int) -> dict:
    import micro
    from tracing import Tracer
    from workloads import WORKLOADS

    start_ray(ncpu)
    wls = {}
    for name in WORKLOADS:
        wl = make_workload(name, args.seed, args.size, ncpu)
        wl.generate()
        wl.prepare_reference()
        runner.job(wl)  # warm-up
        wls[name] = wl
    untraced = {args.workload: _median(runner.loop(wls[args.workload], args.seconds), "wall")}
    if "flagship" not in untraced:
        s = runner.job(wls["flagship"])
        untraced["flagship"] = s["wall"] if s else 0.0

    tr = Tracer()
    metrics, per_wl = {}, {}
    for name, wl in wls.items():
        def traced(wl=wl, name=name):
            with tr.span(f"job.{name}", name):
                extra, ok = wl.traced(tr, name, runner.tree)
            if not ok:
                raise AssertionError(f"{name} traced output check failed")
            return {**tr.metrics(name), **extra}
        per_wl[name] = runner.call(f"{name} traced", traced) or {}
        metrics.update(per_wl[name])
    metrics.update(runner.call("kernel measurements", micro.kernel_metrics) or {})
    metrics.update(runner.call("exchange fixed cost", micro.exchange_fixed_cost) or {})
    tr.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))

    mine = per_wl[args.workload]
    metrics["trace.overhead_s"] = mine.get("trace.job_s", 0.0) - untraced[args.workload]
    metrics["driver.rows_collected"] = mine.get("driver.rows_collected", 0)
    flag = per_wl["flagship"]
    for key, part in (("trace.flagship_stage_share", "trace.stage_wall_s"),
                      ("trace.flagship_decode_share", "engine.decode_stats.wall_s")):
        metrics[key] = flag.get(part, 0.0) / untraced["flagship"] if untraced["flagship"] else 0.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["flagship", "neardup", "fragment_sink"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="input sizes; 'tiny' is for the self-tests")
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    sys.path[:0] = [HERE, ROOT]
    try:
        import raycells  # noqa: F401
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (ImportError, OSError, ValueError) as e:
        print(f"perfbench: cannot load the repository at {ROOT}: {e}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # keep the result alone on stdout: everything else (Ray, children) → stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    runner = Runner(t_start)
    ncpu = nproc()
    try:
        values = (run_traced if args.trace else run_untraced)(args, runner, ncpu)
    finally:
        stop_ray()
        for name in os.listdir(WORK):
            if name != "ray" and not name.startswith("trace-"):
                shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0 and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(f"perfbench: run took {time.perf_counter() - t_start:.1f} s", file=sys.stderr)
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
