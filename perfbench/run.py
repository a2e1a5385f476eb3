#!/usr/bin/env python3
"""Crawl-and-prep benchmark.

    python3 perfbench/run.py --workload bfs_discovery --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``bfs_discovery`` and ``saturated_recrawl`` call
``pipelines.crawl.run_crawl``; ``prep_dedup`` calls
``pipelines.preprocess.prep_corpus``.  One process, one client, closed loop:
each timed operation is one whole call, and the next starts when it returns.

A run starts its own Ray session, generates its inputs from ``--seed``,
warms the workers with a tiny instance of the workload (all of that is
``setup_s``), then repeats whole operations: at least two, and more while
they fit in ``--seconds``.  Every
operation's output is checked against ``checkers.py``.  With ``--trace 1``
the run instead measures the layers (``layers.py``) and prints the
per-layer metrics.  The last stdout line is the result JSON; everything
else goes to stderr.  Inputs, outputs and Ray's session live under
``.perfbench/`` in the checkout and are removed at the end; only the traced
run's span file and layer table are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BENCHMARK.json runs the first and last; saturated_recrawl runs by hand
WORKLOADS = ("bfs_discovery", "saturated_recrawl", "prep_dedup")
# Ray puts its unix sockets up to 65 characters below its temp dir, and
# AF_UNIX paths are limited to 107 bytes
_MAX_RAY_TMP = 40


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def ray_temp_dir() -> str:
    """Ray's temp dir for this run: in the checkout, unless that path is too
    long for Ray's unix sockets."""
    path = os.path.join(ROOT, ".perfbench", "ray")
    if len(path) <= _MAX_RAY_TMP:
        return path
    log("checkout path too long for Ray's unix sockets: Ray's session goes to the system temp dir")
    return tempfile.mkdtemp(prefix="pbray")


def start_ray(ray_tmp: str, work: str, cpus: int) -> None:
    """Start this run's own Ray session."""
    import ray
    import ray.data

    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    ray.init(
        num_cpus=cpus,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        object_store_memory=768 * 2**20,
        _temp_dir=ray_tmp,
        # Ray workers do not inherit the driver's sys.path: hand them the
        # checkout so `grawler_ray` imports whatever the cwd is
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "grawler_ray")):
        log(f"no grawler_ray package beside {HERE}: run from a checkout of the repo")
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)

    # stdout carries only the result line: everything printed meanwhile
    # (by Ray, its child processes or the program) goes to stderr
    sys.stdout.flush()
    result_fd = os.dup(1)
    os.dup2(2, 1)

    import layers
    import procstats
    import workloads

    cpus = len(os.sched_getaffinity(0))
    pb_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(pb_dir, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="r", dir=os.path.join(pb_dir, "work"))
    ray_tmp = ray_temp_dir()
    try:
        with procstats.RssSampler() as rss:
            tr = layers.Tracer() if args.trace else layers.NullTracer()
            t0 = time.monotonic()
            with tr.span("setup", "bench"):
                with tr.span("ray_start", "ray"):
                    start_ray(ray_tmp, work, cpus)
                log(f"ray started in {time.monotonic() - t0:.2f}s")
                wl = workloads.make(args.workload, args.seed, work)
                wl.setup(tr)
            setup_s = time.monotonic() - t0
            log(f"setup {setup_s:.2f}s on {cpus} cpus")
            if args.trace:
                trace_dir = os.path.join(pb_dir, "traces", f"{args.workload}-seed{args.seed}")
                metrics, attempted, failed, problems = layers.traced_run(wl, tr, cpus, trace_dir)
            else:
                metrics, attempted, failed, problems = timed_loop(wl, args.seconds)
                metrics["setup_s"] = (setup_s, "s")
    finally:
        if "ray" in sys.modules:
            sys.modules["ray"].shutdown()
        shutil.rmtree(ray_tmp, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)
        for d in (os.path.join(pb_dir, "work"), pb_dir):
            with contextlib.suppress(OSError):
                os.rmdir(d)  # only when empty: traces are kept

    if failed == attempted:
        log("every operation failed: no result")
        return 1
    if not args.trace:
        metrics["peak_rss_mb"] = (rss.peak_mb, "MB")
    for p in problems:
        log("CHECK FAILED:", p)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with os.fdopen(result_fd, "w") as out:
        out.write(json.dumps(result) + "\n")
    return 0


def timed_loop(wl, seconds: float, min_ops: int = 2):
    """Repeat whole operations: at least ``min_ops``, then more while the
    median operation so far still fits in ``seconds``.  Metrics are medians
    over the operations."""
    rates, walls, outs = [], [], []
    problems: list[str] = []
    attempted = failed = 0
    t0 = time.monotonic()
    while True:
        attempted += wl.units
        t_op = time.monotonic()
        try:
            r = wl.op(len(walls))
        except Exception:
            log(traceback.format_exc())
            failed += wl.units
            walls.append(time.monotonic() - t_op)
        else:
            walls.append(r.wall_s)
            rates.append(r.units / r.wall_s)
            outs.append(r.output_mb * 1024 / r.units)
            problems += r.problems
        if len(walls) >= min_ops and time.monotonic() - t0 + statistics.median(walls) > seconds:
            break
    log(f"{len(walls)} ops, walls {[round(w, 2) for w in walls]}")
    metrics = {}
    if rates:
        metrics["throughput_per_s"] = (statistics.median(rates), "1/s")
        metrics["output_kb_per_item"] = (statistics.median(outs), "KB")
    return metrics, attempted, failed, problems


if __name__ == "__main__":
    sys.exit(main())
