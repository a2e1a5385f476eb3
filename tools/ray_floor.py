"""Ray scheduling-floor probe: does a CPU-heavy map that feeds an exchange
still run at full width, and does keeping actors alive still beat starting
them?

Runs N busy map tasks of T ms CPU each three ways and prints the wall
seconds and the number of distinct worker pids that ran them:

    map                        the map alone
    map -> groupby             streamed into groupby().map_groups
    map.materialize -> groupby materialized first, then grouped

then starts A ``num_cpus=0`` actors and prints the seconds until all are
ready, and the seconds of one reset round-trip on the same actors:

    actor start                what run_crawl paid per call for its state pool
    actor reset                what it pays when it reuses the idle pool

    python tools/ray_floor.py [--tasks 16] [--ms 100] [--cpus 4] [--actors 4]

On Ray 2.49 the streamed case runs one task at a time (every unfinished
operator of an execution holds a CPU reservation, and the post-sort
map_groups is one), and four actors take 0.64-0.97 s to start against
~2 ms for a reset on a 4-CPU host.  Timing-based: run it by hand after a
Ray upgrade.
"""

import argparse
import logging
import os
import time

import numpy as np
import ray
import ray.data


def busy(ms: int):
    def fn(b: dict) -> dict:
        end = time.process_time() + ms / 1000
        while time.process_time() < end:
            pass
        return {"g": b["id"] % 4, "pid": np.full(len(b["id"]), os.getpid())}

    return fn


class Idle:
    def reset(self) -> bool:
        return True


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tasks", type=int, default=16)
    ap.add_argument("--ms", type=int, default=100)
    ap.add_argument("--cpus", type=int, default=4)
    ap.add_argument("--actors", type=int, default=4)
    args = ap.parse_args()
    ray.init(num_cpus=args.cpus, include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    def mapped():
        ds = ray.data.range(args.tasks, override_num_blocks=args.tasks)
        return ds.map_batches(busy(args.ms), batch_size=None)

    def grouped(ds):
        return ds.groupby("g").map_groups(lambda b: b)

    mapped().materialize()  # start the workers
    for name, make in (
        ("map", mapped),
        ("map -> groupby", lambda: grouped(mapped())),
        ("map.materialize -> groupby", lambda: grouped(mapped().materialize())),
    ):
        t0 = time.perf_counter()
        pids = {p for b in make().iter_batches(batch_size=None) for p in b["pid"]}
        print(f"{name:28s} {time.perf_counter() - t0:6.2f} s  {len(pids)} worker pids")

    actor = ray.remote(num_cpus=0)(Idle)
    t0 = time.perf_counter()
    actors = [actor.remote() for _ in range(args.actors)]
    ray.get([a.reset.remote() for a in actors])
    print(f"{'actor start':28s} {time.perf_counter() - t0:6.2f} s  {args.actors} actors")
    t0 = time.perf_counter()
    ray.get([a.reset.remote() for a in actors])
    print(f"{'actor reset':28s} {(time.perf_counter() - t0) * 1000:6.2f} ms {args.actors} actors")
    ray.shutdown()


if __name__ == "__main__":
    main()
