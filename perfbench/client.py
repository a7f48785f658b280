"""One workload in one fresh process: a closed loop of in-process CLI calls.

A single client issues each op, a `proxcatch.cli.main(argv)` call, only after
the previous one has returned.  The clock runs only while an op runs; the
benchmark's own output checks happen between ops with the clock stopped.
Between timed ops the client also times a fixed calibration loop, so each
op's latency can be stated in units of the machine's speed at that moment.

Usage (from the checkout root, with PYTHONPATH=src):
    python3 perfbench/client.py --plan PLAN.json --result RESULT.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

import checks
from spans import Tracer

# p90 needs at least ten samples beyond it, so a run may outlast --seconds
MIN_TIMED_OPS = 100


def calibrate() -> float:
    """Seconds a fixed, proxcatch-independent mix of work takes right now.

    The mix follows the program's own: an interpreter loop, building a
    frozenset of tuples, small numpy calls and a medium numpy broadcast. The
    host's load slows it about as much as it slows an op. A program change
    cannot move it. On a shared host the machine's speed can swing by half
    within minutes; an op's latency divided by this time next to it swings
    far less.
    """
    gc.disable()  # keep collections of the program's heap out of the loop
    try:
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(10000):
            pair = (i * 0.5, i + 1.0)
            acc += pair[0] * pair[1] - acc * 1e-9
            table[i & 255] = pair
        frozenset((i, (i * 7) % 1000) for i in range(7500))
        a = np.arange(64.0)
        for _ in range(150):
            a = (a * 1.0001 + 0.5).clip(0.0, 1e6)
        m = np.linspace(0.0, 1.0, 160)
        for _ in range(12):
            int(((m[:, None] - 0.5 * m[None, :]) <= 0.25).sum())
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Runner:
    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes = 0

    def run(self, op: dict, digest) -> float:
        """Run one op and check its output; returns the op's latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        rc: object = None
        with contextlib.suppress(FileNotFoundError):
            os.remove(op["out"])
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op["argv"])
        except (Exception, SystemExit) as exc:
            rc = f"raised {exc!r}"
        latency = time.perf_counter() - t0
        stdout, stderr = out.getvalue(), err.getvalue()
        problems = []
        data = b""
        if rc != 0:
            problems.append(f"exit {rc!r}: {stderr.strip()[:200]}")
        else:
            try:
                with open(op["out"], "rb") as fh:
                    data = fh.read()
                check = op["check"]
                if check["kind"] == "simulate":
                    problems += checks.check_simulate(check, data.decode())
                else:
                    problems += checks.check_digraph(check, stdout, data.decode())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failures.append(f"{' '.join(op['argv'])}: {'; '.join(problems)}")
        self.output_bytes += len(data) + len(stdout.encode()) + len(stderr.encode())
        for part in (str(rc).encode(), stdout.encode(), stderr.encode(), data):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
        return latency

    def replay(self, ops: list[dict], digest, tracer: Tracer | None = None) -> float:
        """Run `ops` in order; returns their summed latency."""
        busy = 0.0
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = k
            busy += self.run(op, digest)
        return busy


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    from proxcatch import cli

    ops, warmup, seconds = plan["ops"], plan["warmup"], plan["seconds"]
    runner = Runner(cli)
    run_digest = hashlib.sha256()
    runner.replay(ops[:warmup], run_digest)
    result: dict = {}
    if not plan["trace"]:
        latencies, calibrations = [], [calibrate()]
        busy = 0.0
        i = warmup
        while busy < seconds or len(latencies) < MIN_TIMED_OPS:
            latencies.append(runner.run(ops[i % len(ops)], run_digest))
            calibrations.append(calibrate())
            busy += latencies[-1]
            i += 1
        result["latencies"] = latencies
        # op i is timed between calibrations i and i + 1
        result["calibrations"] = [(a + b) / 2 for a, b in zip(calibrations, calibrations[1:])]
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        traced = ops[warmup:warmup + plan["trace_ops"]]
        untraced_wall = runner.replay(traced, run_digest)
        tracer = Tracer()
        tracer.install()
        try:
            runner.output_bytes = 0
            traced_wall = runner.replay(traced, run_digest, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.summary(traced_wall)
        layers["cli.main.output_bytes"] = runner.output_bytes
        layers["trace.overhead_ratio"] = traced_wall / untraced_wall
        tracer.save(plan["spans"])
        result["layers"] = layers
        result["missing_targets"] = tracer.missing
    reference_digest = hashlib.sha256()
    runner.replay(plan["reference"], reference_digest)
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        run_digest=run_digest.hexdigest(),
        reference_digest=reference_digest.hexdigest(),
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
