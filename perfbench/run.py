"""proxcatch benchmark: run one workload and print its metrics.

Usage, from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload mc-region --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The workload runs in a fresh child process (`client.py`) on inputs generated
here from `--seed` before any timing starts.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is the run record.
`--smoke` runs every workload at tiny op sizes and checks that every metric
is printed with its unit and that no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, PLAN_OPS, WORKLOADS, inputs_digest, make_inputs, specs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
SETUP_PROBES = 7
SMOKE_SECONDS = 1
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_sha() -> str | None:
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def setup_seconds(name: str) -> float:
    p = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *specs(name)],
                       cwd=ROOT, env=child_env(), capture_output=True, text=True,
                       timeout=PROBE_TIMEOUT_S, check=True)
    return float(p.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Generate the inputs, run the workload's child process and return
    (result line, run record)."""
    e2e_units, layer_units = metric_units()
    workload = WORKLOADS[name]
    tag = f"{name}-s{seed}-t{int(trace)}"
    work_rel = f"perfbench/_work/{tag}-p{os.getpid()}"
    ops, files = make_inputs(name, seed, PLAN_OPS, work_rel, smoke)
    digest = inputs_digest(ops, files)
    reproducible = digest == inputs_digest(*make_inputs(name, seed, PLAN_OPS, work_rel, smoke))
    ref_ops, ref_files = make_inputs(name, DEFAULT_SEED, workload.reference_ops, work_rel + "/ref")
    work = ROOT / work_rel
    (work / "ref").mkdir(parents=True, exist_ok=True)
    try:
        for rel, data in {**files, **ref_files}.items():
            (ROOT / rel).write_bytes(data)
        plan = {
            "ops": ops,
            "warmup": len(workload.mix),
            "seconds": seconds,
            "trace": trace,
            "trace_ops": len(workload.mix) if smoke else workload.trace_ops,
            "reference": ref_ops,
            "spans": str(WORK / f"spans-{tag}.npz"),
        }
        (work / "plan.json").write_text(json.dumps(plan))
        # Set-up is probed on both sides of the child, so the median spans the
        # machine's load over the whole run rather than one moment of it.
        probes = 0 if trace else 2 if smoke else SETUP_PROBES
        setup = [setup_seconds(name) for _ in range(probes // 2)]
        subprocess.run([sys.executable, str(BENCH / "client.py"), "--plan", str(work / "plan.json"),
                        "--result", str(work / "result.json")],
                       cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S, check=True)
        setup += [setup_seconds(name) for _ in range(probes - probes // 2)]
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(BENCH / "reference.json") as fh:
        reference = json.load(fh)["digests"][name]
    reference_ok = result["reference_digest"] == reference
    failed = len(result["failures"])
    attempted = result["attempted"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "failures": result["failures"][:5],
        "inputs_sha256": digest, "inputs_reproducible": reproducible,
        "outputs_sha256": result["run_digest"],
        "reference_seed": DEFAULT_SEED, "reference_sha256": result["reference_digest"],
        "reference_ok": reference_ok,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__, "git_sha": git_sha(),
    }
    if trace:
        values = result["layers"]
        units = layer_units
        record["trace_ops"] = plan["trace_ops"]
        record["missing_targets"] = result["missing_targets"]
        record["spans_file"] = plan["spans"]
    else:
        lat = np.array(result["latencies"])
        cal = lat / np.array(result["calibrations"])  # latency in calibration-loop units
        p90 = float(np.percentile(cal, 90))
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_kcal": 1e3 * len(cal) / float(cal.sum()),
            "op_p50_cal": float(np.percentile(cal, 50)),
            "op_p90_cal": p90,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = e2e_units
        mix = len(workload.mix)  # timed op j is mix entry j % mix, as warmup is one round
        record.update(
            ops_timed=len(lat), ops_beyond_p90=int((cal > p90).sum()),
            # the same latencies in wall-clock units, which the host's load moves
            ops_per_s=len(lat) / float(lat.sum()),
            op_p50_ms=float(np.percentile(lat, 50)) * 1e3,
            op_p90_ms=float(np.percentile(lat, 90)) * 1e3,
            calibration_ms_p50=float(np.median(result["calibrations"])) * 1e3,
            op_p50_ms_by_mix=[float(np.median(lat[k::mix])) * 1e3 for k in range(mix)],
            setup_samples_s=setup,
        )
    line = {
        "correct": failed == 0 and reproducible and reference_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"record-{tag}.json").write_text(json.dumps({"record": record, "result": line}, indent=1))
    return line, record


def print_result(line: dict, record: dict) -> None:
    for k, m in line["metrics"].items():
        print(f"{record['workload']} {k} = {m['value']!r} {m['unit']}")
    for k, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")):
        if k in record:
            print(f"{record['workload']} {k} = {record[k]!r} {unit} (wall clock, unbounded)")
    print(f"{record['workload']} failed_ratio = {record['failed_ratio']!r} "
          f"({record['failed']} of {record['attempted']} ops)")
    print("record " + json.dumps(record))
    print(json.dumps(line))


def smoke() -> int:
    e2e_units, layer_units = metric_units()
    ok = True
    for name in WORKLOADS:
        for trace, units in ((False, e2e_units), (True, layer_units)):
            line, record = run_workload(name, DEFAULT_SEED, SMOKE_SECONDS, trace, smoke=True)
            print_result(line, record)
            printed = {k: m["unit"] for k, m in line["metrics"].items()}
            if printed != units or record["failed_ratio"] != 0 or not line["correct"]:
                print(f"SMOKE FAIL {name} trace={int(trace)}", file=sys.stderr)
                ok = False
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "proxcatch" / "__init__.py").is_file():
        print(f"error: no proxcatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    print_result(*run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
