#!/usr/bin/env python3
"""portatune's benchmark: build the driver from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a portatune checkout. The first run configures and
builds perfbench/ (the libraries, the `portatune_cli` daemon and the
driver) into .bench_build/perfbench; later runs reuse that build. The
driver runs in a fresh work directory under .bench_build/work, which is
removed afterwards. The last stdout line is the result: one JSON object
with correct/attempted/failed and the metrics BENCHMARK.json names
(end-to-end ones with --trace 0, per-layer ones with --trace 1). Exit 0
only when the outputs were checked correct.

    python3 perfbench/run.py --write-references

recomputes perfbench/references.json, the per-cell digests transfer-grid
is checked against (only after an intended change of results).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("transfer-grid", "service-mixed")
DRIVER_TIMEOUT_S = 170
BUILD_TYPE = "Release"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configure once, then bring the build up to date. Build output goes
    to stderr so stdout keeps the result as its last line."""
    for var in ("CXXFLAGS", "LDFLAGS", "CFLAGS"):
        if "sanitize" in os.environ.get(var, ""):
            raise RuntimeError(f"refusing a sanitizer build ({var} has -fsanitize)")
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def stop_group(proc):
    """Kill whatever is left of the driver's process group and wait until
    every member has exited."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def complete(result, spec, trace):
    """Check the driver's metrics against BENCHMARK.json. Per-layer metrics
    of layers a workload never touches are reported as 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    absent = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                raise RuntimeError(f"driver did not report {m['name']}")
            absent.append(m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']} in {got['unit']}, expected {m['unit']}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        raise RuntimeError(f"driver reported unlisted metrics {sorted(extra)}")
    if absent:
        print("not applicable to this workload (reported as 0): " + " ".join(absent))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    if not (root / "src" / "CMakeLists.txt").exists():
        log("run.py: no portatune sources under ./src; run from a checkout root")
        return 1
    build_dir = root / ".bench_build" / "perfbench"
    try:
        build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    driver = build_dir / "perfbench_driver"
    references = bench_dir / "references.json"

    if args.write_references:
        return subprocess.run([str(driver), "--write-references",
                               str(references)]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--references", str(references),
           "--cli", str(build_dir / "portatune_cli")]
    # The driver and the daemon it starts share a fresh process group, so
    # nothing outlives the run, even when the driver dies or times out.
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    if stdout is None:
        log(f"run.py: driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1

    lines = stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(stdout)
        log(f"run.py: driver failed with exit code {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = complete(json.loads(lines[-1]), spec, args.trace == 1)
    except (ValueError, KeyError, RuntimeError) as e:
        log(f"run.py: bad driver result: {e}")
        return 1
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
