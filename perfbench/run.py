"""fplcast benchmark: one workload in one process, end to end or traced.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports fplcast from ./src.
All load comes from this one thread as a closed loop: each operation
starts when the previous one returns; numpy's BLAS is held to one thread.

--trace 0  imports fplcast 9 times (8 of them in fresh interpreters) and
           sets the workload up 5 times, then repeats passes over it while
           they fit in --seconds (at least 2) and prints the end-to-end
           metrics.
--trace 1  sets up the same way, then alternates untraced and traced
           passes while they fit in --seconds (at least two of each; on
           grid_gbm_full also one traced pass with grid_workers 2) and
           prints the per-layer metrics.

The end-to-end times are CPU times of this one-threaded process (and of
the import probes): on a virtual machine that accounts steal time they
leave out the time the host runs other guests on this guest's CPU, and
the time other processes hold the core. Wall times are printed beside
them, not gated.

Every pass must write byte-identical artifacts, and each workload checks
its outputs; the last stdout line is the JSON result, and the exit status
is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
IMPORT_REPEATS = 9
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
MIN_PAIRS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the self-test")
    p.add_argument("--record-digests", action="store_true",
                   help=f"store this run's artifact digests in {DIGESTS.name}")
    return p.parse_args(argv)


def import_program() -> float:
    """Import fplcast from ./src; returns the import's CPU time in seconds."""
    if not (SRC / "fplcast" / "cli.py").is_file():
        sys.exit(f"error: no fplcast sources under {SRC}")
    # One thread of load: numpy's BLAS would otherwise spread matrix
    # products over every core, so results would depend on the core count
    # and on whatever else runs on the other cores.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    started = process_time()
    import workloads  # noqa: F401 - imports numpy and fplcast
    seconds = process_time() - started
    import fplcast

    if Path(fplcast.__file__).resolve().parent != (SRC / "fplcast").resolve():
        sys.exit(f"error: imported fplcast from {fplcast.__file__}, not {SRC}")
    return seconds


# Times the same import as import_program in a fresh interpreter.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "started = time.process_time(); import workloads; "
                "print(time.process_time() - started)")


def import_times(first: float) -> list[float]:
    """`first`, this process's import time, and IMPORT_REPEATS - 1 more
    from fresh interpreters, each run to its end."""
    times = [first]
    for _ in range(IMPORT_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "fplcast").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "blas_threads": os.environ[BLAS_THREAD_VARS[0]],
            "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "src_sha256": src.hexdigest()[:16], "seed": seed}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def more_time(started: float, rounds: int, seconds: float) -> bool:
    """Whether one more round of passes, as long as the mean one so far,
    still ends within `seconds`."""
    elapsed = perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


def timed_passes(wl, work: Path, seconds: float) -> list:
    passes = []
    started = perf_counter()
    while len(passes) < MIN_PASSES or more_time(started, len(passes), seconds):
        passes.append(wl.run_pass(work / f"pass{len(passes)}"))
    return passes


def traced_passes(wl, work: Path, seconds: float):
    """(untraced passes, traced passes, pool-2 pass or None, tracer).

    Untraced and traced passes alternate, so the tracing overhead compares
    adjacent passes, run under the same conditions.
    """
    import tracing

    started = perf_counter()
    tracer = tracing.Tracer()
    untraced, traced, pool2 = [], [], None
    while len(traced) < MIN_PAIRS or more_time(started, len(traced), seconds):
        untraced.append(wl.run_pass(work / f"pass{2 * len(traced)}"))
        tracer.install()
        try:
            traced.append(wl.run_pass(work / f"pass{2 * len(traced) + 1}"))
        finally:
            tracer.restore()
        tracer.end_pass()
        if wl.has_pool and pool2 is None:
            pool_tracer = tracing.Tracer()
            pool_tracer.install()
            try:
                pool2 = wl.run_pass(work / "pass_pool2", pool2=True)
            finally:
                pool_tracer.restore()
    return untraced, traced, pool2, tracer


def check_outputs(wl, passes: list, work: Path) -> tuple[float, list[str]]:
    """(quality ratio, failed checks) over every pass of this run."""
    problems = []
    reference = passes[0].artifacts
    for i, p in enumerate(passes[1:], start=1):
        differ = sorted(k for k in reference.keys() | p.artifacts.keys()
                        if reference.get(k) != p.artifacts.get(k))
        if differ:
            problems.append(f"pass {i} differs from pass 0 in {', '.join(differ)}")
    failed = sum(not ok for p in passes for _, ok in p.ops)
    if failed:
        problems.append(f"{failed} operations failed")
    ratio, quality = wl.check(work / "pass0")
    return ratio, problems + quality


def digest_report(workload: str, seed: int, artifacts: dict, record: bool) -> list[str]:
    """Lines naming the artifacts whose sha256 differs from the recorded one."""
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if record:
        data.setdefault(workload, {})[str(seed)] = artifacts
        DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        return [f"artifact digests: recorded {len(artifacts)} for seed {seed}"]
    recorded = data.get(workload, {}).get(str(seed))
    if recorded is None:
        return [f"artifact digests: none recorded for seed {seed}"]
    differ = sorted(k for k in recorded.keys() | artifacts.keys()
                    if recorded.get(k) != artifacts.get(k))
    return ([f"artifact digests: {len(differ)} of {len(recorded)} differ "
             f"from {DIGESTS.name}"] + [f"  differs: {name}" for name in differ])


def end_to_end(wl, passes, import_s, setup_times, val_ratio) -> dict:
    cpus = [p.cpu for p in passes]
    ops = [seconds for p in passes for seconds, _ in p.ops]
    failed = sum(not ok for p in passes for _, ok in p.ops)
    return {
        "cpu_s": (statistics.median(cpus), "s", f"median of {len(cpus)} passes"),
        "ops_per_cpu_s": (len(ops) / sum(cpus), "1/s", f"{len(ops)} {wl.op_label} "
                          f"in {sum(cpus):.2f} CPU s; {wl.input_label}"),
        "setup_s": (import_s + statistics.median(setup_times), "s",
                    f"CPU time: median of {IMPORT_REPEATS} imports, {import_s:.4f} s, "
                    f"+ median of {len(setup_times)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "whole process"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio",
                     f"{len(ops) - failed} of {len(ops)} {wl.op_label} succeeded"),
        "val_mse_ratio": (val_ratio, "ratio",
                          "validation MSE over an independent least-squares fit's"),
    }


def per_layer(untraced, traced, pool2, tracer, import_s) -> dict:
    import tracing

    traced_wall = sum(p.wall for p in traced)
    values = tracing.layer_metrics(tracer, len(traced), traced_wall)
    serial = traced_wall / len(traced)
    values.update({
        "process.import_s": import_s,
        "trace.untraced_wall_s": statistics.median(p.wall for p in untraced),
        "trace.overhead_s": statistics.median(
            t.wall - u.wall for u, t in zip(untraced, traced)),
        "harness.serial_wall_s": serial if pool2 else 0.0,
        "harness.pool2_wall_s": pool2.wall if pool2 else 0.0,
        "harness.pool2_over_serial": pool2.wall / serial if pool2 else 0.0,
    })
    return {name: (value, unit_of(name), "") for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_over_serial")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](work, args.seed, workloads.SIZES[args.size])
    print(f"workload {args.workload}: {wl.why}")
    print("environment: " + json.dumps(environment(args.seed)))
    try:
        import_s = statistics.median(import_times(import_s))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            started = process_time()
            wl.setup()
            setup_times.append(process_time() - started)
        print(f"input: {wl.input_label}; one operation is one of the {wl.op_label}")
        if args.trace:
            untraced, traced, pool2, tracer = traced_passes(wl, work, args.seconds)
            passes = [p for pair in zip(untraced, traced) for p in pair]
            passes += [pool2] if pool2 else []
            metrics = per_layer(untraced, traced, pool2, tracer, import_s)
            print(f"per-layer values are per pass: means over {len(traced)} traced "
                  f"passes; untraced wall is the median of {len(untraced)}; "
                  f"overhead is the median of {len(traced)} traced-minus-untraced "
                  f"differences of adjacent passes")
            if tracer.missing:
                print("not traced (not found): " + ", ".join(tracer.missing))
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            print(f"spans: wrote {tracer.write_first_pass(spans)} of the first "
                  f"traced pass to {spans.relative_to(ROOT)}")
        else:
            passes = timed_passes(wl, work, args.seconds)
        val_ratio, problems = check_outputs(wl, passes, work)
        if not args.trace:
            metrics = end_to_end(wl, passes, import_s, setup_times, val_ratio)
            # Reported but not gated: see perfbench/README.md.
            walls = [p.wall for p in passes]
            ops = [seconds for p in passes for seconds, _ in p.ops]
            print(f"wall: {statistics.median(walls):.6g} s, median of {len(walls)} "
                  f"passes; {len(ops) / sum(walls):.6g} {wl.op_label} per second")
            print(f"op p50: {statistics.median(ops):.6g} s wall, median of "
                  f"{len(ops)} {wl.op_label}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may share the parent
            work.parent.rmdir()

    for name, (value, unit, note) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")
    if args.size == "full":
        print("\n".join(digest_report(args.workload, args.seed, passes[0].artifacts,
                                      args.record_digests)))
    print("checks: " + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
    attempted = sum(len(p.ops) for p in passes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(not ok for p in passes for _, ok in p.ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
