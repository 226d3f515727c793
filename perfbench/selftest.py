"""Self-test of the benchmark itself (not of fplcast).

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's naming rules, the self-time
arithmetic on a hand-built span tree, a tiny-size run of every workload
with and without tracing (outputs checked, metric names as declared,
per-layer self times plus the remainder adding up to the traced wall),
and that a directory holding only the benchmark exits nonzero without a
result. Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_declaration(bench: dict) -> None:
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad, f"bad metric or workload names: {bad}"
    assert len(set(names)) == len(names), "a name is used twice"
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def check_self_times() -> None:
    sys.path.insert(0, str(HERE))
    import tracing

    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # a second top-level span d runs [11, 12]; the pass lasts 13.
    spans = [["cli.main", 0.0, 10.0, -1], ["gbm.fit", 1.0, 4.0, 0],
             ["gbm.predict", 2.0, 3.0, 1], ["ridge.fit", 5.0, 9.0, 0],
             ["serialize.read", 11.0, 12.0, -1]]
    own, inclusive, top = tracing.self_times(spans)
    assert own == {"cli.main": 3.0, "gbm.fit": 2.0, "gbm.predict": 1.0,
                   "ridge.fit": 4.0, "serialize.read": 1.0}, own
    assert inclusive["gbm.fit"] == 3.0 and top == 11.0
    tracer = tracing.Tracer()
    tracer.spans.extend(spans)
    m = tracing.layer_metrics(tracer, n_passes=1, traced_wall=13.0)
    assert m["gbm.self_s"] == 3.0 and m["cli.self_s"] == 3.0
    assert m["trace.remainder_s"] == 2.0
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + 2.0 == 13.0


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, (proc.stdout + proc.stderr).strip().splitlines()


def check_tiny_runs(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(ROOT, workload, trace)
            assert code == 0, f"{workload} trace {trace} exited {code}:\n" + "\n".join(lines)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, f"{workload}: {set(got) ^ set(declared)}"
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
                total = layers + m["trace.remainder_s"]
                assert abs(total - m["trace.wall_s"]) <= 1e-9 * m["trace.wall_s"], m
            print(f"ok  {workload} --trace {trace}")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = run(bare, "chain", 0)
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):  # other runs may share the parent
            bare.parent.rmdir()
    assert code != 0, "ran without fplcast sources"
    assert not (lines and lines[-1].startswith("{")), "printed a result"
    print("ok  bare directory exits", code)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_declaration(bench)
        check_self_times()
        print("ok  declaration and self-time arithmetic")
        check_bare_directory()
        check_tiny_runs(bench)
    except AssertionError as exc:
        print(f"FAILED: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
