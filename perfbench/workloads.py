"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload drives fplcast through `fplcast.cli.main` or its library
functions only; fplcast sees nothing but the generated files and arrays.
A pass writes its outputs under its own directory, so passes can be
compared byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import season
import tracing
from fplcast import cli, gbm, harness

# "full" is what the benchmark measures; "tiny" is for the self-test.
SIZES = {
    "full": {"players": 200, "weeks": 38, "rank_gw": 30, "explanations": 3},
    "tiny": {"players": 100, "weeks": 16, "rank_gw": 12, "explanations": 1},
}
POSITION = "MID"


class SetupError(RuntimeError):
    """Generating a workload's inputs failed."""


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0  # this process's CPU time, which leaves out steal time
    ops: list[tuple[float, bool]] = field(default_factory=list)  # (seconds, ok)
    artifacts: dict[str, str] = field(default_factory=dict)  # name -> sha256


@contextlib.contextmanager
def inside(path: Path):
    """Run in `path`, so every pass sees identical relative file names."""
    path.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@contextlib.contextmanager
def timed(result: PassResult):
    """Set result.wall and result.cpu to the time the block takes."""
    wall, cpu = perf_counter(), process_time()
    yield
    result.wall, result.cpu = perf_counter() - wall, process_time() - cpu


def run_cli(argv: list[str]) -> tuple[float, bool]:
    """One fplcast command, its stdout discarded: (seconds, exit code 0)."""
    with contextlib.redirect_stdout(io.StringIO()):
        started = perf_counter()
        code = cli.main(argv)
        return perf_counter() - started, code == 0


def file_digests(out: Path) -> dict[str, str]:
    """sha256 of every deterministic output file (run.log holds timestamps)."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "run.log"
    }


def synth_args(seed: int, size: dict) -> list[str]:
    return ["--out", "out", "--seed", str(seed), "synth",
            "--players", str(size["players"]), "--weeks", str(size["weeks"])]


INGEST = ["--out", "out", "ingest", "--raw", "synthetic=out/synthetic_gameweeks.csv",
          "--strengths", "out/synthetic_strengths.csv"]


class Workload:
    name = ""
    why = ""
    op_label = ""  # what one operation is
    has_pool = False

    def __init__(self, work: Path, seed: int, size: dict):
        self.work, self.seed, self.size = work, seed, size

    @property
    def input_label(self) -> str:
        return (f"{POSITION} of a {self.size['players']}-player, "
                f"{self.size['weeks']}-week synthetic season")

    def setup(self) -> None:
        """Generate the inputs; may run several times, with equal results."""

    def run_pass(self, pass_dir: Path, pool2: bool = False) -> PassResult:
        raise NotImplementedError

    def check(self, pass_dir: Path) -> tuple[float, list[str]]:
        """(validation MSE over an independent least-squares fit's on the
        same validation examples, failed checks)."""
        raise NotImplementedError


class Chain(Workload):
    name = "chain"
    why = ("The README CLI chain, and the only workload that runs ingest "
           "parsing and fuzzy matching, model files and CNN training.")
    op_label = "commands"
    FAMILIES = ("ridge", "gbm", "cnn")
    # Early stopping ends CNN training after a seed-dependent 28 to 96
    # epochs, which would make the chain's cost depend on the seed; with
    # patience equal to epochs every seed trains exactly 40 epochs.
    CONFIG = {"epochs": 40, "patience": 40}

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "chain.json").write_text(json.dumps(self.CONFIG))

    def commands(self) -> list[list[str]]:
        base = ["--config", "../chain.json", "--out", "out", "--seed", str(self.seed)]
        data = ["--cleaned", f"out/cleaned_{POSITION}.csv",
                "--strengths", "out/synthetic_strengths.csv"]
        splits = ["--splits", "out/splits.csv"]
        cmds = [
            ["--config", "../chain.json"] + synth_args(self.seed, self.size),
            ["--config", "../chain.json"] + INGEST,
            base + ["split", "--cleaned"]
            + [f"out/cleaned_{p}.csv" for p in ("GK", "DEF", "MID", "FWD")],
        ]
        cmds += [base + ["--position", POSITION, "train", *data, *splits,
                         "--family", f] for f in self.FAMILIES]
        cmds += [base + ["evaluate", "--model", f"out/model_{f}_{POSITION}.txt",
                         *data, *splits, "--split", "test"] for f in self.FAMILIES]
        cmds.append(base + ["rank", "--model", f"out/model_cnn_{POSITION}.txt",
                            *data, "--gameweek", str(self.size["rank_gw"])])
        cmds.append(base + ["explain", "--model", f"out/model_gbm_{POSITION}.txt",
                            *data, *splits])
        return cmds

    def run_pass(self, pass_dir, pool2=False):
        result = PassResult()
        with timed(result), inside(pass_dir):
            result.ops = [run_cli(argv) for argv in self.commands()]
        result.artifacts = file_digests(pass_dir / "out")
        return result

    def check(self, pass_dir):
        out = pass_dir / "out"
        players, strengths, assignment = season.read_outputs(out, POSITION)
        (A_train, y_train), (A_val, y_val) = (
            season.split_design(players, strengths, assignment, split, 3,
                                season.TIER_COLUMNS["ptsonly"])
            for split in ("train", "validation"))
        baseline = season.mean_predictor_mse(y_train, y_val)
        reference = season.least_squares_mse(A_train, y_train, A_val, y_val)
        problems, val_mses = [], []
        for family in self.FAMILIES:
            with open(out / f"report_{family}.csv", newline="", encoding="utf-8") as fh:
                row = next(r for r in csv.DictReader(fh) if r["split"] == "validation")
            mse = float(row["mse"])
            val_mses.append(mse)
            if int(row["n"]) != len(y_val):
                problems.append(f"{family}: {row['n']} validation examples, "
                                f"expected {len(y_val)}")
            if mse > 0.95 * baseline:
                problems.append(f"{family}: validation MSE {mse:.4f} does not beat "
                                f"the mean predictor ({baseline:.4f}) by 5%")
        return float(np.mean(val_mses)) / reference, problems


class GridGbmFull(Workload):
    """`gridsearch --family gbm`; one operation is one trial."""

    name = "grid_gbm_full"
    why = ("GBM gridsearch on all 19 features: fit_gbm's split search is most "
           "of the time, with no CNN and no ingest.")
    op_label = "trials"
    AXES = {"n_trees": [50], "max_depth": [3], "num_leaves": [7],
            "lambda_l2": [1.0, 10.0], "min_data_in_leaf": [20, 70],
            "eta": [0.05, 0.1], "w": [3, 6, 9], "tier": ["full"]}
    has_pool = True

    @property
    def n_trials(self) -> int:
        return int(np.prod([len(v) for v in self.AXES.values()]))

    def setup(self):
        inputs = self.work / "inputs"
        with inside(inputs):
            for argv in (synth_args(self.seed, self.size), INGEST,
                         ["--out", "out", "--seed", str(self.seed), "split",
                          "--cleaned", f"out/cleaned_{POSITION}.csv"]):
                if not run_cli(argv)[1]:
                    raise SetupError(f"fplcast {' '.join(argv)} failed")
        for name, extra in (("grid.json", {}), ("grid_pool2.json", {"grid_workers": 2})):
            (self.work / name).write_text(json.dumps({"grid": self.AXES, **extra}))

    def run_pass(self, pass_dir, pool2=False):
        inputs = "../inputs/out"
        argv = ["--config", "../grid_pool2.json" if pool2 else "../grid.json",
                "--out", "out", "--seed", str(self.seed), "--position", POSITION,
                "gridsearch", "--cleaned", f"{inputs}/cleaned_{POSITION}.csv",
                "--strengths", f"{inputs}/synthetic_strengths.csv",
                "--splits", f"{inputs}/splits.csv", "--family", "gbm"]
        trials = []
        run_grid = harness.run_grid

        def capture(*args, **kwargs):
            results = run_grid(*args, **kwargs)
            trials.extend(results)
            return results

        result = PassResult()
        undo: list = []
        tracing.patch_everywhere(run_grid, capture, undo)
        try:
            with timed(result), inside(pass_dir):
                ok = run_cli(argv)[1]
        finally:
            tracing.restore(undo)
        result.artifacts = file_digests(pass_dir / "out")
        # TrialResult.wall_time is the program's own per-trial timer.
        result.ops = [(t.wall_time, t.error is None) for t in trials]
        if not ok:
            result.ops.append((result.wall, False))
        return result

    def check(self, pass_dir):
        summary = json.loads(
            (pass_dir / "out" / "summary_gbm.json").read_text())[POSITION]
        problems = []
        if summary["trials"] != self.n_trials or summary["failed"]:
            problems.append(f"{summary['trials']} trials with {summary['failed']} "
                            f"failed, expected {self.n_trials} without failures")
        # The reference sees the best trial's window and features.
        players, strengths, assignment = season.read_outputs(
            self.work / "inputs" / "out", POSITION)
        w, tier = summary["config"]["w"], summary["config"]["tier"]
        train, val = (season.split_design(players, strengths, assignment, split, w,
                                          season.TIER_COLUMNS[tier])
                      for split in ("train", "validation"))
        return summary["val_mse"] / season.least_squares_mse(*train, *val), problems


class Attribute(Workload):
    name = "attribute"
    why = ("Exact Shapley values of a 12-feature GBM: the gbm predict path "
           "without fitting, at a size the CLI refuses.")
    op_label = "explanations"
    N_BACKGROUND = 100
    FRACTIONS = (0.60, 0.25)  # train, validation; the rest is test

    def setup(self):
        inputs = self.work / "inputs"
        with inside(inputs):
            if not run_cli(synth_args(self.seed, self.size))[1]:
                raise SetupError("fplcast synth failed")
        players, strengths = season.read_season(
            inputs / "out" / "synthetic_gameweeks.csv",
            inputs / "out" / "synthetic_strengths.csv", POSITION)
        names = sorted(players)
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(names))
        n_train = round(self.FRACTIONS[0] * len(names))
        n_val = round(self.FRACTIONS[1] * len(names))
        assignment = {
            names[i]: "train" if k < n_train else
            "validation" if k < n_train + n_val else "test"
            for k, i in enumerate(order)
        }

        def design(split):
            return season.split_design(players, strengths, assignment, split, 3,
                                       season.TIER_COLUMNS["full"][:11])

        (A_train, y_train), (A_val, y_val), (A_test, _) = (
            design("train"), design("validation"), design("test"))
        self.model = gbm.fit_gbm(A_train, y_train)
        self.background = A_train[
            rng.choice(len(A_train), self.N_BACKGROUND, replace=False)]
        self.rows = A_test[np.sort(
            rng.choice(len(A_test), self.size["explanations"], replace=False))]
        self.expected = gbm.predict_gbm_batch(self.model, self.rows)
        val_mse = float(np.mean((y_val - gbm.predict_gbm_batch(self.model, A_val)) ** 2))
        self.val_ratio = val_mse / season.least_squares_mse(A_train, y_train, A_val, y_val)
        self.max_efficiency_error = 0.0

    @property
    def input_label(self) -> str:
        return (f"{len(self.rows)} test rows x {self.N_BACKGROUND} background rows, "
                f"{self.rows.shape[1]} features ({super().input_label})")

    def run_pass(self, pass_dir, pool2=False):
        result = PassResult()
        lines = []
        with timed(result):
            for x, fx in zip(self.rows, self.expected):
                t0 = perf_counter()
                explained = gbm.shapley_values(self.model, x, self.background)
                result.ops.append((perf_counter() - t0, True))
                error = abs(explained.base_value + float(explained.phi.sum()) - fx)
                self.max_efficiency_error = max(self.max_efficiency_error, error)
                lines.append(" ".join(repr(float(v))
                                      for v in (explained.base_value, *explained.phi)))
        text = "\n".join(lines).encode()
        result.artifacts = {"shapley_values": hashlib.sha256(text).hexdigest()}
        return result

    def check(self, pass_dir):
        problems = []
        if not self.max_efficiency_error <= 1e-9:
            problems.append(f"|base_value + sum(phi) - f(x)| reached "
                            f"{self.max_efficiency_error:.3g} > 1e-9")
        return self.val_ratio, problems


WORKLOADS = {w.name: w for w in (Chain, GridGbmFull, Attribute)}
