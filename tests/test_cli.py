import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fplcast.cli import build_parser, load_config, main
from fplcast.evaluation import average_ranks
from fplcast.ingest import GameweekTable
from fplcast.gbm import predict_gbm
from fplcast.serialize import (
    ModelContext, fmt_num, read_cleaned_csv, read_cnn, read_gbm, read_splits, write_gbm,
)

from test_gbm import sixteen_feature_model
from test_ingest import _fuzzy_match_oracle, _similarity_oracle
from test_serialize import corruptions, deep_chain_gbm

HEADER = (
    "name,position,GW,team,opponent_team,minutes,total_points,goals_scored,"
    "assists,clean_sheets,goals_conceded,saves,bps,bonus,influence,creativity,"
    "threat,ict_index,was_home"
)


def raw_line(name, gw, minutes, points, team="fulham", opponent="arsenal"):
    return (
        f"{name},FWD,{gw},{team},{opponent},{minutes},{points},0,0,0,0,0,10,0,"
        f"1.0,1.0,1.0,0.3,True"
    )


STRENGTHS = "season,team,strength\ns1,fulham,3\ns1,arsenal,4\n"


def write_raw(tmp_path, lines, name="raw.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return path


def synth_pipeline(tmp_path, seed=5, players=60, weeks=14):
    """synth -> ingest -> split; returns the shared argument lists."""
    out = tmp_path / "work"
    rc = main(
        ["--out", str(out), "--seed", str(seed), "synth",
         "--players", str(players), "--weeks", str(weeks)]
    )
    assert rc == 0
    rc = main(
        ["--out", str(out), "ingest",
         "--raw", f"synthetic={out / 'synthetic_gameweeks.csv'}",
         "--strengths", str(out / "synthetic_strengths.csv")]
    )
    assert rc == 0
    cleaned = [str(out / f"cleaned_{p}.csv") for p in ("GK", "DEF", "MID", "FWD")]
    rc = main(["--out", str(out), "--seed", str(seed), "split", "--cleaned"] + cleaned)
    assert rc == 0
    return out, cleaned, str(out / "synthetic_strengths.csv"), str(out / "splits.csv")


class TestIngest:
    def test_drops_benched_and_reports(self, tmp_path, capsys):
        lines = [
            raw_line("kane", 1, 90, 5),
            raw_line("kane", 2, 0, 0),
            raw_line("kane", 3, 80, 7),
            raw_line("kane", 4, 0, 0),
            raw_line("kane", 5, 90, 2),
        ]
        raw = write_raw(tmp_path, lines)
        strengths = tmp_path / "strengths.csv"
        strengths.write_text(STRENGTHS, encoding="utf-8")
        out = tmp_path / "out"
        rc = main(
            ["--out", str(out), "ingest", "--raw", f"s1={raw}",
             "--strengths", str(strengths)]
        )
        assert rc == 0
        report = (out / "ingest_report.txt").read_text()
        assert "dropped: 2 benched" in report
        rows = read_cleaned_csv((out / "cleaned_FWD.csv").read_text())
        assert len(rows) == 3

    def test_duplicate_spelling_merged_and_logged(self, tmp_path):
        lines = [
            raw_line("Aleksandar Mitrović", 1, 90, 5),
            raw_line("Aleksandar Mitrovic", 2, 90, 7),  # diacritic variant
            raw_line("Aleksander Mitrovic", 3, 90, 2),  # one-letter typo
        ]
        raw = write_raw(tmp_path, lines)
        strengths = tmp_path / "strengths.csv"
        strengths.write_text(STRENGTHS, encoding="utf-8")
        out = tmp_path / "out"
        assert main(
            ["--out", str(out), "ingest", "--raw", f"s1={raw}",
             "--strengths", str(strengths)]
        ) == 0
        rows = read_cleaned_csv((out / "cleaned_FWD.csv").read_text())
        names = set(rows.player_name)
        assert names == {"aleksandar mitrovic"}
        report = (out / "ingest_report.txt").read_text()
        assert "aleksander mitrovic" in report
        assert "fuzzy resolutions: 1" in report

    def test_repeated_misspelling_follows_the_oracle_merge(self, tmp_path):
        # The misspelling `typo` is 4 edits from `first`, then 4 from a tied
        # newcomer (`first` keeps it), then 1 from a closer one (`closer`
        # takes over); none of the three matches another.
        base = "abcdefghijklmnopqrstuvwxyzabcd"
        first, typo = base, "azzzz" + base[5:]
        tied, closer = typo[:10] + "0000" + typo[14:], "zzzzz" + base[5:]
        spellings = [first, typo, typo, tied, typo, closer, typo, typo]
        raw = write_raw(tmp_path, [raw_line(n, 1, 90, 1) for n in spellings])
        strengths = tmp_path / "strengths.csv"
        strengths.write_text(STRENGTHS, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--out", str(out), "ingest", "--raw", f"s1={raw}",
                     "--strengths", str(strengths)]) == 0

        # The merge over the oracle match: every row not yet known is
        # matched against all known names. Each group is then named after its
        # most frequent spelling (first seen on a tie) among those that joined
        # no other group: `typo` joined two, so neither group takes it.
        known, groups = [], []
        for name in spellings:
            if name not in known:
                match = _fuzzy_match_oracle(name, known) if known else None
                if match is None:
                    known.append(name)
                else:
                    name = match[0]
            groups.append(name)
        joined = {s: {g for t, g in zip(spellings, groups) if t == s} for s in spellings}
        names = []
        for group in groups:
            members = [s for s, g in zip(spellings, groups) if g == group
                       and joined[s] == {group}]
            names.append(max(members, key=lambda s: (members.count(s), -members.index(s))))
        lines = [
            f'  "{s}" -> "{n}" (score {fmt_num(_similarity_oracle(s, n))})'
            for s, n in zip(spellings, names) if s != n
        ]
        assert names == [first, first, first, tied, first, closer, closer, closer]
        assert read_cleaned_csv((out / "cleaned_FWD.csv").read_text()).player_name.tolist() == names
        report = (out / "ingest_report.txt").read_text().splitlines()
        assert report[report.index("fuzzy resolutions: 5") + 1:] == lines

    @pytest.mark.parametrize("gameweek", [1, 3, 6])
    def test_merged_player_takes_its_most_frequent_spelling(self, tmp_path, gameweek):
        # The seed-1 season's `banabanabana` is misspelled in one gameweek
        # only: in gameweek 1 the misspelling is seen first, but wherever it
        # is, the name with 5 of the 6 rows is kept.
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", "1", "synth",
                     "--players", "12", "--weeks", "6"]) == 0
        raw = out / "synthetic_gameweeks.csv"
        text = raw.read_text()
        row = f'"banabanabana","GK",{gameweek},'
        assert text.count(row) == 1
        raw.write_text(text.replace(row, f'"banabanabanxa","GK",{gameweek},'))
        assert main(["--out", str(out), "ingest", "--raw", f"synthetic={raw}",
                     "--strengths", str(out / "synthetic_strengths.csv")]) == 0
        names = read_cleaned_csv((out / "cleaned_GK.csv").read_text()).player_name.tolist()
        assert names.count("banabanabana") == 6 and "banabanabanxa" not in names
        report = (out / "ingest_report.txt").read_text().splitlines()
        score = fmt_num(_similarity_oracle("banabanabanxa", "banabanabana"))
        assert report[report.index("fuzzy resolutions: 1") + 1:] == [
            f'  "banabanabanxa" -> "banabanabana" (score {score})'
        ]

    @pytest.mark.parametrize("first, second", [
        ("Aleksander Mitrovic", "Aleksandar Mitrovic"),
        ("Aleksandar Mitrovic", "Aleksander Mitrovic"),
    ])
    def test_tied_spellings_keep_the_first_seen(self, tmp_path, first, second):
        spellings = [first, second, second, first]
        raw = write_raw(tmp_path, [raw_line(n, gw, 90, 1)
                                   for gw, n in enumerate(spellings, start=1)])
        strengths = tmp_path / "strengths.csv"
        strengths.write_text(STRENGTHS, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--out", str(out), "ingest", "--raw", f"s1={raw}",
                     "--strengths", str(strengths)]) == 0
        names = read_cleaned_csv((out / "cleaned_FWD.csv").read_text()).player_name
        assert names.tolist() == [first.lower()] * 4
        assert "fuzzy resolutions: 2" in (out / "ingest_report.txt").read_text()

    def test_missing_strength_entry_is_hard_error(self, tmp_path, capsys):
        raw = write_raw(tmp_path, [raw_line("kane", 1, 90, 5, opponent="chelsea")])
        strengths = tmp_path / "strengths.csv"
        strengths.write_text(STRENGTHS, encoding="utf-8")
        rc = main(
            ["--out", str(tmp_path / "out"), "ingest", "--raw", f"s1={raw}",
             "--strengths", str(strengths)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:lookup:")
        assert "chelsea" in err

    @pytest.mark.parametrize(
        "column,value",
        [("minutes", "abc")]
        + [(c, v) for c in ("minutes", "influence") for v in ("inf", "nan", "1e400")],
    )
    def test_parse_error_carries_line_number(self, tmp_path, capsys, column, value):
        cells = raw_line("kane", 1, 90, 5).split(",")
        cells[HEADER.split(",").index(column)] = value
        raw = write_raw(tmp_path, [",".join(cells)])
        strengths = tmp_path / "strengths.csv"
        strengths.write_text(STRENGTHS, encoding="utf-8")
        rc = main(
            ["--out", str(tmp_path / "out"), "ingest", "--raw", f"s1={raw}",
             "--strengths", str(strengths)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:parse:") and err.count("\n") == 1
        assert "line 2" in err and f"'{column}'" in err

    def test_team_rated_twice_is_one_parse_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "synth", "--players", "8", "--weeks", "3"]) == 0
        strengths = out / "synthetic_strengths.csv"
        with open(strengths, "a", encoding="utf-8") as fh:
            fh.write('"synthetic","team00",5\n"synthetic","TEAM01",1\n')
        capsys.readouterr()
        rc = main(["--out", str(out), "ingest",
                   "--raw", f"synthetic={out / 'synthetic_gameweeks.csv'}",
                   "--strengths", str(strengths)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("error:parse: line 22: team 'team00' is rated twice in season "
                       "synthetic (first on line 2)\n")

    @pytest.mark.parametrize("flag, line", [("raw", 3), ("strengths", 4)])
    def test_unreadable_row_is_one_parse_error(self, tmp_path, capsys, flag, line):
        files = {"raw": write_raw(tmp_path, [raw_line("kane", 1, 90, 5)]),
                 "strengths": tmp_path / "strengths.csv"}
        files["strengths"].write_text(STRENGTHS, encoding="utf-8")
        with open(files[flag], "a", encoding="utf-8") as fh:
            fh.write("k" * 200_000 + "\n")
        rc = main(["--out", str(tmp_path / "out"), "ingest", "--raw", f"s1={files['raw']}",
                   "--strengths", str(files["strengths"])])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error:parse: line {line}: field larger than field limit ({csv.field_size_limit()})\n"
        )

    def test_byte_order_marks_are_dropped(self, tmp_path):
        raw = write_raw(tmp_path, [raw_line("kane", 1, 90, 5)])
        for name, text in (("raw.csv", raw.read_text(encoding="utf-8")),
                           ("strengths.csv", STRENGTHS)):
            (tmp_path / f"bom_{name}").write_text("\ufeff" + text, encoding="utf-8")
            (tmp_path / name).write_text(text, encoding="utf-8")
        for prefix in ("", "bom_"):
            assert main(["--out", str(tmp_path / f"{prefix}out"), "ingest",
                         "--raw", f"s1={tmp_path / f'{prefix}raw.csv'}",
                         "--strengths", str(tmp_path / f"{prefix}strengths.csv")]) == 0
        for position in ("GK", "DEF", "MID", "FWD"):
            name = f"cleaned_{position}.csv"
            bom, plain = tmp_path / "bom_out" / name, tmp_path / "out" / name
            assert bom.read_bytes() == plain.read_bytes()


class TestConfig:
    def test_unknown_key_named(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"window_size": 3}), encoding="utf-8")
        rc = main(
            ["--config", str(config), "--out", str(tmp_path / "o"), "synth",
             "--players", "2", "--weeks", "2"]
        )
        assert rc == 1
        assert "window_size" in capsys.readouterr().err

    def test_config_overrides_default(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 9}), encoding="utf-8")
        out = tmp_path / "o"
        assert main(
            ["--config", str(config), "--out", str(out), "synth",
             "--players", "3", "--weeks", "3"]
        ) == 0
        direct = tmp_path / "o2"
        assert main(
            ["--out", str(direct), "--seed", "9", "synth",
             "--players", "3", "--weeks", "3"]
        ) == 0
        assert (out / "synthetic_gameweeks.csv").read_bytes() == (
            direct / "synthetic_gameweeks.csv"
        ).read_bytes()


class TestSplitCommand:
    def test_partition_and_metadata(self, tmp_path):
        out, cleaned, _, splits_path = synth_pipeline(tmp_path)
        splits = read_splits((out / "splits.csv").read_text())
        rows = GameweekTable.concat(
            [read_cleaned_csv(open(path).read()) for path in cleaned]
        )
        players = set(zip(rows.player_name, rows.position))
        assert len(splits.assignments) == len(players)
        assert set(splits.assignments.values()) <= {"train", "validation", "test"}


class TestTrainCommand:
    def test_ridge_beats_mean_predictor(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        rc = main(
            ["--out", str(out), "--seed", "5", "--position", "MID", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "ridge"]
        )
        assert rc == 0
        report = (out / "report_ridge.csv").read_text()
        val_line = next(
            line for line in report.splitlines() if '"validation"' in line
        )
        val_mse = float(val_line.split(",")[4])
        # Mean-predictor oracle on the validation targets.
        from fplcast.dataset import FeatureTier, Players, build_series
        from fplcast.ingest import Position, parse_strengths_csv

        rows = GameweekTable.concat(
            [read_cleaned_csv(open(path).read()) for path in cleaned]
        )
        tables = parse_strengths_csv(open(strengths).read())
        assignment = read_splits(open(splits).read()).assignments
        train_y, val_y = [], []
        mid = [s for s in build_series(rows) if s.key.position is Position.MID]
        windows = Players(mid, tables).windows(3, FeatureTier.PTSONLY)
        for key, y in zip(windows.players, windows.y):
            if assignment[key] == "train":
                train_y.append(y)
            elif assignment[key] == "validation":
                val_y.append(y)
        baseline = float(np.mean((np.array(val_y) - np.mean(train_y)) ** 2))
        assert val_mse < baseline

    def test_rerun_identical_model_file(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        args = [
            "--out", str(out), "--seed", "5", "--position", "GK", "train",
            "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
            "--family", "gbm",
        ]
        assert main(args) == 0
        first = (out / "model_gbm_GK.txt").read_bytes()
        assert main(args) == 0
        assert (out / "model_gbm_GK.txt").read_bytes() == first

    def test_position_filter(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        rc = main(
            ["--out", str(out), "--seed", "5", "--position", "GK", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "ridge"]
        )
        assert rc == 0
        assert (out / "model_ridge_GK.txt").exists()
        assert not (out / "model_ridge_MID.txt").exists()

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        return synth_pipeline(tmp_path_factory.mktemp("pipeline"))

    @pytest.fixture(scope="class", params=["ridge", "gbm", "cnn"])
    def trained(self, request, pipeline, tmp_path_factory):
        """(family, out) of one MID `train` into an out directory of its own."""
        _, cleaned, strengths, splits = pipeline
        out = tmp_path_factory.mktemp(f"train_{request.param}")
        assert main(
            ["--out", str(out), "--seed", "5", "--position", "MID", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", request.param]
        ) == 0
        return request.param, out

    def test_reports_only_train_and_validation_windows(self, pipeline, trained):
        from fplcast.dataset import FeatureTier, Players, build_series
        from fplcast.ingest import Position, parse_strengths_csv

        _, cleaned, strengths, splits = pipeline
        family, out = trained
        # Holdout discipline: the report covers the train and validation
        # windows only, whichever representation the family consumes.
        rows = list(csv.DictReader((out / f"report_{family}.csv").read_text().splitlines()))
        assert [r["split"] for r in rows] == ["train", "validation"]
        series = [
            s for s in build_series(read_cleaned_csv(open(cleaned[2]).read()))
            if s.key.position is Position.MID
        ]
        players = Players(series, parse_strengths_csv(open(strengths).read()),
                          read_splits(open(splits).read()).assignments)
        for row in rows:
            assert int(row["n"]) == len(players.windows(3, FeatureTier.PTSONLY, row["split"]))

    def test_writes_its_model_and_reports_and_no_examples(self, trained):
        from fplcast.harness import model_family

        family, out = trained
        written = {p.name for p in out.iterdir()}
        curve = {"learning_curve_MID.csv"} if family == "cnn" else set()
        assert written == {f"model_{family}_MID.txt", f"report_{family}.csv",
                           "run.log", *curve}
        model = model_family((out / f"model_{family}_MID.txt").read_text())
        assert model is not None and model.name == family

    def test_non_finite_cleaned_cell_is_a_format_error(self, tmp_path, capsys):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        path = out / "cleaned_MID.csv"
        header, first, *rest = path.read_text().splitlines(keepends=True)
        cells = first.split(",")
        cells[header.split(",").index("influence")] = "nan"
        path.write_text("".join([header, ",".join(cells), *rest]))
        capsys.readouterr()
        rc = main(
            ["--out", str(out), "--seed", "5", "--position", "MID", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "cnn"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and err.count("\n") == 1
        assert "line 2: influence" in err
        assert not (out / "model_cnn_MID.txt").exists()


class TestEvaluateCommand:
    def test_writes_reports_and_predictions(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        main(
            ["--out", str(out), "--seed", "5", "--position", "MID", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "ridge"]
        )
        rc = main(
            ["--out", str(out), "evaluate", "--model",
             str(out / "model_ridge_MID.txt"),
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--split", "test"]
        )
        assert rc == 0
        assert (out / "eval_ridge_MID_test.csv").exists()
        predictions = (out / "predictions_ridge_MID_test.csv").read_text()
        assert predictions.startswith("true,predicted,player,gameweek,position")
        extremes = (out / "extremes_ridge_MID_test.csv").read_text()
        assert '"worst"' in extremes and '"best"' in extremes

    def test_truncated_model_is_a_format_error(self, tmp_path, capsys):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        main(
            ["--out", str(out), "--seed", "5", "--position", "MID", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "gbm"]
        )
        model = out / "model_gbm_MID.txt"
        lines = model.read_text().splitlines(keepends=True)
        model.write_text("".join(lines[: len(lines) // 2]))
        capsys.readouterr()
        rc = main(
            ["--out", str(out), "evaluate", "--model", str(model),
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and err.count("\n") == 1

    def test_model_with_another_tier_is_a_format_error(self, tmp_path, capsys):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        main(
            ["--out", str(out), "--seed", "5", "--position", "MID", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "ridge"]
        )
        model = out / "model_ridge_MID.txt"
        text = model.read_text()
        assert "\ntier ptsonly\n" in text
        model.write_text(text.replace("\ntier ptsonly\n", "\ntier full\n", 1))
        capsys.readouterr()
        rc = main(
            ["--out", str(out), "evaluate", "--model", str(model),
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits]
        )
        assert rc == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:format:") and "scaler" in err

    def test_truncated_splits_is_a_format_error(self, tmp_path, capsys):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        main(
            ["--out", str(out), "--seed", "5", "--position", "MID", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "ridge"]
        )
        cut = tmp_path / "splits_cut.csv"
        cut.write_text(open(splits).read().splitlines(keepends=True)[0])
        capsys.readouterr()
        rc = main(
            ["--out", str(out), "evaluate", "--model", str(out / "model_ridge_MID.txt"),
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", str(cut)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and err.count("\n") == 1

    def test_player_assigned_twice_is_a_format_error(self, tiny_season, tmp_path, capsys):
        _, files = tiny_season
        text = open(files["splits"], encoding="utf-8").read()
        name, position, split = text.splitlines()[-1].split(",")
        other = '"train"' if split != '"train"' else '"test"'
        twice = tmp_path / "splits_twice.csv"
        twice.write_text(text + f"{name},{position},{other}\n", encoding="utf-8")
        capsys.readouterr()
        argv = _argv("evaluate", "ridge", {**files, "splits": str(twice)}, tmp_path / "o")
        assert main(argv) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:format:") and name.strip('"') in err
        assert not list((tmp_path / "o").glob("eval_*.csv"))


def _run_on_threads(threads: str | None, argv: list[str]) -> bytes:
    """stdout of `python argv` with fplcast's sources and `threads` BLAS
    threads; None leaves every BLAS thread variable unset."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
    if threads is None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
    return subprocess.run(
        [sys.executable, *argv], env=env, check=True, capture_output=True
    ).stdout


class TestBlasThreads:
    """A k3 conv over 18 features makes the conv a real matrix product; the
    README chain's k1 `ptsonly` conv has an inner dimension of 1."""

    CONV = """
import hashlib, numpy as np
from fplcast.cnn import forward_batch, init_model
rng = np.random.default_rng(0)
model = init_model(9, 3, 18, n_filters=64, n_hidden=64, seed=1)
for n in (32, 1000):
    _, (unrolled, a_conv, *_rest) = forward_batch(
        model, rng.normal(size=(n, 9, 18)), rng.normal(size=n))
    print(hashlib.sha256(unrolled.tobytes() + a_conv.tobytes()).hexdigest())
"""

    def test_wide_conv_is_the_same_on_one_and_two_threads(self):
        one, two = (_run_on_threads(t, ["-c", self.CONV]) for t in ("1", "2"))
        assert len(one.split()) == 2 and one == two

    def test_wide_cnn_trains_alike_on_one_and_two_threads(self, tmp_path):
        # Unset, fplcast pins one thread, so the bytes equal a one-thread
        # run. On two threads they may differ: OpenBLAS sums the hidden
        # layer's product (inner dimension 64 * 7 + 1) in another order.
        out, cleaned, strengths, splits = synth_pipeline(tmp_path, players=60, weeks=20)
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({
            "w": 9, "tier": "full", "cnn_kernel": 3, "cnn_filters": 64,
            "cnn_hidden": 64, "epochs": 2, "patience": 2,
        }))
        models = []
        for threads in (None, "1", "2"):
            run_out = tmp_path / f"threads{threads}"
            _run_on_threads(threads, [
                "-m", "fplcast.cli", "--config", str(config), "--out", str(run_out),
                "--seed", "5", "--position", "MID", "train", "--cleaned", *cleaned,
                "--strengths", strengths, "--splits", splits, "--family", "cnn",
            ])
            models.append((run_out / "model_cnn_MID.txt").read_text())
        assert models[0] == models[1]
        headers = [text.split("\nparam ")[0] for text in models[1:]]
        assert headers[0] == headers[1]
        (one, _), (two, _) = map(read_cnn, models[1:])
        assert one.conv_w.shape == (64, 3, 18)
        for name, p in one.params().items():
            q = two.params()[name]
            assert p.shape == q.shape
            assert np.abs(p - q).max() <= 1e-12 * np.abs(p).max(), name


class TestRankCommand:
    def test_season_selects_the_rows_and_a_missing_one_is_named(self, tmp_path, capsys):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        main(
            ["--out", str(out), "--seed", "5", "--position", "FWD", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "ridge"]
        )
        ranked = []
        for season, run_out in ((None, out / "latest"), ("synthetic", out / "named")):
            rc = main(
                ["--out", str(run_out), "rank", "--model", str(out / "model_ridge_FWD.txt"),
                 "--cleaned", *cleaned, "--strengths", strengths, "--gameweek", "10"]
                + (["--season", season] if season else [])
            )
            assert rc == 0
            ranked.append((run_out / "rank_FWD_gw10.csv").read_bytes())
        assert ranked[0] == ranked[1]
        capsys.readouterr()
        rc = main(
            ["--out", str(out / "nope"), "rank", "--model", str(out / "model_ridge_FWD.txt"),
             "--cleaned", *cleaned, "--strengths", strengths, "--gameweek", "10",
             "--season", "nope"]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error:data: no cleaned rows for season 'nope'\n"
        assert not (out / "nope").exists()

    def test_descending_with_alphabetical_ties(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        main(
            ["--out", str(out), "--seed", "5", "--position", "FWD", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "gbm"]
        )
        rc = main(
            ["--out", str(out), "rank", "--model", str(out / "model_gbm_FWD.txt"),
             "--cleaned", *cleaned, "--strengths", strengths,
             "--gameweek", "10"]
        )
        assert rc == 0
        lines = (out / "rank_FWD_gw10.csv").read_text().splitlines()[1:]
        predicted = [float(line.split(",")[2]) for line in lines]
        names = [line.split(",")[1] for line in lines]
        assert predicted == sorted(predicted, reverse=True)
        for (pa, na), (pb, nb) in zip(
            zip(predicted, names), zip(predicted[1:], names[1:])
        ):
            if pa == pb:
                assert na <= nb
        # Tied-rank annotations agree with the rank utility.
        tied = [float(line.split(",")[3]) for line in lines]
        np.testing.assert_allclose(
            sorted(tied), sorted(average_ranks([-p for p in predicted]))
        )


class TestDifficultySign:
    """difficulty_sign own_minus_opponent negates d wherever it is used."""

    def train_ridge(self, tmp_path, out, cleaned, strengths, splits, sign):
        config = tmp_path / f"{sign}.json"
        config.write_text(json.dumps({"difficulty_sign": sign}), encoding="utf-8")
        for pos in ("GK", "MID"):
            assert main(
                ["--config", str(config), "--out", str(out), "--seed", "5",
                 "--position", pos, "train", "--cleaned", *cleaned,
                 "--strengths", strengths, "--splits", splits, "--family", "ridge"]
            ) == 0
        assert main(
            ["--out", str(out), "explain", "--model",
             str(out / "model_ridge_GK.txt"), str(out / "model_ridge_MID.txt")]
        ) == 0

    def test_coefficients_mirror_under_negated_difficulty(self, tmp_path):
        _, cleaned, strengths, splits = synth_pipeline(tmp_path)
        tables = []
        for sign in ("opponent_minus_own", "own_minus_opponent"):
            out = tmp_path / sign
            self.train_ridge(tmp_path, out, cleaned, strengths, splits, sign)
            header, *rows = csv.reader((out / "coefficients.csv").read_text().splitlines())
            values = np.array([[float(v) for v in row[1:]] for row in rows])
            tables.append((header[1:-1], values[:, :-1], values[:, -1]))
        (features, coef, intercepts), (_, flipped_coef, flipped_intercepts) = tables
        # Negation is exact in floating point, so the fit mirrors bit for bit.
        gap = features.index("difficulty_gap")
        sign = np.where(np.arange(len(features)) == gap, -1.0, 1.0)
        np.testing.assert_array_equal(flipped_coef, coef * sign)
        np.testing.assert_array_equal(flipped_intercepts, intercepts)


class TestExplainCommands:
    def test_ridge_coefficients_csv(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        for pos in ("GK", "MID"):
            main(
                ["--out", str(out), "--seed", "5", "--position", pos, "train",
                 "--cleaned", *cleaned, "--strengths", strengths,
                 "--splits", splits, "--family", "ridge"]
            )
        rc = main(
            ["--out", str(out), "explain", "--model",
             str(out / "model_ridge_GK.txt"), str(out / "model_ridge_MID.txt")]
        )
        assert rc == 0
        header = (out / "coefficients.csv").read_text().splitlines()[0]
        assert header == '"position","total_points","difficulty_gap","intercept"'

    def test_gbm_shapley_on_full_tier_is_efficient(self, tmp_path, capsys):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        config = tmp_path / "cfg.json"
        # full tier: 18 statistics + difficulty = 19 features.
        config.write_text(
            json.dumps({"tier": "full", "gbm_min_data_in_leaf": 5}),
            encoding="utf-8",
        )
        main(
            ["--config", str(config), "--out", str(out), "--seed", "5",
             "--position", "MID", "train", "--cleaned", *cleaned,
             "--strengths", strengths, "--splits", splits, "--family", "gbm"]
        )
        rc = main(
            ["--config", str(config), "--out", str(out), "explain", "--model",
             str(out / "model_gbm_MID.txt"), "--cleaned", *cleaned,
             "--strengths", strengths, "--splits", splits]
        )
        assert rc == 0
        rows = list(csv.reader((out / "shapley_MID.csv").read_text().splitlines()))
        assert rows[0] == ["feature", "value", "phi"]
        features, (base, prediction) = rows[1:-2], rows[-2:]
        assert len(features) == 19 and any(float(r[2]) != 0.0 for r in features)
        assert (base[0], prediction[0]) == ("__base_value__", "__prediction__")
        x = np.array([float(r[1]) for r in features])
        phi_sum = sum(float(r[2]) for r in features)
        model, _ = read_gbm((out / "model_gbm_MID.txt").read_text())
        assert float(base[2]) + phi_sum == pytest.approx(float(prediction[2]), abs=1e-9)
        assert float(base[2]) + phi_sum == pytest.approx(predict_gbm(model, x), abs=1e-9)

    def test_gbm_shapley_for_a_tree_on_16_features(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        model = tmp_path / "model_gbm_MID.txt"
        ctx = ModelContext(w=3, tier="full", position="MID")
        model.write_text(write_gbm(sixteen_feature_model(), ctx), encoding="utf-8")
        rc = main(
            ["--out", str(out), "explain", "--model", str(model), "--cleaned", *cleaned,
             "--strengths", strengths, "--splits", splits]
        )
        assert rc == 0
        rows = list(csv.reader((out / "shapley_MID.csv").read_text().splitlines()))
        phi_sum = sum(float(r[2]) for r in rows[1:-2])
        (_, _, base), (_, _, prediction) = rows[-2:]
        assert float(base) + phi_sum == pytest.approx(float(prediction), abs=1e-9)

    @pytest.mark.parametrize("family", ["ridge", "gbm", "cnn"])
    def test_a_second_model_the_explanation_would_drop_is_a_usage_error(
        self, tiny_season, tmp_path, capsys, family
    ):
        _, files = tiny_season
        argv = _argv("explain", family, files, tmp_path / "o")
        at = argv.index("--model")
        argv.insert(at + 2, files[family])  # the same MID model twice
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:usage:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("index", ["-1", "100000"])
    def test_shapley_example_index_out_of_range(self, tmp_path, capsys, index):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path, seed=3)
        main(
            ["--out", str(out), "--seed", "3", "--position", "MID", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "gbm"]
        )
        capsys.readouterr()
        rc = main(
            ["--out", str(out), "explain", "--model", str(out / "model_gbm_MID.txt"),
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--example-index", index]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:usage:") and err.count("\n") == 1
        assert not list(out.glob("shapley_*.csv"))

    def test_cnn_filter_csv_shape(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {"epochs": 2, "cnn_filters": 3, "cnn_hidden": 3, "cnn_kernel": 2}
            ),
            encoding="utf-8",
        )
        main(
            ["--config", str(config), "--out", str(out), "--seed", "5",
             "--position", "GK", "train", "--cleaned", *cleaned,
             "--strengths", strengths, "--splits", splits, "--family", "cnn"]
        )
        rc = main(
            ["--out", str(out), "explain", "--model",
             str(out / "model_cnn_GK.txt")]
        )
        assert rc == 0
        lines = (out / "filters_GK.csv").read_text().splitlines()
        assert lines[0] == '"window_row","total_points"'
        assert len(lines) == 1 + 2  # kernel rows

    def test_kind_is_an_unknown_flag(self, tmp_path, capsys):
        # The model file fixes the explanation; there is no flag to name it.
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        main(
            ["--out", str(out), "--seed", "5", "--position", "GK", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "ridge"]
        )
        capsys.readouterr()
        rc = main(
            ["--out", str(out), "explain", "--kind", "coefficients", "--model",
             str(out / "model_ridge_GK.txt")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:usage:") and "--kind" in err
        assert len(err.splitlines()) == 1


class TestGridsearchCommand:
    def test_cnn_infeasible_corner_recorded(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {"grid": {"k": [1, 5], "w": [3]}, "epochs": 2,
                 "cnn_filters": 2, "cnn_hidden": 2}
            ),
            encoding="utf-8",
        )
        rc = main(
            ["--config", str(config), "--out", str(out), "--seed", "5",
             "--position", "GK", "gridsearch", "--cleaned", *cleaned,
             "--strengths", strengths, "--splits", splits, "--family", "cnn"]
        )
        assert rc == 0
        ledger = (out / "trials_cnn_GK.csv").read_text()
        assert '"failed"' in ledger and "kernel 5 exceeds window 3" in ledger
        assert ledger.splitlines()[0].startswith('"k","w","train_mse"')
        summary = json.loads((out / "summary_cnn.json").read_text())
        assert summary["GK"]["failed"] == 1
        # The keys outside the grid reach every trial.
        assert summary["GK"]["config"]["epochs"] == 2
        assert summary["GK"]["config"]["filters"] == 2

    def test_keys_outside_the_grid_train_as_train_does(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"grid": {"lambda": [1.0]}, "tier": "full", "w": 6}),
            encoding="utf-8",
        )
        for command in ("gridsearch", "train"):
            rc = main(
                ["--config", str(config), "--out", str(out / command), "--seed", "5",
                 "--position", "MID", command, "--cleaned", *cleaned,
                 "--strengths", strengths, "--splits", splits, "--family", "ridge"]
            )
            assert rc == 0
        best = json.loads((out / "gridsearch" / "summary_ridge.json").read_text())["MID"]
        assert best["config"] == {"lambda": 1.0, "tier": "full", "w": 6}
        reports = (out / "train" / "report_ridge.csv").read_text().splitlines()
        validation = next(line for line in reports if '"validation"' in line)
        assert best["val_mse"] == float(validation.split(",")[4])
        trials = (out / "gridsearch" / "trials_ridge_MID.csv").read_text()
        assert trials.splitlines()[0].startswith('"lambda","train_mse"')

    def test_writes_ledger_and_summary(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"grid": {"lambda": [0.1, 1.0], "w": [2, 3]}, "top_k": 2}),
            encoding="utf-8",
        )
        rc = main(
            ["--config", str(config), "--out", str(out), "--seed", "5",
             "--position", "MID", "gridsearch", "--cleaned", *cleaned,
             "--strengths", strengths, "--splits", splits, "--family", "ridge",
             "--finalize"]
        )
        assert rc == 0
        ledger = (out / "trials_ridge_MID.csv").read_text()
        assert len(ledger.splitlines()) == 1 + 4
        summary = json.loads((out / "summary_ridge.json").read_text())
        assert "MID" in summary
        assert summary["MID"]["test_mse"] is not None
        assert summary["MID"]["top_k"]["k"] == 2

    def test_grid_workers_is_accepted_without_effect(self, tmp_path):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid_workers": 2}), encoding="utf-8")
        outputs = []
        for extra, run_out in (([], tmp_path / "serial"),
                               (["--config", str(config)], tmp_path / "workers")):
            rc = main(
                extra + ["--out", str(run_out), "--seed", "5", "--position", "MID",
                         "gridsearch", "--cleaned", *cleaned, "--strengths", strengths,
                         "--splits", splits, "--family", "ridge"]
            )
            assert rc == 0
            outputs.append(
                [(run_out / name).read_bytes()
                 for name in ("trials_ridge_MID.csv", "summary_ridge.json")]
            )
        assert outputs[0] == outputs[1]


class TestCvCommand:
    def test_writes_report(self, tmp_path):
        out, cleaned, strengths, _ = synth_pipeline(tmp_path)
        rc = main(
            ["--out", str(out), "--seed", "5", "--position", "DEF", "cv",
             "--cleaned", *cleaned, "--strengths", strengths,
             "--family", "ridge"]
        )
        assert rc == 0
        lines = (out / "cv_ridge.csv").read_text().splitlines()
        assert lines[0] == "family,position,mean_train_mse,mean_val_mse"
        assert lines[1].startswith('"ridge","DEF"')


@pytest.fixture(scope="module")
def tiny_season(tmp_path_factory):
    """A tiny synthetic season, split, with a MID model of every family."""
    root = tmp_path_factory.mktemp("tiny")
    out, cleaned, strengths, splits = synth_pipeline(root, seed=4, players=30, weeks=8)
    config = root / "small.json"
    config.write_text(json.dumps(
        {"epochs": 1, "cnn_filters": 2, "cnn_hidden": 2, "gbm_min_data_in_leaf": 5}
    ))
    files = {"cleaned": cleaned[2], "strengths": strengths, "splits": splits,
             "raw": str(out / "synthetic_gameweeks.csv"), "config": str(config)}
    for family in ("ridge", "gbm", "cnn"):
        assert main(
            ["--config", str(config), "--out", str(out), "--seed", "4",
             "--position", "MID", "train", "--cleaned", cleaned[2],
             "--strengths", strengths, "--splits", splits, "--family", family]
        ) == 0
        files[family] = str(out / f"model_{family}_MID.txt")
    for command in ("synth", "ingest", "split", "evaluate", "rank", "explain"):
        for family in ("ridge", "gbm", "cnn"):
            assert main(_argv(command, family, files, root / "check")) == 0
    return root, files


def _argv(command, family, files, out):
    """A command line of `command` over `files`; the model is `family`'s."""
    data = ["--cleaned", files["cleaned"], "--strengths", files["strengths"]]
    base = ["--config", files["config"], "--out", str(out), "--position", "MID"]
    return base + {
        "synth": ["synth", "--players", "2", "--weeks", "2"],
        "ingest": ["ingest", "--raw", f"synthetic={files['raw']}",
                   "--strengths", files["strengths"]],
        "split": ["split", "--cleaned", files["cleaned"]],
        "train": ["train", *data, "--splits", files["splits"], "--family", family],
        "gridsearch": ["gridsearch", *data, "--splits", files["splits"],
                       "--family", family],
        "cv": ["cv", *data, "--family", family],
        "evaluate": ["evaluate", "--model", files[family], *data,
                     "--splits", files["splits"], "--split", "validation"],
        "rank": ["rank", "--model", files[family], *data, "--gameweek", "6"],
        "explain": ["explain", "--model", files[family], *data,
                    "--splits", files["splits"], "--split", "validation"],
    }[command]


def _assert_one_error_line(err: str):
    assert re.fullmatch(r"error:[a-z]+: [^\n]*\n", err), err


class TestInputFileFailures:
    # (flag, the command that reads it first)
    FLAGS = [("config", "synth"), ("raw", "ingest"), ("strengths", "ingest"),
             ("cleaned", "split"), ("splits", "train"), ("model", "evaluate")]

    @pytest.mark.parametrize("flag, command", FLAGS, ids=[f for f, _ in FLAGS])
    @pytest.mark.parametrize(
        "failure, category",
        [("missing", "io"), ("directory", "io"), ("not_utf8", "format")],
    )
    def test_unreadable_file_is_one_error_line(
        self, tiny_season, tmp_path, capsys, flag, command, failure, category
    ):
        _, files = tiny_season
        key = "ridge" if flag == "model" else flag
        bad = tmp_path / "bad"
        if failure == "directory":
            bad.mkdir()
        elif failure == "not_utf8":
            bad.write_bytes(b"\xff" + open(files[key], "rb").read())
        argv = _argv(command, "ridge", {**files, key: str(bad)}, tmp_path / "out")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith(f"error:{category}:") and str(bad) in err

    # Every input each command reads.
    INPUTS = {
        "ingest": ["raw", "strengths"],
        "split": ["cleaned"],
        "train": ["cleaned", "strengths", "splits"],
        "gridsearch": ["cleaned", "strengths", "splits"],
        "cv": ["cleaned", "strengths"],
        "evaluate": ["model", "cleaned", "strengths", "splits"],
        "rank": ["model", "cleaned", "strengths"],
        "explain": ["model", "cleaned", "strengths", "splits"],
    }

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in INPUTS.items() for flag in flags
    ])
    def test_missing_input_creates_no_out(self, tiny_season, tmp_path, capsys, command, flag):
        _, files = tiny_season
        key = "gbm" if flag == "model" else flag
        argv = _argv(command, "gbm", {**files, key: str(tmp_path / "missing")},
                     tmp_path / "out")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:io:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "gridsearch", "cv"])
    def test_position_without_players_creates_no_out(self, tiny_season, tmp_path, capsys,
                                                     command):
        _, files = tiny_season
        argv = _argv(command, "ridge", files, tmp_path / "out")
        argv[argv.index("MID")] = "GK"  # the tiny season's cleaned file holds MID only
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error:data: no players with position GK\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family, pattern, replacement", [
        ("ridge", r"(\nfeature\t[^\t]*\t)[^\n]*", r"\g<1>inf"),
        ("gbm", r"(\nL )[^ ]*", r"\g<1>nan"),
        ("cnn", r"(\nparam out_b 1\n)[^\n]*", r"\g<1>nan"),
        ("cnn", r"\Z", "param conv_b 2\n0 0\n"),
    ], ids=["ridge_inf", "gbm_nan", "cnn_nan", "cnn_param_twice"])
    def test_rank_refuses_a_model_with_a_bad_number(
        self, tiny_season, tmp_path, capsys, family, pattern, replacement
    ):
        _, files = tiny_season
        text = open(files[family]).read()
        bad = tmp_path / "model.txt"
        bad.write_text(re.sub(pattern, replacement, text, count=1))
        assert bad.read_text() != text
        capsys.readouterr()
        assert main(_argv("rank", family, {**files, family: str(bad)}, tmp_path / "out")) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:format:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "rank", "explain"])
    def test_a_tree_nested_1200_deep_is_one_format_error(
        self, tiny_season, tmp_path, capsys, command
    ):
        _, files = tiny_season
        bad = tmp_path / "model.txt"
        bad.write_text(deep_chain_gbm(open(files["gbm"]).read(), 1200))
        capsys.readouterr()
        assert main(_argv(command, "gbm", {**files, "gbm": str(bad)}, tmp_path / "out")) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:format:") and "deeper than max_depth=3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["file", "file/below"])
    def test_out_naming_a_file_is_an_io_error(self, tiny_season, tmp_path, capsys, out):
        _, files = tiny_season
        (tmp_path / "file").write_text("")
        capsys.readouterr()
        assert main(_argv("split", "ridge", files, tmp_path / out)) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:io:")

    @pytest.mark.parametrize("command, blocked", [
        ("train", "model_ridge_MID.txt"), ("synth", "run.log"),
    ])
    def test_unwritable_output_is_one_io_error(
        self, tiny_season, tmp_path, capsys, command, blocked
    ):
        _, files = tiny_season
        (tmp_path / "out" / blocked).mkdir(parents=True)
        capsys.readouterr()
        assert main(_argv(command, "ridge", files, tmp_path / "out")) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith(f"error:io: cannot write output file {tmp_path / 'out' / blocked}: ")


    def test_line_break_in_a_cell_stays_on_the_error_line(
        self, tiny_season, tmp_path, capsys
    ):
        _, files = tiny_season
        bad = tmp_path / "cleaned.csv"
        bad.write_text(open(files["cleaned"]).read().replace('"team', '"te\nam'))
        capsys.readouterr()
        assert main(_argv("rank", "ridge", {**files, "cleaned": str(bad)}, tmp_path)) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:lookup: no strength rating for team 'te am")


@st.composite
def damaged(draw, data: bytes):
    """`data` cut short, with one byte flipped, or with one line replaced
    (test_serialize's corruptions)."""
    how = draw(st.sampled_from(["cut", "flip", "line"]))
    if how == "cut":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    return draw(corruptions(data.decode())).encode()


class TestEveryFailureIsOneLine:
    INPUTS = {
        "ingest": ["raw", "strengths"],
        "train": ["cleaned", "strengths", "splits"],
        "evaluate": ["model", "cleaned", "strengths", "splits"],
        "rank": ["model", "cleaned", "strengths"],
        "explain": ["model", "cleaned", "strengths", "splits"],
    }

    def test_damaged_input_exits_0_or_prints_one_error_line(self, tiny_season):
        root, files = tiny_season
        originals = {name: open(path, "rb").read() for name, path in files.items()}

        @settings(max_examples=400, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.data())
        def check(data):
            command = data.draw(st.sampled_from(sorted(self.INPUTS)))
            family = data.draw(st.sampled_from(["ridge", "gbm", "cnn"]))
            name = data.draw(st.sampled_from(self.INPUTS[command]))
            key = family if name == "model" else name
            bad = root / f"damaged_{name}"
            bad.write_bytes(data.draw(damaged(originals[key])))
            argv = _argv(command, family, {**files, key: str(bad)}, root / "out")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = main(argv)
            assert rc in (0, 1)
            if rc == 1:
                _assert_one_error_line(err.getvalue())
            else:
                assert err.getvalue() == ""

        check()


HUGE = "1" + "0" * 400  # a JSON integer too large for a float

# CNN config keys whose fit diverges in its first epoch: the penalty
# overflows, or the first Adam steps make the weights nan.
DIVERGING = [
    {"cnn_lambda1": 2.68527679243175e307, "epochs": 3},
    {"learning_rate": 1.157920892373161e77, "epochs": 3},
]


class TestConfigChecks:
    # (config file text, the command that loads it, what the error names)
    BAD = [
        ("[1, 2]", "synth", "JSON object"),
        ('"seed"', "synth", "JSON object"),
        ('{"fractions": 5}', "split", "fractions"),
        ('{"fractions": [0.6, 0.4]}', "split", "fractions"),
        ('{"fractions": [0.6, "a", 0.4]}', "split", "fractions"),
        ('{"fractions": [0.6, NaN, 0.4]}', "split", "fractions"),
        ('{"grid": {"w": 3}}', "gridsearch", "grid"),
        ('{"grid": {"w": []}}', "gridsearch", "grid"),
        ('{"grid": [3]}', "gridsearch", "grid"),
        ('{"grid": {"w": [2.5]}}', "gridsearch", "'w'"),
        ('{"grid": {"w": [true, 2]}}', "gridsearch", "'w'"),
        ('{"grid": {"tier": ["nope"]}}', "gridsearch", "'tier'"),
        ('{"grid": {"lambda": ["x"]}}', "gridsearch", "'lambda'"),
        ('{"ridge_lambda": NaN}', "train", "ridge_lambda"),
        ('{"ridge_lambda": Infinity}', "train", "ridge_lambda"),
        ('{"ridge_lambda": "1.0"}', "train", "ridge_lambda"),
        ('{"w": 3.0}', "train", "'w'"),
        ('{"w": true}', "train", "'w'"),
        ('{"seed": null}', "synth", "seed"),
        ('{"tier": "nope"}', "train", "tier"),
        ('{"difficulty_sign": "up"}', "train", "difficulty_sign"),
        ('{"strat_on": "median"}', "split", "strat_on"),
        ('{"cnn_activation": "sigmoid"}', "train", "cnn_activation"),
        ('{"epochs": -Infinity}', "train", "epochs"),
        # An integer too large for a float, where a float is expected.
        *(pytest.param(f'{{"{key}": {value}}}', command, named, id=f"int_too_large_for_{key}")
          for key, value, command, named in [
              ("fuzzy_threshold", HUGE, "ingest", "fuzzy_threshold"),
              ("fractions", f"[0.6, {HUGE}, 0.15]", "split", "fractions"),
              ("ridge_lambda", HUGE, "train", "ridge_lambda"),
              ("gbm_eta", HUGE, "train", "gbm_eta"),
              ("learning_rate", HUGE, "train", "learning_rate"),
              ("grid", f'{{"lambda": [{HUGE}]}}', "gridsearch", "'lambda'"),
          ]),
    ]

    @pytest.mark.parametrize("text, command, named", BAD)
    def test_bad_config_is_one_config_error(
        self, tiny_season, tmp_path, capsys, text, command, named
    ):
        _, files = tiny_season
        config = tmp_path / "cfg.json"
        config.write_text(text, encoding="utf-8")
        argv = _argv(command, "ridge", {**files, "config": str(config)}, tmp_path / "o")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:config:") and named in err
        assert not (tmp_path / "o").exists()

    # (config keys, the command that uses them, what the error names):
    # well-typed counts that no run can use.
    BAD_COUNTS = [
        ({"n_bins": 0}, "split", "n_bins"),
        ({"n_bins": -1}, "split", "n_bins"),
        ({"cv_bins": 0}, "cv", "n_bins"),
        ({"top_k": 0}, "gridsearch", "top-k"),
        ({"top_k": -1}, "gridsearch", "top-k"),
        ({"extreme_k": -1}, "evaluate", "k=-1"),
        ({"shapley_background": 0}, "explain", "shapley_background"),
        ({"shapley_background": -3}, "explain", "shapley_background"),
    ]

    @staticmethod
    def with_config(files, path, keys):
        """`files` with a config that also sets `keys`, written to `path`."""
        with open(files["config"], encoding="utf-8") as fh:
            path.write_text(json.dumps({**json.load(fh), **keys}), encoding="utf-8")
        return {**files, "config": str(path)}

    @pytest.mark.parametrize(
        "keys, command, named", BAD_COUNTS, ids=[json.dumps(k) for k, _, _ in BAD_COUNTS]
    )
    def test_unusable_count_is_one_error_line(
        self, tiny_season, tmp_path, capsys, keys, command, named
    ):
        _, files = tiny_season
        files = self.with_config(files, tmp_path / "cfg.json", keys)
        capsys.readouterr()
        assert main(_argv(command, "ridge", files, tmp_path / "o")) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert named in err
        # The count is checked before any trial runs.
        assert not list((tmp_path / "o").glob("trials_*.csv"))

    def test_extreme_k_zero_writes_only_the_header(self, tiny_season, tmp_path):
        _, files = tiny_season
        files = self.with_config(files, tmp_path / "cfg.json", {"extreme_k": 0})
        assert main(_argv("evaluate", "ridge", files, tmp_path / "o")) == 0
        extremes = tmp_path / "o" / "extremes_ridge_MID_validation.csv"
        assert extremes.read_text() == "kind,true,predicted,squared_error,d,points_history\n"

    def test_int_stands_for_a_float(self, tiny_season, tmp_path):
        _, files = tiny_season
        outputs = []
        for value in ("2", "2.0"):
            config = tmp_path / f"cfg{value}.json"
            config.write_text(f'{{"ridge_lambda": {value}}}', encoding="utf-8")
            out = tmp_path / value
            assert main(_argv("train", "ridge", {**files, "config": str(config)}, out)) == 0
            outputs.append((out / "model_ridge_MID.txt").read_bytes())
        assert outputs[0] == outputs[1]

    def test_integer_keys_take_any_integer(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(f'{{"seed": {HUGE}, "epochs": -{HUGE}}}', encoding="utf-8")
        loaded = load_config(str(config), None)
        assert (loaded["seed"], loaded["epochs"]) == (int(HUGE), -int(HUGE))

    def test_well_typed_grid_value_out_of_range_is_a_failed_trial(self, tiny_season, tmp_path):
        _, files = tiny_season
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": {"w": [0, 3]}}), encoding="utf-8")
        argv = _argv("gridsearch", "ridge", {**files, "config": str(config)}, tmp_path / "o")
        assert main(argv) == 0
        text = (tmp_path / "o" / "trials_ridge_MID.csv").read_text()
        trials = {r["w"]: r["status"] for r in csv.DictReader(text.splitlines())}
        assert trials == {"0": "failed", "3": "ok"}

    @pytest.mark.parametrize(
        "family, axis",
        [("ridge", "lamda"), ("ridge", "k"), ("gbm", "lambda"), ("cnn", "lambda")],
    )
    def test_unknown_grid_axis_is_named(self, tiny_season, tmp_path, capsys, family, axis):
        _, files = tiny_season
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": {axis: [0.1, 100.0]}}), encoding="utf-8")
        argv = _argv("gridsearch", family, {**files, "config": str(config)}, tmp_path / "o")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:config:") and f"'{axis}'" in err
        assert not list((tmp_path / "o").glob("trials_*"))

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("keys", DIVERGING, ids=["huge_lambda1", "huge_learning_rate"])
    def test_diverging_cnn_is_one_data_error_and_no_model(
        self, tiny_season, tmp_path, capsys, keys, command
    ):
        _, files = tiny_season
        files = self.with_config(files, tmp_path / "cfg.json", keys)
        capsys.readouterr()
        assert main(_argv(command, "cnn", files, tmp_path / "o")) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:data: CNN training diverged in epoch 0: ")
        assert not list((tmp_path / "o").glob("*.*"))

    def test_diverging_cnn_trial_is_a_failed_trial(self, tiny_season, tmp_path, capsys):
        _, files = tiny_season
        grid = {"learning_rate": [0.001, DIVERGING[1]["learning_rate"]]}
        files = self.with_config(files, tmp_path / "cfg.json", {"grid": grid})
        capsys.readouterr()
        assert main(_argv("gridsearch", "cnn", files, tmp_path / "o")) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "o" / "trials_cnn_MID.csv").read_text()
        ok, failed = csv.DictReader(text.splitlines())
        assert (float(ok["learning_rate"]), ok["status"]) == (0.001, "ok")
        assert failed["status"] == "failed"
        assert failed["reason"].startswith("ValueError: CNN training diverged in epoch 0: ")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


class TestWarnings:
    def test_each_warning_is_one_stderr_line(self, tiny_season, tmp_path, capsys):
        _, files = tiny_season
        files = TestConfigChecks.with_config(files, tmp_path / "cfg.json", {"n_bins": 50})
        capsys.readouterr()
        assert main(_argv("split", "ridge", files, tmp_path / "o")) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(r"warning: n_bins=50 exceeds player count \d+; clamping\n", err), err
        # The header keeps the requested count; each position clamps its own.
        assert "# n_bins 50\n" in (tmp_path / "o" / "splits.csv").read_text()

    def test_gbm_on_constant_features_warns_in_one_line(self, tmp_path, capsys):
        names = ["kane", "salah", "haaland", "rashford", "vardy", "toney",
                 "watkins", "isak", "nunez", "mitoma", "odegaard", "bowen"]
        raw = write_raw(tmp_path, [raw_line(name, gw, 90, 4) for name in names
                                   for gw in range(1, 9)])
        strengths = tmp_path / "strengths.csv"
        strengths.write_text(STRENGTHS, encoding="utf-8")
        out, config = tmp_path / "out", tmp_path / "cfg.json"
        config.write_text(json.dumps({"gbm_min_data_in_leaf": 1}), encoding="utf-8")
        base = ["--config", str(config), "--out", str(out)]
        assert main(base + ["ingest", "--raw", f"s1={raw}",
                            "--strengths", str(strengths)]) == 0
        cleaned = str(out / "cleaned_FWD.csv")
        assert main(base + ["split", "--cleaned", cleaned]) == 0
        capsys.readouterr()
        assert main(base + ["--position", "FWD", "train", "--cleaned", cleaned,
                            "--strengths", str(strengths), "--splits",
                            str(out / "splits.csv"), "--family", "gbm"]) == 0
        assert capsys.readouterr().err == (
            "warning: every feature is constant: no split is possible and the model "
            "degenerates to its base score\n"
        )

    @pytest.mark.parametrize(
        "category", [DeprecationWarning, PendingDeprecationWarning, RuntimeWarning]
    )
    @pytest.mark.parametrize("module", ["fplcast", "fplcast.dataset"])
    def test_the_suite_fails_on_a_deprecation_or_numpy_warning_from_fplcast(
        self, category, module
    ):
        # pyproject.toml's filterwarnings turn these into errors in every
        # test, so a numpy deprecation that fplcast code meets fails the suite.
        with pytest.raises(category, match="planted"):
            warnings.warn_explicit("planted", category, "planted.py", 1, module=module)


class TestAnyConfig:
    # Keys that set the amount of work take small counts, so that one
    # example stays cheap.
    WORK = {"epochs", "gbm_n_trees", "gbm_num_leaves", "cnn_filters", "cnn_hidden"}

    @classmethod
    def values(cls, key):
        """Mostly a value of `key`'s type, otherwise any JSON value; a key
        that sets the amount of work never takes a large integer, and `grid`
        never null."""
        from fplcast.cli import _CONFIG_CHOICES, default_config
        from fplcast.harness import FAMILIES

        default = default_config()[key]
        # Now and then where a float is expected, an integer no float holds.
        too_large = st.integers(2**1024) | st.integers(max_value=-2**1024)
        if key == "grid":
            # At most two axes of at most two values, so at most four
            # trials; null, the default grid, would run up to 144.
            axes = {"w": "w", "tier": "tier", "nope": "w", **{
                axis: cli_key for family in FAMILIES.values()
                for axis, (cli_key, _) in family.params.items()
            }}
            axis = st.sampled_from(sorted(axes)).flatmap(lambda a: st.tuples(
                st.just(a), st.lists(cls.values(axes[a]), max_size=2)
            ))
            good = st.lists(axis, max_size=2).map(dict)
        elif key in cls.WORK:
            good = st.integers(-1, 4)
        elif key in _CONFIG_CHOICES:
            good = st.sampled_from(_CONFIG_CHOICES[key])
        elif key == "fractions":
            good = st.lists(_mostly(st.floats(-0.5, 1.5) | st.integers(-1, 2), too_large),
                            min_size=3, max_size=3)
        elif isinstance(default, float):
            good = _mostly(
                st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2, 4), too_large
            )
        else:
            good = st.integers(-2, 40)
        bad = json_values
        if key in cls.WORK or key == "grid":
            bad = json_values.filter(lambda v: type(v) is not int and v is not None)
        return _mostly(good, bad, 5)

    def test_every_command_exits_0_with_finite_numbers_or_prints_one_error_line(
        self, tiny_season
    ):
        import shutil

        from fplcast.cli import default_config

        root, files = tiny_season
        with open(files["config"], encoding="utf-8") as fh:
            base = {**json.load(fh), "grid": {"w": [3]}}
        keys = sorted(default_config())
        some_keys = st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)
        out = root / "any_config"

        @settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        # Two configs whose CNN fit diverges, once drawn at random.
        @example("train", "cnn", {**base, **DIVERGING[0]})
        @example("train", "cnn", {**base, **DIVERGING[1]})
        @given(
            st.sampled_from(["train", "gridsearch", "cv", "evaluate", "rank", "explain"]),
            st.sampled_from(["ridge", "gbm", "cnn"]),
            _mostly(some_keys.flatmap(
                lambda ks: st.fixed_dictionaries({k: self.values(k) for k in ks})
            ).map(lambda drawn: {**base, **drawn}), json_values),
        )
        def check(command, family, config):
            path = root / "any_config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            shutil.rmtree(out, ignore_errors=True)
            argv = _argv(command, family, {**files, "config": str(path)}, out)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = main(argv)
            assert rc in (0, 1)
            if rc == 1:
                _assert_one_error_line(err.getvalue())
                return
            assert err.getvalue() == ""
            written = [p for p in out.iterdir() if p.name != "run.log"]
            assert written
            for output in written:
                for token in re.split(r"[ \t\n,]", output.read_text()):
                    try:
                        value = float(token)
                    except ValueError:
                        continue
                    assert np.isfinite(value), (output.name, token)

        check()


class TestExplainInputs:
    @pytest.mark.parametrize("flag", ["--cleaned", "--strengths", "--splits"])
    def test_shapley_without_an_input_is_a_usage_error(
        self, tiny_season, tmp_path, capsys, flag
    ):
        _, files = tiny_season
        argv = _argv("explain", "gbm", files, tmp_path / "o")
        at = argv.index(flag)
        del argv[at : at + 2]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:usage:") and flag in err
        assert not list((tmp_path / "o").glob("shapley_*"))


class TestReadAndCheckOrder:
    """Each command reads its inputs and checks its config in one fixed
    order, so that the first problem in that order is the one reported."""

    # (command, family, inputs that are missing, config keys, argv flags
    # dropped, argv added, the missing input the error names or the error)
    CASES = {
        "train_reads_cleaned_first": (
            "train", "ridge", ["cleaned", "strengths", "splits"], {}, [], [], "cleaned"),
        "evaluate_reads_strengths_before_splits": (
            "evaluate", "ridge", ["strengths", "splits"], {}, [], [], "strengths"),
        "evaluate_reads_splits": ("evaluate", "ridge", ["splits"], {}, [], [], "splits"),
        "rank_reads_strengths_before_the_season_check": (
            "rank", "ridge", ["strengths"], {}, [], ["--season", "zzz"], "strengths"),
        "cv_reads_before_checking_k": ("cv", "ridge", ["cleaned"], {"cv_k": 1}, [], [],
                                       "cleaned"),
        "explain_checks_its_flags_before_reading": (
            "explain", "gbm", [], {}, ["--strengths", "--splits"], [],
            "error:usage: shapley explanations need --strengths, --splits\n"),
        "gridsearch_checks_top_k_before_reading": (
            "gridsearch", "ridge", ["cleaned"], {"top_k": 0}, [], [],
            "error:data: top-k size must be >= 1, got 0\n"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_first_problem_is_reported(self, tiny_season, tmp_path, capsys, case):
        command, family, missing, keys, dropped, added, expected = self.CASES[case]
        _, files = tiny_season
        files = TestConfigChecks.with_config(files, tmp_path / "cfg.json", keys)
        files.update({name: str(tmp_path / f"missing_{name}") for name in missing})
        argv = _argv(command, family, files, tmp_path / "out") + added
        for flag in dropped:
            del argv[argv.index(flag) : argv.index(flag) + 2]
        if expected in missing:
            expected = (f"error:io: cannot read {expected} file {files[expected]}: "
                        "No such file or directory\n")
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == expected


def _mostly(good, bad, one_in=10):
    """`good`, or `bad` one time in `one_in`; shrinks towards `good`."""
    return st.sampled_from([True] * (one_in - 1) + [False]).flatmap(
        lambda ok: good if ok else bad
    )


@st.composite
def command_lines(draw, parser, values, junk):
    """`parser`'s flags, each required one mostly present and each other
    one present half the time, with its values; now and then one junk
    token somewhere among them."""
    tokens = []
    for action in parser._actions:
        if not action.option_strings or action.dest in ("help", "config"):
            continue
        if draw(_mostly(st.just(True), st.just(False), 10 if action.required else 2)):
            tokens += [action.option_strings[0], *draw(values(action))]
    if draw(_mostly(st.just(False), st.just(True), 5)):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(junk))
    return tokens


class TestAnyArgv:
    # Tokens no flag expects; none is absolute or "..", so every output
    # path stays below the working directory.
    JUNK = st.sampled_from(["", "-", "--", "x", "--nope", "-1", "nan", "=", "a=b", "all"])

    @pytest.mark.parametrize("argv", [
        ["train"], ["--position", "XX", "train"], ["--seed", "abc", "train"],
        ["synth", "--players", "x"],
    ])
    def test_malformed_command_line_is_one_usage_line(self, tmp_path, capsys, argv):
        assert main(["--out", str(tmp_path / "o"), *argv]) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:usage:")
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fplcast")

    # Each subcommand's flags, in the order its usage line lists them.
    FLAGS = {
        "ingest": ["--raw", "--strengths"],
        "synth": ["--players", "--weeks"],
        "split": ["--cleaned"],
        "train": ["--cleaned", "--strengths", "--splits", "--family"],
        "gridsearch": ["--cleaned", "--strengths", "--splits", "--family", "--finalize"],
        "cv": ["--cleaned", "--strengths", "--family"],
        "evaluate": ["--model", "--cleaned", "--strengths", "--splits", "--split",
                     "--per-gameweek"],
        "rank": ["--model", "--cleaned", "--strengths", "--gameweek", "--season"],
        "explain": ["--model", "--cleaned", "--strengths", "--splits", "--split",
                    "--example-index"],
    }

    @pytest.mark.parametrize("command", FLAGS)
    def test_subcommand_help_exits_0_and_lists_its_flags_in_order(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "-h"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: fplcast {command} [-h]")
        assert re.findall(r"^  (--?[a-z-]+)", out, re.MULTILINE) == ["-h", *self.FLAGS[command]]

    # synth requires nothing: bare, it writes a default season.
    REQUIRED = {
        "ingest": "--raw, --strengths",
        "split": "--cleaned",
        "train": "--cleaned, --strengths, --splits, --family",
        "gridsearch": "--cleaned, --strengths, --splits, --family",
        "cv": "--cleaned, --strengths, --family",
        "evaluate": "--model, --cleaned, --strengths, --splits",
        "rank": "--model, --cleaned, --strengths, --gameweek",
        "explain": "--model",
    }

    @pytest.mark.parametrize("command", REQUIRED)
    def test_bare_subcommand_names_its_required_flags(self, tmp_path, capsys, command):
        assert main(["--out", str(tmp_path / "o"), command]) == 1
        assert capsys.readouterr().err == (
            f"error:usage: fplcast {command}: the following arguments are required: "
            f"{self.REQUIRED[command]}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_any_command_line_exits_0_or_prints_one_error_line(
        self, tiny_season, monkeypatch
    ):
        root, files = tiny_season
        # One grid trial and two epochs, so that no draw runs long; the
        # season holds MID players only, hence MID unless a draw says else.
        config = TestConfigChecks.with_config(files, root / "argv.json", {
            "grid": {"w": [3]}, "epochs": 2, "patience": 2,
        })["config"]
        paths = {"cleaned": [files["cleaned"]], "strengths": [files["strengths"]],
                 "splits": [files["splits"]], "raw": [f"synthetic={files['raw']}"],
                 "model": [files[f] for f in ("ridge", "gbm", "cnn")], "out": ["out"]}
        every_path = st.sampled_from(sorted(sum(paths.values(), [])))
        (root / "argv").mkdir()
        monkeypatch.chdir(root / "argv")
        parser = build_parser()
        (commands,) = [a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]

        def values(action):
            if action.nargs == 0:
                return st.just([])
            if action.choices:
                good = st.sampled_from(list(action.choices))
            elif action.type is int:
                good = st.integers(-1, 8).map(str)
            elif action.dest in paths:
                good = _mostly(st.sampled_from(paths[action.dest]), every_path, 5)
            else:
                good = every_path
            one = _mostly(good, self.JUNK)
            if action.nargs == "+":
                return st.lists(one, min_size=1, max_size=2)
            return one.map(lambda v: [v])

        @settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.data())
        def check(data):
            command = data.draw(st.sampled_from(sorted(commands)))
            argv = ["--config", config, "--position", "MID",
                    *data.draw(command_lines(parser, values, self.JUNK)), command,
                    *data.draw(command_lines(commands[command], values, self.JUNK))]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = main(argv)
            assert rc in (0, 1), argv
            if rc == 1:
                _assert_one_error_line(err.getvalue())
            else:
                assert err.getvalue() == "", argv

        check()
