import argparse
import contextlib
import csv
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fplcast.cli import build_parser, main
from fplcast.evaluation import average_ranks
from fplcast.ingest import GameweekTable
from fplcast.gbm import predict_gbm
from fplcast.serialize import ModelContext, read_cleaned_csv, read_gbm, read_splits, write_gbm

from test_gbm import sixteen_feature_model
from test_serialize import corruptions

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
        from fplcast.dataset import FeatureTier, build_series, build_windows
        from fplcast.ingest import Position, parse_strengths_csv

        rows = GameweekTable.concat(
            [read_cleaned_csv(open(path).read()) for path in cleaned]
        )
        tables = parse_strengths_csv(open(strengths).read())
        assignment = read_splits(open(splits).read()).assignments
        train_y, val_y = [], []
        for s in build_series(rows):
            if s.key.position is not Position.MID:
                continue
            for y in build_windows(s, 3, FeatureTier.PTSONLY, tables).y:
                if assignment[s.key] == "train":
                    train_y.append(y)
                elif assignment[s.key] == "validation":
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

    def test_writes_dataset_in_consumed_representation(self, tmp_path):
        from fplcast.serialize import read_dataset

        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        main(
            ["--out", str(out), "--seed", "5", "--position", "MID", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "ridge"]
        )
        header, windows = read_dataset(
            (out / "dataset_MID_sliding.txt").read_text()
        )
        assert header.representation == "sliding"
        assert header.scaler_mean is not None  # ridge inputs are z-scored
        assert len(windows) > 0
        # Holdout discipline: only train and validation players appear.
        buckets = read_splits(open(splits).read()).assignments
        assert {buckets[p] for p in windows.players} == {"train", "validation"}


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


class TestRankCommand:
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
            ["--out", str(out), "explain", "--kind", "coefficients", "--model",
             str(out / "model_ridge_GK.txt"), str(out / "model_ridge_MID.txt")]
        ) == 0

    def test_dataset_and_coefficients_negate_difficulty(self, tmp_path):
        from fplcast.serialize import read_coefficient_table, read_dataset

        _, cleaned, strengths, splits = synth_pipeline(tmp_path)
        runs = {}
        for sign in ("opponent_minus_own", "own_minus_opponent"):
            out = tmp_path / sign
            self.train_ridge(tmp_path, out, cleaned, strengths, splits, sign)
            _, windows = read_dataset((out / "dataset_MID_sliding.txt").read_text())
            table = read_coefficient_table((out / "coefficients.csv").read_text())
            runs[sign] = windows, table
        (default_ex, default_table), (flipped_ex, flipped_table) = runs.values()
        assert any(default_ex.d != 0)
        assert list(flipped_ex.d) == list(-default_ex.d)
        assert list(flipped_ex.y) == list(default_ex.y)

        _, features, coef, intercepts = default_table
        _, _, flipped_coef, flipped_intercepts = flipped_table
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
            ["--out", str(out), "filters", "--model",
             str(out / "model_cnn_GK.txt")]
        )
        assert rc == 0
        lines = (out / "filters_GK.csv").read_text().splitlines()
        assert lines[0] == '"window_row","total_points"'
        assert len(lines) == 1 + 2  # kernel rows

    def test_unsupported_pair_rejected(self, tmp_path, capsys):
        out, cleaned, strengths, splits = synth_pipeline(tmp_path)
        main(
            ["--out", str(out), "--seed", "5", "--position", "GK", "train",
             "--cleaned", *cleaned, "--strengths", strengths, "--splits", splits,
             "--family", "ridge"]
        )
        rc = main(
            ["--out", str(out), "explain", "--kind", "filter", "--model",
             str(out / "model_ridge_GK.txt")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:usage:")


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
        summary = json.loads((out / "summary_cnn.json").read_text())
        assert summary["GK"]["failed"] == 1

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

    @pytest.mark.parametrize("out", ["file", "file/below"])
    def test_out_naming_a_file_is_an_io_error(self, tiny_season, tmp_path, capsys, out):
        _, files = tiny_season
        (tmp_path / "file").write_text("")
        capsys.readouterr()
        assert main(_argv("split", "ridge", files, tmp_path / out)) == 1
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert err.startswith("error:io:")


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


class TestAnyConfig:
    def test_train_exits_0_with_finite_numbers_or_prints_one_error_line(
        self, tiny_season
    ):
        from fplcast.cli import default_config

        root, files = tiny_season
        keys = sorted(default_config())
        out = root / "any_config"
        model = out / "model_ridge_MID.txt"

        @settings(max_examples=200, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.one_of(
            json_values,
            st.tuples(st.sampled_from(keys), json_values).map(lambda kv: dict([kv])),
        ))
        def check(config):
            path = root / "any_config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            model.unlink(missing_ok=True)
            argv = _argv("train", "ridge", {**files, "config": str(path)}, out)
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
            for token in re.split(r"[ \t\n]", model.read_text()):
                try:
                    value = float(token)
                except ValueError:
                    continue
                assert np.isfinite(value), token

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
