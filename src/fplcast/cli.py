"""Command-line pipeline: ingest, synth, split, train, search, evaluate,
rank, explain.

Commands communicate only through files. Data outputs are byte-identical
across reruns with the same inputs and seed; wall-clock timestamps go to
a sidecar run.log, never into data files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import cnn as cnn_mod
from . import serialize as ser
from .dataset import (
    STRAT_ON,
    FeatureTier,
    Players,
    SplitAssignment,
    assign_splits,
    build_series,
    concat_windows,
    generate_synthetic_season,
)
from .evaluation import (
    EvalReport,
    average_ranks,
    export_predictions,
    extreme_examples,
    mse,
    spearman_by_gameweek,
    spearman_tied,
)
from .gbm import shapley_values, split_importance
from .harness import (
    FAMILIES,
    CvConfig,
    GridSpec,
    cross_validate,
    default_grid,
    derive_seed,
    model_family,
    predict,
    run_grid,
    select_final,
    sliding_design,
    top_k_summary,
    train_family,
)
from .ingest import (
    GameweekTable,
    Position,
    RowParseError,
    SchemaError,
    TeamLookupError,
    canonicalize_name,
    drop_benched,
    fuzzy_match,
    parse_gameweek_csv,
    parse_strengths_csv,
)
from .ridge import export_coefficients


class CliError(Exception):
    """Failure with a machine-parsable category for the exit message."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


# Config keys and their defaults; each family's keys and defaults come
# from its registry record.
def default_config() -> dict:
    return {
        "seed": 0,
        "difficulty_sign": "opponent_minus_own",
        "fuzzy_threshold": 0.85,
        "w": 3,
        "tier": "ptsonly",
        "fractions": [0.60, 0.25, 0.15],
        "n_bins": 4,
        "strat_on": "avg_score",
        **{
            cli_key: default
            for family in FAMILIES.values()
            for cli_key, default in family.params.values()
        },
        "shapley_background": 100,
        "extreme_k": 2,
        "cv_k": 5,
        "cv_bins": 4,
        "grid_workers": 1,  # accepted so older configs load; trials run serially
        "top_k": 10,
        "grid": None,
    }


# The allowed values of each text key.
_CONFIG_CHOICES = {
    "difficulty_sign": ("opponent_minus_own", "own_minus_opponent"),
    "tier": tuple(t.value for t in FeatureTier),
    "strat_on": STRAT_ON,
    "cnn_activation": cnn_mod.ACTIVATIONS,
}


def _is_number(value) -> bool:
    """A finite JSON number; JSON booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _config_problem(key: str, value, default) -> str | None:
    """What `value` must be, unless it fits `key`: its default's JSON type
    (an integer where the default is a float), finite, a known choice."""
    if key == "grid":
        if value is None or (isinstance(value, dict) and all(
            isinstance(v, list) and v for v in value.values()
        )):
            return None
        return "null or an object of non-empty lists"
    if key == "fractions":
        if isinstance(value, list) and len(value) == 3 and all(map(_is_number, value)):
            return None
        return "a list of three finite numbers"
    if isinstance(default, float):
        return None if _is_number(value) else "a finite number"
    if isinstance(default, int):
        return None if _is_number(value) and isinstance(value, int) else "an integer"
    choices = _CONFIG_CHOICES[key]
    return None if value in choices else "one of " + ", ".join(choices)


def _shown(value) -> str:
    """`value` as JSON, cut to 40 characters for an error message."""
    shown = json.dumps(value)
    return shown if len(shown) <= 40 else shown[:37] + "..."


def load_config(path: str | None, seed_override: int | None) -> dict:
    config = default_config()
    if path is not None:
        try:
            user = json.loads(_read_text(path, "config"))
        except json.JSONDecodeError as exc:
            raise CliError("config", f"config is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise CliError("config", "config must be a JSON object")
        for key, value in user.items():
            if key not in config:
                raise CliError("config", f"unknown config key '{key}'")
            problem = _config_problem(key, value, config[key])
            if problem is not None:
                raise CliError(
                    "config", f"config key '{key}' must be {problem}, got {_shown(value)}"
                )
            config[key] = value
    if seed_override is not None:
        config["seed"] = seed_override
    return config


def _positions(flag: str) -> list[Position]:
    if flag == "all":
        return Position.ordered()
    return [Position(flag)]


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the `what` file at `path`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or exc
        raise CliError("io", f"cannot read {what} file {path}: {reason}") from None
    except UnicodeDecodeError as exc:
        raise CliError("format", f"{what} file {path} is not UTF-8: {exc}") from None


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise CliError("io", f"cannot create output directory {out}: {reason}") from None
    return out


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _log(out: Path, message: str):
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(out / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")


def _read_cleaned(paths: list[str]) -> GameweekTable:
    table = GameweekTable.concat(
        [ser.read_cleaned_csv(_read_text(path, "cleaned")) for path in paths]
    )
    if not len(table):
        raise CliError("data", "no cleaned rows found")
    return table


def _read_strengths(path: str):
    return parse_strengths_csv(_read_text(path, "strengths"))


def _read_splits(path: str) -> SplitAssignment:
    return ser.read_splits(_read_text(path, "splits"))


def _players(
    all_series, position: Position, config, strengths,
    splits: SplitAssignment | None = None,
) -> Players:
    """The players of one position, under the config's difficulty sign."""
    series = [s for s in all_series if s.key.position == position]
    if not series:
        raise CliError("data", f"no players with position {position.value}")
    return Players(
        series,
        strengths,
        splits.assignments if splits else None,
        flip_difficulty=config["difficulty_sign"] == "own_minus_opponent",
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(args, config) -> int:
    out = _out_dir(args)
    strengths = _read_strengths(args.strengths)
    threshold = float(config["fuzzy_threshold"])

    parts = []
    for raw_item in args.raw:
        season, sep, path = raw_item.partition("=")
        if not sep:
            raise CliError("usage", "--raw items must look like SEASON=PATH")
        parts.append((path, parse_gameweek_csv(_read_text(path, "raw"), season)))
    read = GameweekTable.concat([table for _, table in parts])

    # Canonicalize and merge near-duplicate spellings, per position.
    registry: dict[Position, list[str]] = {p: [] for p in Position}
    resolutions = []
    names = []
    for name, position in zip(read.player_name, read.position):
        canon = canonicalize_name(name)
        known = registry[position]
        if canon not in known:
            match = fuzzy_match(canon, known, threshold) if known else None
            if match is None:
                known.append(canon)
            else:
                # Any mapping between distinct spellings is a resolution,
                # including score-1.0 token reorderings.
                resolutions.append((canon, match[0], match[1]))
                canon = match[0]
        names.append(canon)

    kept = drop_benched(read.replace(player_name=names))
    dropped = len(read) - len(kept)

    # Every (season, team) pair must have a strength rating.
    for season, team, opponent in zip(kept.season, kept.team, kept.opponent):
        if season not in strengths:
            raise TeamLookupError(f"no strength table for season '{season}'")
        strengths[season].strength(team)
        strengths[season].strength(opponent)

    per_position = {
        p: kept.take([q is p for q in kept.position]) for p in Position.ordered()
    }
    for position, rows in per_position.items():
        _write(out / f"cleaned_{position.value}.csv", ser.write_cleaned_csv(rows))

    report = [
        "ingest report",
        *[f"read {len(table)} rows from {path}" for path, table in parts],
        f"dropped: {dropped} benched appearances",
        *[
            f"kept {len(rows)} rows for {position.value}"
            for position, rows in per_position.items()
        ],
        f"fuzzy resolutions: {len(resolutions)}",
        *[
            f'  "{query}" -> "{target}" (score {ser.fmt_num(score)})'
            for query, target, score in resolutions
        ],
    ]
    _write(out / "ingest_report.txt", "\n".join(report) + "\n")
    _log(out, f"ingest raw={args.raw}")
    print(f"ingested {len(kept)} rows ({dropped} benched dropped) -> {out}")
    return 0


def cmd_synth(args, config) -> int:
    out = _out_dir(args)
    rows, strengths = generate_synthetic_season(
        seed=config["seed"], n_players=args.players, n_weeks=args.weeks
    )
    _write(out / "synthetic_gameweeks.csv", ser.write_raw_csv(rows))
    _write(out / "synthetic_strengths.csv", ser.write_table("season,team,strength", (
        [strengths.season, team, strengths.entries[team]]
        for team in sorted(strengths.entries)
    )))
    _log(out, f"synth players={args.players} weeks={args.weeks} seed={config['seed']}")
    print(f"wrote {len(rows)} synthetic rows -> {out}")
    return 0


def cmd_split(args, config) -> int:
    out = _out_dir(args)
    rows = _read_cleaned(args.cleaned)
    fractions = tuple(config["fractions"])
    all_series = build_series(rows)
    merged: dict = {}
    for position in Position.ordered():
        series = [s for s in all_series if s.key.position == position]
        if not series:
            continue
        part = assign_splits(
            series,
            fractions=fractions,
            n_bins=config["n_bins"],
            strat_on=config["strat_on"],
            seed=config["seed"],
        )
        merged.update(part.assignments)
    if not merged:
        raise CliError("data", "no players found in cleaned files")
    splits = SplitAssignment(
        assignments=merged,
        fractions=fractions,
        n_bins=config["n_bins"],
        strat_on=config["strat_on"],
        seed=config["seed"],
    )
    _write(out / "splits.csv", ser.write_splits(splits))
    _log(out, f"split players={len(merged)} seed={config['seed']}")
    print(f"assigned {len(merged)} players -> {out / 'splits.csv'}")
    return 0


def _eval_report(windows, predictions, position, split, model_id) -> EvalReport:
    return EvalReport(
        position=position,
        split=split,
        n=len(windows),
        mse=mse(windows.y, predictions),
        spearman=spearman_tied(windows.y, predictions) if len(windows) >= 2 else None,
        model_id=model_id,
    )


def cmd_train(args, config) -> int:
    out = _out_dir(args)
    rows = _read_cleaned(args.cleaned)
    strengths = _read_strengths(args.strengths)
    splits = _read_splits(args.splits)
    family = FAMILIES[args.family]
    w = int(config["w"])
    tier = FeatureTier(config["tier"])
    family_config = family.from_cli(config)

    reports = []
    all_series = build_series(rows)
    for position in _positions(args.position):
        players = _players(all_series, position, config, strengths, splits)
        train_ex, val_ex = (players.windows(w, tier, s) for s in ("train", "validation"))
        if not train_ex or not val_ex:
            raise CliError(
                "data", f"position {position.value} has an empty train or val split"
            )
        seed = derive_seed(config["seed"], family_config)
        fitted, train_err, val_err = train_family(
            family.name, family_config, train_ex, val_ex, seed
        )
        ctx = ser.ModelContext(
            w=w, tier=tier.value, position=position.value, scaler=fitted.scaler
        )
        model_id = f"{family.name}_{position.value}"
        _write(out / f"model_{model_id}.txt", family.write(fitted.model, ctx))
        if "curve" in fitted.extras:
            _write(
                out / f"learning_curve_{position.value}.csv",
                ser.write_learning_curve(fitted.extras["curve"]),
            )

        # One dataset file per (position, representation), in the form the
        # family consumed: window tensors for the cnn, window means for the
        # baselines. Test examples are never materialized here.
        header = ser.DatasetHeader(
            representation=family.representation,
            position=position.value,
            w=w,
            tier=tier.value,
            seed=config["seed"],
            fractions=tuple(config["fractions"]),
            features=tier.columns(),
            scaler_mean=fitted.scaler.mean if fitted.scaler else None,
            scaler_std=fitted.scaler.std if fitted.scaler else None,
        )
        _write(
            out / f"dataset_{position.value}_{family.representation}.txt",
            ser.write_dataset(header, concat_windows([train_ex, val_ex])),
        )
        for split, windows in (("train", train_ex), ("validation", val_ex)):
            predictions = predict(family, fitted.model, fitted.scaler, windows)
            reports.append(
                _eval_report(windows, predictions, position, split, model_id)
            )
        print(
            f"{model_id}: train mse {train_err:.4f}, val mse {val_err:.4f}"
        )
    _write(out / f"report_{family.name}.csv", ser.write_reports_csv(reports))
    _log(out, f"train family={family.name} seed={config['seed']}")
    return 0


def _load_model(path: str):
    text = _read_text(path, "model")
    family = model_family(text)
    if family is None:
        raise CliError("format", f"unrecognized model file: {path}")
    model, ctx = family.read(text)
    return family, model, ctx


def cmd_evaluate(args, config) -> int:
    out = _out_dir(args)
    family, model, ctx = _load_model(args.model)
    rows = _read_cleaned(args.cleaned)
    strengths = _read_strengths(args.strengths)
    splits = _read_splits(args.splits)
    position = Position(ctx.position)
    players = _players(build_series(rows), position, config, strengths, splits)
    windows = players.windows(ctx.w, FeatureTier(ctx.tier), args.split)
    if not windows:
        raise CliError("data", f"no {args.split} examples for {position.value}")
    predictions = predict(family, model, ctx.scaler, windows)
    model_id = f"{family.name}_{position.value}"
    report = _eval_report(windows, predictions, position, args.split, model_id)
    if args.per_gameweek:
        report.spearman = spearman_by_gameweek(
            windows.target_gameweek, windows.y, predictions
        )
    _write(
        out / f"eval_{model_id}_{args.split}.csv", ser.write_reports_csv([report])
    )
    _write(
        out / f"predictions_{model_id}_{args.split}.csv",
        ser.write_predictions_csv(export_predictions(windows, predictions)),
    )
    k = min(int(config["extreme_k"]), len(windows))
    extremes = extreme_examples(windows, predictions, k)
    _write(
        out / f"extremes_{model_id}_{args.split}.csv",
        ser.write_table("kind,true,predicted,squared_error,d,points_history", (
            [kind, y, yhat, err, d, " ".join(map(ser.fmt_num, history))]
            for kind, entries in (("worst", extremes.worst), ("best", extremes.best))
            for y, yhat, err, d, history in entries
        )),
    )
    rho = "null" if report.spearman is None else f"{report.spearman:.4f}"
    print(
        f"{model_id} on {args.split}: n={report.n} mse={report.mse:.4f} "
        f"spearman={rho}"
    )
    _log(out, f"evaluate model={args.model} split={args.split}")
    return 0


def cmd_gridsearch(args, config) -> int:
    family = args.family
    if config["top_k"] < 1:
        raise CliError("data", f"top-k size must be >= 1, got {config['top_k']}")
    if config["grid"] is not None:
        # Each axis stands for a config key, and its values are typed like it.
        keys = {"w": "w", "tier": "tier"}
        keys.update((k, cli_key) for k, (cli_key, _) in FAMILIES[family].params.items())
        defaults = default_config()
        for axis, values in config["grid"].items():
            if axis not in keys:
                raise CliError("config", f"unknown grid axis '{axis}' for family {family}")
            for value in values:
                problem = _config_problem(keys[axis], value, defaults[keys[axis]])
                if problem is not None:
                    raise CliError(
                        "config",
                        f"grid axis '{axis}' values must be {problem}, got {_shown(value)}",
                    )
        axes = {k: list(v) for k, v in config["grid"].items()}
        grid = GridSpec(family=family, axes=axes)
    else:
        grid = default_grid(family)
    out = _out_dir(args)
    rows = _read_cleaned(args.cleaned)
    strengths = _read_strengths(args.strengths)
    splits = _read_splits(args.splits)

    summary = {}
    all_series = build_series(rows)
    for position in _positions(args.position):
        players = _players(all_series, position, config, strengths, splits)
        results = run_grid(grid, players, seed=config["seed"], position=position)
        axis_names = sorted({k for r in results for k in r.config})
        header = ser.csv_line([*axis_names, "train_mse", "val_mse", "seed", "status", "reason"])
        trials = (
            [*(r.config.get(n) for n in axis_names), r.train_mse, r.val_mse, r.seed,
             "ok" if r.error is None else "failed", r.error]
            for r in results
        )
        # A missing axis, MSE or reason is an empty cell.
        rows = (["" if c is None else c for c in cells] for cells in trials)
        _write(out / f"trials_{family}_{position.value}.csv", ser.write_table(header, rows))

        succeeded = [r for r in results if r.error is None]
        if not succeeded:
            raise CliError("data", f"every {position.value} trial failed")
        best = succeeded[0]
        entry = {
            "config": best.config,
            "val_mse": best.val_mse,
            "train_mse": best.train_mse,
            "trials": len(results),
            "failed": len(results) - len(succeeded),
        }
        k = min(int(config["top_k"]), len(succeeded))
        mean_k, max_k = top_k_summary(results, k)
        entry["top_k"] = {"k": k, "mean_val_mse": mean_k, "max_val_mse": max_k}
        if args.finalize:
            final, _fitted = select_final(results, players)
            entry["test_mse"] = final.test_mse
        summary[position.value] = entry
        print(
            f"{family}_{position.value}: best val mse {best.val_mse:.4f} "
            f"({len(results)} trials, {entry['failed']} failed)"
        )
    _write(
        out / f"summary_{family}.json",
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    _log(out, f"gridsearch family={family} seed={config['seed']}")
    return 0


def cmd_cv(args, config) -> int:
    out = _out_dir(args)
    rows = _read_cleaned(args.cleaned)
    strengths = _read_strengths(args.strengths)
    family = args.family
    family_config = FAMILIES[family].from_cli(config)
    cv = CvConfig(
        k=int(config["cv_k"]),
        n_bins=int(config["cv_bins"]),
        strat_on=config["strat_on"],
        seed=config["seed"],
    )
    results = []
    all_series = build_series(rows)
    for position in _positions(args.position):
        players = _players(all_series, position, config, strengths)
        train_err, val_err = cross_validate(family, family_config, players, cv)
        results.append([family, position.value, train_err, val_err])
        print(
            f"{family}_{position.value} cv: train mse {train_err:.4f}, "
            f"val mse {val_err:.4f}"
        )
    _write(
        out / f"cv_{family}.csv",
        ser.write_table("family,position,mean_train_mse,mean_val_mse", results),
    )
    _log(out, f"cv family={family} k={cv.k}")
    return 0


def cmd_rank(args, config) -> int:
    out = _out_dir(args)
    family, model, ctx = _load_model(args.model)
    rows = _read_cleaned(args.cleaned)
    strengths = _read_strengths(args.strengths)
    position = Position(ctx.position)
    season = args.season or max(rows.season)
    rows = rows.take([s == season for s in rows.season])
    players = _players(build_series(rows), position, config, strengths)
    windows = players.windows(ctx.w, FeatureTier(ctx.tier))
    candidates = windows.take(windows.target_gameweek == args.gameweek)
    if not candidates:
        raise CliError(
            "data",
            f"no rankable {position.value} players for gameweek {args.gameweek}",
        )
    predictions = predict(family, model, ctx.scaler, candidates)
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-predictions[i], candidates.players[i].canonical_name),
    )
    tied = average_ranks(-np.asarray(predictions))
    path = out / f"rank_{position.value}_gw{args.gameweek}.csv"
    _write(path, ser.write_table("rank,player,predicted,tied_rank", (
        [rank, candidates.players[i].canonical_name, float(predictions[i]), float(tied[i])]
        for rank, i in enumerate(order, start=1)
    )))
    print(f"ranked {len(candidates)} players -> {path}")
    _log(out, f"rank model={args.model} gameweek={args.gameweek}")
    return 0


def _explain_coefficients(args, config, out, loaded):
    models = {Position(ctx.position): model for _, model, ctx in loaded}
    positions, features, coef, intercepts = export_coefficients(models)
    _write(
        out / "coefficients.csv",
        ser.write_coefficient_table(positions, features, coef, intercepts),
    )
    print(f"wrote coefficients for {len(positions)} positions")


def _explain_filter(args, config, out, loaded):
    _, model, ctx = loaded[0]
    _write(out / f"filters_{ctx.position}.csv", mean_normalized_filter_csv(model, ctx))
    print(f"wrote mean filter ({model.kernel}x{model.n_features})")


def _explain_shapley(args, config, out, loaded):
    missing = [f"--{flag}" for flag in ("cleaned", "strengths", "splits")
               if not getattr(args, flag)]
    if missing:
        raise CliError("usage", f"shapley explanations need {', '.join(missing)}")
    _, model, ctx = loaded[0]
    rows = _read_cleaned(args.cleaned)
    strengths = _read_strengths(args.strengths)
    splits = _read_splits(args.splits)
    position = Position(ctx.position)
    players = _players(build_series(rows), position, config, strengths, splits)
    explain_ex, train_ex = (
        players.windows(ctx.w, FeatureTier(ctx.tier), s) for s in (args.split, "train")
    )
    if not explain_ex:
        raise CliError("data", f"no {args.split} examples to explain")
    if not 0 <= args.example_index < len(explain_ex):
        raise CliError(
            "usage",
            f"example index {args.example_index} out of range "
            f"({len(explain_ex)} available)",
        )
    A_train, _ = sliding_design(train_ex)
    rng = np.random.default_rng(config["seed"])
    n_background = min(int(config["shapley_background"]), A_train.shape[0])
    background = A_train[
        rng.choice(A_train.shape[0], size=n_background, replace=False)
    ]
    A_explain, _ = sliding_design(explain_ex.take([args.example_index]))
    result = shapley_values(model, A_explain[0], background)
    names = model.feature_names or [f"x{j}" for j in range(model.n_features)]
    _write(out / f"shapley_{position.value}.csv", ser.write_table("feature,value,phi", [
        *([name, float(value), float(phi)]
          for name, value, phi in zip(names, A_explain[0], result.phi)),
        ["__base_value__", "", result.base_value],
        ["__prediction__", "", result.base_value + float(result.phi.sum())],
    ]))
    imp = split_importance(model)
    _write(out / f"split_importance_{position.value}.csv", ser.write_table(
        "feature,splits,percent",
        ([name, int(count), float(pct)]
         for name, count, pct in zip(names, imp.counts, imp.percentages)),
    ))
    print(f"wrote shapley attribution for example {args.example_index}")


_EXPLAINERS = {
    "coefficients": _explain_coefficients,
    "filter": _explain_filter,
    "shapley": _explain_shapley,
}


def cmd_explain(args, config) -> int:
    if config["shapley_background"] < 1:
        raise CliError("data", "shapley_background must be >= 1, got "
                       f"{config['shapley_background']}")
    loaded = [_load_model(path) for path in args.model]
    # Only a coefficient table explains several models at once.
    positions = {ctx.position for f, _, ctx in loaded if f.explain == "coefficients"}
    if len(loaded) > 1 and len(positions) < len(loaded):
        raise CliError("usage", "several --model files must be ridge models, one per position")
    family = loaded[0][0]
    kind = args.kind or family.explain
    if kind != family.explain:
        raise CliError(
            "usage", f"family {family.name} does not support explanation '{kind}'"
        )
    out = _out_dir(args)
    _EXPLAINERS[kind](args, config, out, loaded)
    _log(out, f"explain kind={kind}")
    return 0


def mean_normalized_filter_csv(model, ctx) -> str:
    mean_filter = cnn_mod.mean_normalized_filter(model)
    tier = FeatureTier(ctx.tier)
    return ser.write_table(ser.csv_line(["window_row", *tier.columns()]), (
        [r, *map(float, row)] for r, row in enumerate(mean_filter)
    ))


def cmd_filters(args, config) -> int:
    out = _out_dir(args)
    family, model, ctx = _load_model(args.model)
    if family.explain != "filter":
        raise CliError("usage", f"filters requires a cnn model, got {family.name}")
    _write(out / f"filters_{ctx.position}.csv", mean_normalized_filter_csv(model, ctx))
    print(f"wrote mean filter for {ctx.position}")
    _log(out, f"filters model={args.model}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one usage error line, not a usage block."""

    def error(self, message):
        raise CliError("usage", f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fplcast",
        description="Forecast fantasy soccer scores from recent gameweeks.",
    )
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--position",
        choices=["GK", "DEF", "MID", "FWD", "all"],
        default="all",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, clean, and merge raw gameweek CSVs")
    p.add_argument("--raw", nargs="+", required=True, metavar="SEASON=PATH")
    p.add_argument("--strengths", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic season")
    p.add_argument("--players", type=int, default=200)
    p.add_argument("--weeks", type=int, default=38)

    p = sub.add_parser("split", help="assign players to train/validation/test")
    p.add_argument("--cleaned", nargs="+", required=True)

    p = sub.add_parser("train", help="train one family per position")
    p.add_argument("--cleaned", nargs="+", required=True)
    p.add_argument("--strengths", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--family", choices=list(FAMILIES), required=True)

    p = sub.add_parser("gridsearch", help="grid search over one family")
    p.add_argument("--cleaned", nargs="+", required=True)
    p.add_argument("--strengths", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.add_argument(
        "--finalize",
        action="store_true",
        help="retrain the best configuration and score the holdout once",
    )

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    p.add_argument("--cleaned", nargs="+", required=True)
    p.add_argument("--strengths", required=True)
    p.add_argument("--family", choices=list(FAMILIES), required=True)

    p = sub.add_parser("evaluate", help="score a saved model on one split")
    p.add_argument("--model", required=True)
    p.add_argument("--cleaned", nargs="+", required=True)
    p.add_argument("--strengths", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--split", choices=["train", "validation", "test"], default="test")
    p.add_argument(
        "--per-gameweek",
        action="store_true",
        help="average Spearman over gameweeks instead of pooling",
    )

    p = sub.add_parser("rank", help="rank players by predicted points")
    p.add_argument("--model", required=True)
    p.add_argument("--cleaned", nargs="+", required=True)
    p.add_argument("--strengths", required=True)
    p.add_argument("--gameweek", type=int, required=True)
    p.add_argument("--season", default=None)

    p = sub.add_parser("explain", help="model attribution exports")
    p.add_argument("--model", nargs="+", required=True)
    p.add_argument(
        "--kind", choices=[f.explain for f in FAMILIES.values()], default=None
    )
    p.add_argument("--cleaned", nargs="+", default=[])
    p.add_argument("--strengths", default=None)
    p.add_argument("--splits", default=None)
    p.add_argument("--split", choices=["train", "validation", "test"], default="test")
    p.add_argument("--example-index", type=int, default=0)

    p = sub.add_parser("filters", help="mean normalized conv filter of a cnn model")
    p.add_argument("--model", required=True)

    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "split": cmd_split,
    "train": cmd_train,
    "gridsearch": cmd_gridsearch,
    "cv": cmd_cv,
    "evaluate": cmd_evaluate,
    "rank": cmd_rank,
    "explain": cmd_explain,
    "filters": cmd_filters,
}


# Error category of each failure main() reports, most specific first.
_CATEGORIES = (
    (SchemaError, "schema"),
    (RowParseError, "parse"),
    (TeamLookupError, "lookup"),
    (ser.FormatError, "format"),
    (ValueError, "data"),
    (KeyError, "data"),
)


def _one_line(message) -> str:
    """Cell text in a message may hold line breaks; a report is one line."""
    return " ".join(str(message).splitlines())


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print("warning: " + _one_line(message), file=sys.stderr)


def main(argv=None) -> int:
    # Each warning the filters let through is one stderr line; the filters
    # themselves are left as they are.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = build_parser().parse_args(argv)
            config = load_config(args.config, args.seed)
            return _COMMANDS[args.command](args, config)
        except (CliError, *(kind for kind, _ in _CATEGORIES)) as exc:
            if isinstance(exc, CliError):
                category = exc.category
            else:
                category = next(c for kind, c in _CATEGORIES if isinstance(exc, kind))
            # A KeyError's str() quotes its message; a lookup error shows it bare.
            message = exc.args[0] if isinstance(exc, TeamLookupError) else str(exc)
            print(f"error:{category}: " + _one_line(message), file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
