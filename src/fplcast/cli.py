"""Command-line pipeline: ingest, synth, split, train, search, evaluate,
rank, explain.

Commands communicate only through files. Data outputs are byte-identical
across reruns with the same inputs and seed; wall-clock timestamps go to
a sidecar run.log, never into data files.
"""

from __future__ import annotations

import argparse
import json
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
    _is_number,
    cross_validate,
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
    token_sort_similarity,
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


def _config_problem(key: str, value, default) -> str | None:
    """What `value` must be, unless it fits `key`: its default's JSON type
    (an integer where the default is a float), a finite float, a known choice."""
    if key == "grid":
        if value is None or (isinstance(value, dict) and all(
            isinstance(v, list) and v for v in value.values()
        )):
            return None
        return "null or an object of non-empty lists"
    if key == "fractions":
        if isinstance(value, list) and len(value) == 3 and all(map(_is_number, value)):
            return None
        return "a list of three finite numbers in float range"
    if isinstance(default, (int, float)):
        if _is_number(value, integral=isinstance(default, int)):
            return None
        return "an integer" if isinstance(default, int) else "a finite number in float range"
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


def _write(path: Path, text: str, mode: str = "w"):
    try:
        with open(path, mode, encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        reason = exc.strerror or exc
        raise CliError("io", f"cannot write output file {path}: {reason}") from None


def _log(out: Path, message: str):
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    _write(out / "run.log", f"{stamp} {message}\n", "a")


def _read_cleaned(paths: list[str]) -> GameweekTable:
    table = GameweekTable.concat(
        [ser.read_cleaned_csv(_read_text(path, "cleaned")) for path in paths]
    )
    if not len(table):
        raise CliError("data", "no cleaned rows found")
    return table


def _players(args, config, positions: str):
    """(position, Players) for each of `positions` ("all" or one), under the
    config's difficulty sign. Reads --cleaned, --strengths and any --splits,
    and applies any --season, when called; checks a position when reached."""
    rows = _read_cleaned(args.cleaned)
    strengths = parse_strengths_csv(_read_text(args.strengths, "strengths"))
    splits = None
    if getattr(args, "splits", None):
        splits = ser.read_splits(_read_text(args.splits, "splits")).assignments
    if "season" in args:
        season = args.season or max(rows.season)
        rows = rows.take(rows.season == season)
        if not len(rows):
            raise CliError("data", f"no cleaned rows for season '{season}'")
    all_series = build_series(rows)
    flip = config["difficulty_sign"] == "own_minus_opponent"

    def each():
        for position in Position.ordered() if positions == "all" else [Position(positions)]:
            series = [s for s in all_series if s.key.position == position]
            if not series:
                raise CliError("data", f"no players with position {position.value}")
            yield position, Players(series, strengths, splits, flip_difficulty=flip)

    return each()


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(args, config) -> int:
    strengths = parse_strengths_csv(_read_text(args.strengths, "strengths"))
    threshold = float(config["fuzzy_threshold"])

    parts = []
    for raw_item in args.raw:
        season, sep, path = raw_item.partition("=")
        if not sep:
            raise CliError("usage", "--raw items must look like SEASON=PATH")
        parts.append((path, parse_gameweek_csv(_read_text(path, "raw"), season)))
    read = GameweekTable.concat([table for _, table in parts])

    # Canonicalize, then join each spelling not yet known to the known
    # spelling it matches best, per position.
    positions, spellings = read.position.tolist(), read.player_name.tolist()
    canonical = {name: canonicalize_name(name) for name in set(spellings)}
    spellings = [canonical[name] for name in spellings]
    registry: dict[Position, list[str]] = {p: [] for p in Position}
    known_keys: set[tuple[Position, str]] = set()  # membership in registry
    groups = []  # per row, the known spelling it joined
    for canon, position in zip(spellings, positions):
        if (position, canon) not in known_keys:
            known = registry[position]
            match = fuzzy_match(canon, known, threshold) if known else None
            if match is None:
                known.append(canon)
                known_keys.add((position, canon))
            else:
                canon = match[0]
        groups.append(canon)

    # A group is named after its spelling with the most rows (ties: the
    # first seen) among those that joined no other group, so that no two
    # groups share a name.
    rows: dict[tuple, int] = {}  # (position, group, spelling) -> rows
    for key in zip(positions, groups, spellings):
        rows[key] = rows.get(key, 0) + 1
    joined: dict[tuple, int] = {}  # (position, spelling) -> groups joined
    for position, _, spelling in rows:
        joined[position, spelling] = joined.get((position, spelling), 0) + 1
    named: dict[tuple, str] = {}  # (position, group) -> its name
    for (position, group, spelling), n in rows.items():
        best = named.setdefault((position, group), group)  # its first-seen spelling
        if joined[position, spelling] == 1 and n > rows[position, group, best]:
            named[position, group] = spelling
    names = [named[key] for key in zip(positions, groups)]
    # Any renamed row is a resolution, including score-1.0 token reorderings.
    resolutions = [
        (spelling, name, token_sort_similarity(spelling, name))
        for spelling, name in zip(spellings, names)
        if spelling != name
    ]

    kept = drop_benched(read.replace(player_name=names))
    dropped = len(read) - len(kept)

    # Every (season, team) pair must have a rating; an error names the first bad row.
    matches = zip(kept.season.tolist(), kept.team.tolist(), kept.opponent.tolist())
    for season, team, opponent in dict.fromkeys(matches):
        if season not in strengths:
            raise TeamLookupError(f"no strength table for season '{season}'")
        strengths[season].strength(team)
        strengths[season].strength(opponent)

    per_position = {p: kept.take(kept.position == p) for p in Position.ordered()}
    out = _out_dir(args)
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
    out = _out_dir(args)
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
    family = FAMILIES[args.family]
    w = int(config["w"])
    tier = FeatureTier(config["tier"])
    family_config = family.from_cli(config)

    reports = []
    for position, players in _players(args, config, args.position):
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
        out = _out_dir(args)
        _write(out / f"model_{model_id}.txt", family.write(fitted.model, ctx))
        if fitted.curve is not None:
            _write(
                out / f"learning_curve_{position.value}.csv",
                ser.write_learning_curve(fitted.curve),
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
    family, model, ctx = _load_model(args.model)
    [(position, players)] = _players(args, config, ctx.position)
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
    out = _out_dir(args)
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
    # Config keys outside the grid hold for every trial.
    axes = config["grid"] if config["grid"] is not None else FAMILIES[family].grid
    grid = GridSpec(family=family, axes={k: list(v) for k, v in axes.items()},
                    fixed=FAMILIES[family].from_cli(config))
    summary = {}
    for position, players in _players(args, config, args.position):
        results = run_grid(grid, players, seed=config["seed"])
        out = _out_dir(args)
        axis_names = sorted(grid.axes)
        header = ser.csv_line([*axis_names, "train_mse", "val_mse", "seed", "status", "reason"])
        trials = (
            [*(r.config[n] for n in axis_names), r.train_mse, r.val_mse, r.seed,
             "ok" if r.error is None else "failed", r.error]
            for r in results
        )
        # A missing MSE or reason is an empty cell.
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
            entry["test_mse"] = select_final(results, players)[0].test_mse
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
    players_by_position = _players(args, config, args.position)
    family = args.family
    family_config = FAMILIES[family].from_cli(config)
    cv = CvConfig(
        k=int(config["cv_k"]),
        n_bins=int(config["cv_bins"]),
        strat_on=config["strat_on"],
        seed=config["seed"],
    )
    results = []
    for position, players in players_by_position:
        train_err, val_err = cross_validate(family, family_config, players, cv)
        results.append([family, position.value, train_err, val_err])
        print(
            f"{family}_{position.value} cv: train mse {train_err:.4f}, "
            f"val mse {val_err:.4f}"
        )
    out = _out_dir(args)
    _write(
        out / f"cv_{family}.csv",
        ser.write_table("family,position,mean_train_mse,mean_val_mse", results),
    )
    _log(out, f"cv family={family} k={cv.k}")
    return 0


def cmd_rank(args, config) -> int:
    family, model, ctx = _load_model(args.model)
    [(position, players)] = _players(args, config, ctx.position)
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
    out = _out_dir(args)
    path = out / f"rank_{position.value}_gw{args.gameweek}.csv"
    _write(path, ser.write_table("rank,player,predicted,tied_rank", (
        [rank, candidates.players[i].canonical_name, float(predictions[i]), float(tied[i])]
        for rank, i in enumerate(order, start=1)
    )))
    print(f"ranked {len(candidates)} players -> {path}")
    _log(out, f"rank model={args.model} gameweek={args.gameweek}")
    return 0


def _explain_coefficients(args, config, loaded):
    models = {Position(ctx.position): model for _, model, ctx in loaded}
    positions, features, coef, intercepts = export_coefficients(models)
    table = ser.write_coefficient_table(positions, features, coef, intercepts)
    return {"coefficients.csv": table}, f"wrote coefficients for {len(positions)} positions"


def _explain_filter(args, config, loaded):
    _, model, ctx = loaded[0]
    header = ser.csv_line(["window_row", *FeatureTier(ctx.tier).columns()])
    mean_filter = cnn_mod.mean_normalized_filter(model)
    rows = ([r, *map(float, row)] for r, row in enumerate(mean_filter))
    table = ser.write_table(header, rows)
    message = f"wrote mean filter ({model.kernel}x{model.n_features})"
    return {f"filters_{ctx.position}.csv": table}, message


def _explain_shapley(args, config, loaded):
    missing = [f"--{flag}" for flag in ("cleaned", "strengths", "splits")
               if not getattr(args, flag)]
    if missing:
        raise CliError("usage", f"shapley explanations need {', '.join(missing)}")
    _, model, ctx = loaded[0]
    [(position, players)] = _players(args, config, ctx.position)
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
    imp = split_importance(model)
    return {
        f"shapley_{position.value}.csv": ser.write_table("feature,value,phi", [
            *([name, float(value), float(phi)]
              for name, value, phi in zip(names, A_explain[0], result.phi)),
            ["__base_value__", "", result.base_value],
            ["__prediction__", "", result.base_value + float(result.phi.sum())],
        ]),
        f"split_importance_{position.value}.csv": ser.write_table(
            "feature,splits,percent",
            ([name, int(count), float(pct)]
             for name, count, pct in zip(names, imp.counts, imp.percentages)),
        ),
    }, f"wrote shapley attribution for example {args.example_index}"


# Each explainer returns the files it makes ({name: text}) and its report line.
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
    kind = loaded[0][0].explain
    files, message = _EXPLAINERS[kind](args, config, loaded)
    out = _out_dir(args)
    for name, text in files.items():
        _write(out / name, text)
    print(message)
    _log(out, f"explain kind={kind}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one usage error line, not a usage block."""

    def error(self, message):
        raise CliError("usage", f"{self.prog}: {message}")


def _add_shared(parser: argparse.ArgumentParser, *names: str, required: bool = True):
    """Declare the flags `names`, which several commands share, in that order."""
    kwargs = {"cleaned": {"nargs": "+"}, "family": {"choices": list(FAMILIES)}}
    for name in names:
        parser.add_argument(f"--{name}", required=required, **kwargs.get(name, {}))


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
    _add_shared(p, "strengths")

    p = sub.add_parser("synth", help="generate a deterministic synthetic season")
    p.add_argument("--players", type=int, default=200)
    p.add_argument("--weeks", type=int, default=38)

    p = sub.add_parser("split", help="assign players to train/validation/test")
    _add_shared(p, "cleaned")

    p = sub.add_parser("train", help="train one family per position")
    _add_shared(p, "cleaned", "strengths", "splits", "family")

    p = sub.add_parser("gridsearch", help="grid search over one family")
    _add_shared(p, "cleaned", "strengths", "splits", "family")
    p.add_argument(
        "--finalize",
        action="store_true",
        help="score the best trial's model on the holdout once",
    )

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    _add_shared(p, "cleaned", "strengths", "family")

    p = sub.add_parser("evaluate", help="score a saved model on one split")
    p.add_argument("--model", required=True)
    _add_shared(p, "cleaned", "strengths", "splits")
    p.add_argument("--split", choices=["train", "validation", "test"], default="test")
    p.add_argument(
        "--per-gameweek",
        action="store_true",
        help="average Spearman over gameweeks instead of pooling",
    )

    p = sub.add_parser("rank", help="rank players by predicted points")
    p.add_argument("--model", required=True)
    _add_shared(p, "cleaned", "strengths")
    p.add_argument("--gameweek", type=int, required=True)
    p.add_argument("--season", default=None)

    p = sub.add_parser("explain", help="model attribution exports")
    p.add_argument("--model", nargs="+", required=True)
    # Only Shapley explanations read the data files.
    _add_shared(p, "cleaned", "strengths", "splits", required=False)
    p.add_argument("--split", choices=["train", "validation", "test"], default="test")
    p.add_argument("--example-index", type=int, default=0)

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
