"""Command-line pipelines: generate, fit, predict, evaluate, grid, transfer,
elapse, localize, export-heatmap.

Flags mirror the run configuration; a JSON config file given with --config
overrides flag values. Every command is byte-reproducible given the same
config and seed and never mutates its inputs.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

from actionmaps import experiments, fileio
from actionmaps.evaluation import EvalParams, pose_views, score_action_map
from actionmaps.experiments import GridSpec
from actionmaps.localization import discrepancy_curve
from actionmaps.sideinfo import VARIANTS, KernelConfig
from actionmaps.solver import SolverParams, normalize_action_map, predict


class CliError(ValueError):
    pass


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise CliError(f"expected a comma-separated number list, got {text!r}") from None


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.split(",") if tok)


def _sweep(args, flag: str, parse=_float_list) -> tuple:
    """The values of a sweep flag such as --alphas; none at all is an error."""
    values = parse(getattr(args, flag[2:]))
    if not values:
        raise CliError(f"{flag} needs at least one value")
    return values


def _load_data(path):
    if not os.path.exists(path):
        raise CliError(f"dataset manifest does not exist: {path}")
    return fileio.load_dataset(path)


def _kernel_from_args(args) -> KernelConfig:
    return KernelConfig(alpha=args.alpha, sigma_s=args.sigma_s, gamma=args.gamma,
                        variant=args.variant, tau=args.tau)


def _solver_from_args(args) -> SolverParams:
    return SolverParams(rank=args.rank, lam=args.lam, max_iters=args.max_iters,
                        rel_tol=args.rel_tol, seed=args.seed)


# every default below is its dataclass field's, so the two cannot drift apart
def _add_kernel_args(p: argparse.ArgumentParser):
    p.add_argument("--sigma-s", type=float, default=KernelConfig.sigma_s)
    p.add_argument("--tau", type=float, default=KernelConfig.tau,
                   help="Gram sparsification threshold")


def _add_single_fit_args(p: argparse.ArgumentParser):
    """The settings that grid and transfer sweep as lists instead."""
    p.add_argument("--variant", default=KernelConfig.variant, choices=VARIANTS)
    p.add_argument("--alpha", type=float, default=KernelConfig.alpha)
    p.add_argument("--gamma", type=float, default=KernelConfig.gamma,
                   help="chi-squared bandwidth")
    p.add_argument("--lam", type=float, default=SolverParams.lam)


def _add_solver_args(p: argparse.ArgumentParser):
    p.add_argument("--rank", type=int, default=SolverParams.rank)
    p.add_argument("--mu", type=float, default=0.0, help="activity-kernel weight; only 0")
    p.add_argument("--max-iters", type=int, default=SolverParams.max_iters)
    p.add_argument("--rel-tol", type=float, default=SolverParams.rel_tol)


def _add_eval_args(p: argparse.ArgumentParser):
    p.add_argument("--fov-deg", type=float, default=EvalParams.fov_deg)
    p.add_argument("--range-cells", type=float, default=EvalParams.range_cells)
    p.add_argument("--thresholds", type=int, default=EvalParams.n_thresholds)


def _eval_from_args(args) -> EvalParams:
    return EvalParams(
        fov_deg=args.fov_deg, range_cells=args.range_cells, n_thresholds=args.thresholds
    )


def _grid_from_args(args) -> dict:
    """Keyword arguments of run_parameter_grid and run_transfer; each grid run
    sets its own alpha, lambda, gamma, variant and seed."""
    return dict(
        grid_spec=GridSpec(
            alphas=_sweep(args, "--alphas"),
            lambdas=_sweep(args, "--lambdas"),
            gammas=_sweep(args, "--gammas"),
        ),
        variants=_sweep(args, "--variants", _str_list),
        solver=SolverParams(rank=args.rank, max_iters=args.max_iters, rel_tol=args.rel_tol),
        kernel=KernelConfig(sigma_s=args.sigma_s, tau=args.tau),
        eval_params=_eval_from_args(args),
        base_seed=args.seed,
    )


def _check_runs(report) -> None:
    """Warn on stderr when grid runs failed; fail when all of them did.

    Called after the outputs are written, so failed rows stay inspectable.
    """
    total = len(report.rows)
    failed = sum(1 for row in report.rows if row.error)
    if total and failed == total:
        raise CliError(f"all {total} runs failed")
    if failed:
        print(f"warning: {failed} of {total} runs failed", file=sys.stderr)


def _add_grid_args(p: argparse.ArgumentParser):
    for flag, values in (("--alphas", GridSpec.alphas), ("--lambdas", GridSpec.lambdas),
                         ("--gammas", GridSpec.gammas)):
        p.add_argument(flag, default=",".join(map(str, values)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    # only this command needs the generator, so the others never load it
    from actionmaps.synthetic import PRESETS, WorldSpec, generate_dataset

    if args.spec_json:
        raw = _read_json_object(args.spec_json, "spec")
        known = {f.name for f in fields(WorldSpec)}
        unknown = set(raw) - known
        if unknown:
            raise CliError(f"{args.spec_json}: unknown world-spec fields: {sorted(unknown)}")
        for key in ("room_width", "room_height", "room_type_weights"):
            if isinstance(raw.get(key), list):
                raw[key] = tuple(raw[key])
        spec = WorldSpec(**raw)
    else:
        if args.preset not in PRESETS:
            raise CliError(f"unknown preset {args.preset!r}; have {sorted(PRESETS)}")
        spec = PRESETS[args.preset]
    dataset = generate_dataset(
        spec,
        args.seed,
        n_scenes=args.scenes,
        scene_prefix=args.scene_prefix,
    )
    manifest = fileio.write_dataset(dataset, args.out, name=args.name)
    print(manifest)
    return 0


def cmd_fit(args) -> int:
    dataset = _load_data(args.data)
    _, result = experiments.fit_action_map(
        dataset, _kernel_from_args(args), _solver_from_args(args)
    )
    fileio.write_factors(result.factors, args.out_factors)
    if args.out_trace:
        fileio.write_trace(result.trace, args.out_trace)
    print(f"{args.out_factors} {fileio.describe_fit(result)}")
    return 0


def cmd_predict(args) -> int:
    dataset = _load_data(args.data)
    factors = fileio.read_factors(args.factors)
    index = dataset.index()
    if factors.U.shape[0] != index.total_rows:
        raise CliError(
            f"factors cover {factors.U.shape[0]} rows, dataset has {index.total_rows}"
        )
    if factors.V.shape[0] != len(index.vocabulary):
        raise CliError(
            f"factors cover {factors.V.shape[0]} activities, dataset has {len(index.vocabulary)}"
        )
    am = normalize_action_map(predict(factors))
    fileio.write_action_map(am, index, args.out)
    print(args.out)
    return 0


def cmd_evaluate(args) -> int:
    dataset = _load_data(args.data)
    index = dataset.index()
    am = normalize_action_map(fileio.read_action_map(args.am, index))
    scene_ids = _sweep(args, "--scenes", _str_list) if args.scenes else None
    views = pose_views(index, _eval_from_args(args), scene_ids)
    scores = score_action_map(views, am)
    fileio.write_evaluation(scores, index.vocabulary.names, args.out_txt, args.out_tsv)
    print(args.out_txt)
    return 0


def cmd_grid(args) -> int:
    grid = _grid_from_args(args)
    report = experiments.run_parameter_grid(_load_data(args.data), **grid)
    fileio.write_report(report, args.out_tsv, args.out_txt)
    print(args.out_txt)
    _check_runs(report)
    return 0


def cmd_transfer(args) -> int:
    grid = _grid_from_args(args)
    dataset = _load_data(args.data)
    source, target = _str_list(args.source), _str_list(args.target)
    report = experiments.run_transfer(dataset, source, target, **grid)
    fileio.write_transfer(report, args.out_txt, args.out_tsv)
    print(args.out_txt)
    _check_runs(report.grid)
    return 0


def cmd_elapse(args) -> int:
    fractions = _sweep(args, "--fractions")
    results = experiments.run_elapse(
        _load_data(args.data),
        fractions,
        kernel=_kernel_from_args(args),
        solver=_solver_from_args(args),
        eval_params=_eval_from_args(args),
        subset_seed=args.seed,
    )
    fileio.write_elapse(results, args.out)
    print(args.out)
    return 0


def cmd_localize(args) -> int:
    dataset = _load_data(args.data)
    index = dataset.index()
    am = normalize_action_map(fileio.read_action_map(args.am, index))
    curve = discrepancy_curve(am[index.rows_of(args.scene)], index.scene(args.scene), args.k_max)
    fileio.write_curve(curve, index.vocabulary.names, args.out)
    print(args.out)
    return 0


def cmd_export_heatmap(args) -> int:
    dataset = _load_data(args.data)
    index = dataset.index()
    am = normalize_action_map(fileio.read_action_map(args.am, index))
    print("\n".join(fileio.write_heatmaps(am, index, args.out_dir)))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actionmaps",
        description="Complete sparse location-by-activity maps and run the "
        "evaluation pipelines.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="", help="JSON config overriding flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, func, **kwargs):
        # no prefix matching: --lam would otherwise be read as --lambdas
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, **kwargs)
        p.set_defaults(func=func, parser=p)  # the parser converts config values
        return p

    p = add_parser("generate", cmd_generate, help="write a synthetic dataset")
    p.add_argument("--preset", default="mini")
    p.add_argument("--spec-json", default="", help="world-spec JSON (overrides preset)")
    p.add_argument("--scenes", type=int, default=1)
    p.add_argument("--scene-prefix", default="scene")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="dataset")

    p = add_parser("fit", cmd_fit, help="fit factors on a dataset")
    p.add_argument("--data", required=True)
    _add_single_fit_args(p)
    _add_kernel_args(p)
    _add_solver_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-factors", required=True)
    p.add_argument("--out-trace", default="")

    p = add_parser("predict", cmd_predict, help="write the normalized action map of saved factors")
    p.add_argument("--data", required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--out", required=True)

    p = add_parser("evaluate", cmd_evaluate, help="score an action map against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--am", required=True)
    p.add_argument("--scenes", default="", help="comma-separated scene filter")
    _add_eval_args(p)
    p.add_argument("--out-txt", required=True)
    p.add_argument("--out-tsv", required=True)

    p = add_parser("grid", cmd_grid, help="run the parameter grid")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", default=",".join(VARIANTS))
    _add_grid_args(p)
    _add_kernel_args(p)
    _add_solver_args(p)
    _add_eval_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-tsv", required=True)
    p.add_argument("--out-txt", required=True)

    p = add_parser("transfer", cmd_transfer, help="novel-scene comparison with baselines")
    p.add_argument("--data", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--variants", default="SO,SP,SOP")
    _add_grid_args(p)
    _add_kernel_args(p)
    _add_solver_args(p)
    _add_eval_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-txt", required=True)
    p.add_argument("--out-tsv", required=True)

    p = add_parser("elapse", cmd_elapse, help="sweep demonstration fractions")
    p.add_argument("--data", required=True)
    p.add_argument("--fractions", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    _add_single_fit_args(p)
    _add_kernel_args(p)
    _add_solver_args(p)
    _add_eval_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add_parser("localize", cmd_localize, help="K-best discrepancy curve from an action map")
    p.add_argument("--data", required=True)
    p.add_argument("--am", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--k-max", type=int, default=50)
    p.add_argument("--out", required=True)

    p = add_parser("export-heatmap", cmd_export_heatmap, help="per-activity greymaps and tables")
    p.add_argument("--data", required=True)
    p.add_argument("--am", required=True)
    p.add_argument("--out-dir", required=True)

    return parser


def _config_value(path: str, key: str, action: argparse.Action, value):
    """A config value converted as argparse converts the flag's text."""
    if not isinstance(value, (str, int, float)):
        raise CliError(f"{path}: config key {key!r} takes one value, got {json.dumps(value)}")
    text = value if isinstance(value, str) else json.dumps(value)
    invalid = CliError(f"{path}: config key {key!r} has an invalid value {text!r}")
    if isinstance(value, bool):  # no flag takes a JSON true or false
        raise invalid
    try:
        converted = action.type(text) if action.type else text
    except ValueError:
        raise invalid from None
    if action.choices is not None and converted not in action.choices:
        raise CliError(f"{path}: config key {key!r} must be one of {list(action.choices)}")
    return converted


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; errors name the path and what."""
    if not os.path.exists(path):
        raise CliError(f"{what} file does not exist: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: invalid JSON {what}: {exc}") from None
    if not isinstance(obj, dict):
        raise CliError(f"{path}: {what} must be a JSON object")
    return obj


def _apply_config(args: argparse.Namespace):
    """Config file values override flags."""
    path = getattr(args, "config", "")
    if not path:
        return
    cfg = _read_json_object(path, "config")
    flags = {a.dest: a for a in args.parser._actions if a.dest not in ("help", "config")}
    for key, value in cfg.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise CliError(f"{path}: unknown config key {key!r}")
        setattr(args, action.dest, _config_value(path, key, action, value))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        if getattr(args, "mu", 0.0) != 0.0:  # also refuses NaN
            raise CliError(f"--mu must be 0 (the solver has no activity kernel), got {args.mu}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
