"""Command-line entry point for the scoring and pruning pipeline.

Every invocation creates a run directory (timestamp plus a digest of the
canonical config, with a ``-1``, ``-2``, ... suffix when that name is
already taken) under ``--out`` and writes the parsed config, seeds, and
all machine-readable outputs there; stdout carries a short human summary
ending in the run directory's path.  A command that fails with a domain
error removes the run directory it was given.  Each command accepts only
the flags it reads, from four option groups defined once each: data,
scoring, solver and training; flags are never abbreviated.  Exit codes:
0 success, 1 domain error, 2 usage error (a flag the command does not
take is one).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import pruning
from .bounds import propagate_batch
from .datasets import balanced_batch, load_dataset, make_dataset, save_dataset, split_dataset
from .encoding import encode_network
from .errors import InvalidArgument, MipPruneError
from .lpformat import read_solution, write_lp, write_solution
from .network import apply_mask, conv, dense, flatten, init_network, load_network, save_network
from .solver import SolveConfig, solve_mip
from .training import TrainConfig, evaluate, train, write_trace_csv

__all__ = ["main", "entry"]


def _arch_ints(item: str, text: str, count: int) -> list[int]:
    """The ``count`` x-separated non-negative integers of ``text``, from arch ``item``."""
    toks = text.split("x")
    if len(toks) != count or not all(t.isascii() and t.isdigit() for t in toks):
        raise MipPruneError(f"cannot parse architecture item {item!r}")
    return [int(t) for t in toks]


def _parse_input_shape(text: str) -> tuple[int, ...]:
    """'CxHxW' (or any x-separated sizes) as a tuple of integers of at least 1."""
    try:
        shape = tuple(int(t) for t in text.split("x"))
    except ValueError:
        raise InvalidArgument(f"cannot parse --input-shape {text!r}") from None
    if min(shape) < 1:
        raise InvalidArgument(f"--input-shape {text!r} has a size below 1")
    return shape


def _parse_arch(text: str, n_classes: int) -> list[dict]:
    """'dense:16,dense:8' plus an automatic logit layer; conv as 'conv:4x3x3p1'."""
    descs: list[dict] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        kind, _, body = item.partition(":")
        if kind == "dense":
            descs.append(dense(*_arch_ints(item, body, 1)))
        elif kind == "conv":
            shape, has_pad, pad = body.partition("p")
            padding = _arch_ints(item, pad, 1)[0] if has_pad else 0
            descs.append(conv(*_arch_ints(item, shape, 3), padding=padding))
        elif kind in ("avgpool", "maxpool"):
            descs.append({"kind": kind, "window": _arch_ints(item, body, 1)[0]})
        elif item == "flatten":
            descs.append(flatten())
        else:
            raise MipPruneError(f"cannot parse architecture item {item!r}")
    descs.append(dense(n_classes, activation="none"))
    return descs


def _dataset(args, name: str, seed: int, held_out: bool = False):
    """Dataset ``name``: a .ds cache file, or generated with --n-per-class
    points per class (--classes and --dim apply to blobs only).

    With ``held_out``, a (train, eval) pair from one distribution: a cache
    file splits each class in half, a generator draws twice the points.
    """
    if name.endswith(".ds"):
        full = load_dataset(name)
        per = int(np.bincount(full.labels).min()) // 2
    else:
        per = args.n_per_class
        kwargs = {"n_classes": args.classes, "dim": args.dim} if name == "blobs" else {}
        full = make_dataset(name, 2 * per if held_out else per, seed, **kwargs)
    return split_dataset(full, per) if held_out else full


def _batch(args) -> tuple[np.ndarray, np.ndarray]:
    return balanced_batch(_dataset(args, args.data, args.data_seed), args.per_class)


def _solve_config(args, run: Path) -> SolveConfig:
    return SolveConfig(
        gap_tol=args.gap_tol,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        log_path=str(run / "solver.log") if args.log else None,
    )


def _train_config(args, epochs: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, learning_rate=args.lr, batch_size=args.batch_size,
                       optimizer=args.optimizer, seed=args.train_seed)


def _encode(args):
    """The scoring model of --model on the --data batch, as export-lp writes it."""
    net = load_network(args.model)
    xs, ys = _batch(args)
    bounds = propagate_batch(net, xs, args.epsilon)
    return encode_network(net, xs, ys, bounds, lam=args.lam, rescale=args.rescale)


def _canonical_config(args) -> str:
    skip = {"func"}
    lines = [f"command {args.command}"]
    for key in sorted(vars(args)):
        if key in skip or key == "command":
            continue
        val = getattr(args, key)
        if val is None:
            continue
        lines.append(f"{key} {val}")
    return "\n".join(lines) + "\n"


def _run_dir(args) -> Path:
    cfg = _canonical_config(args)
    digest = hashlib.sha256(cfg.encode("ascii")).hexdigest()[:8]
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run = Path(args.out) / f"{stamp}-{digest}"
    for n in itertools.count(1):
        try:
            run.mkdir(parents=True)
            break
        except FileExistsError:
            run = run.with_name(f"{stamp}-{digest}-{n}")
    (run / "config.txt").write_text(cfg, encoding="ascii")
    return run


def _add_generator(p: argparse.ArgumentParser, classes: int) -> None:
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--n-per-class", type=int, default=40)
    p.add_argument("--classes", type=int, default=classes, help="blobs only")
    p.add_argument("--dim", type=int, default=2, help="blobs only")


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True,
                   help="dataset name (blobs|moons|minidigits) or a .ds cache file")
    _add_generator(p, classes=4)


_SCORING = (
    ("--lambda", {"dest": "lam", "type": float, "default": 5.0}),
    ("--epsilon", {"type": float, "default": 0.0}),
    ("--rescale", {"choices": ("minus2", "minus1", "none"), "default": "minus2"}),
    ("--per-class", {"type": int, "default": 1, "help": "batch points per class fed to the model"}),
)


def _add_scoring(p: argparse.ArgumentParser, omit: str | None = None) -> None:
    """The scoring flags except ``omit``, which the command fixes or sweeps itself."""
    for flag, kwargs in _SCORING:
        if flag != omit:
            p.add_argument(flag, **kwargs)


def _add_solver(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gap-tol", type=float, default=1e-6)
    p.add_argument("--node-limit", type=int, default=100_000)
    p.add_argument("--time-limit", type=float, default=float("inf"))
    p.add_argument("--log", action="store_true",
                   help="write one line per branch-and-bound node and a closing 'end status' "
                        "line to solver.log (commands that solve several times keep the "
                        "last solve's log)")


def _add_training(p: argparse.ArgumentParser, epochs: bool) -> None:
    """Optimizer flags, plus --epochs unless the command fixes the epoch count."""
    if epochs:
        p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--optimizer", choices=("sgd", "rmsprop"), default="rmsprop")
    p.add_argument("--train-seed", type=int, default=0)


def cmd_train(args, run: Path) -> None:
    ds = _dataset(args, args.data, args.data_seed)
    descs = _parse_arch(args.arch, ds.n_classes)
    shape = ds.dim if args.input_shape is None else _parse_input_shape(args.input_shape)
    net = init_network(shape, descs, args.seed)
    result = train(net, ds, _train_config(args, args.epochs))
    save_network(result.net, run / "model.net")
    write_trace_csv(result.trace, run / "trace.csv")
    save_dataset(ds, run / "train.ds")
    acc = evaluate(result.net, ds)
    print(f"trained {args.arch} on {ds.name}: train accuracy {acc:.4f}")


def _warn_about(report) -> None:
    """Warn on stderr when the scores are the warm start's, or not proven
    optimal."""
    # the warm start is the unpruned network: every score 1
    if all(v == 1.0 for v in report.scores.values()):
        print("warning: the scores equal the warm start's (every unit 1.0); the search "
              "never improved on the unpruned network", file=sys.stderr)
    if report.status != "optimal":
        print(f"warning: solver status {report.status} (gap {report.gap:.2e}); "
              "scores are not proven optimal", file=sys.stderr)


def cmd_score(args, run: Path) -> None:
    net = load_network(args.model)
    xs, ys = _batch(args)
    if args.dump_bounds:
        from .bounds import dump_bounds_csv
        dump_bounds_csv(propagate_batch(net, xs, args.epsilon), run / "bounds.csv")
    report = pruning.score(net, xs, ys, args.lam, args.epsilon, args.rescale,
                           _solve_config(args, run), allow_imbalanced=args.allow_imbalanced)
    pruning.save_report(report, run / "report.txt")
    zeros = sum(1 for v in report.scores.values() if v < 1e-9)
    print(f"scored {len(report.scores)} units: objective {report.objective:.6f}, "
          f"gap {report.gap:.2e}, status {report.status}, {zeros} zero scores")
    _warn_about(report)


def cmd_prune(args, run: Path) -> None:
    net = load_network(args.model)
    report = pruning.load_report(args.report)
    mask = pruning.mask_from_scores(report, args.threshold)
    pruned = apply_mask(net, mask)
    save_network(pruned, run / "pruned.net")
    pct = 100.0 * pruning.prune_fraction(mask)
    print(f"pruned {mask.masked_count()} of {mask.total_units()} units ({pct:.1f}%)")


def cmd_evaluate(args, run: Path) -> None:
    net = load_network(args.model)
    ds = _dataset(args, args.data, args.data_seed)
    if args.report is not None:
        if args.threshold is None:
            raise MipPruneError("evaluating with a report requires --threshold")
        mask = pruning.mask_from_scores(pruning.load_report(args.report), args.threshold)
    else:
        mask = None
    acc = evaluate(net, ds, mask)
    (run / "accuracy.txt").write_text(f"{acc!r}\n", encoding="ascii")
    print(f"accuracy {acc:.4f} on {ds.name} ({'masked' if mask else 'unmasked'})")


def cmd_compare_baselines(args, run: Path) -> None:
    net = load_network(args.model)
    ds, eval_ds = _dataset(args, args.data, args.data_seed, held_out=True)
    xs, ys = balanced_batch(ds, args.per_class)
    report = pruning.score(net, xs, ys, args.lam, args.epsilon, args.rescale,
                           _solve_config(args, run))
    ft_cfg = _train_config(args, 1) if args.finetune else None
    result = pruning.compare_baselines(net, ds, eval_ds, report, args.threshold,
                                       args.seed, ft_cfg)
    pruning.save_report(report, run / "report.txt")
    pruning.save_result(result, run / "result.txt")
    print(f"reference {result.reference_accuracy:.4f} | "
          + " | ".join(f"{k} {v:.4f}" for k, v in sorted(result.accuracies.items()))
          + f" | prune {result.prune_pct:.1f}%")


def cmd_score_classwise(args, run: Path) -> None:
    net = load_network(args.model)
    ds = _dataset(args, args.data, args.data_seed)
    report = pruning.score_classwise(net, ds, args.lam, args.epsilon, args.rescale,
                                     solve_config=_solve_config(args, run))
    pruning.save_report(report, run / "report.txt")
    print(f"classwise scored {len(report.scores)} units, "
          f"mean objective {report.objective:.6f}, status {report.status}")
    _warn_about(report)


def cmd_transfer(args, run: Path) -> None:
    source = _dataset(args, args.source, args.data_seed)
    target, target_eval = _dataset(args, args.target, args.target_seed, held_out=True)
    descs = _parse_arch(args.arch, source.n_classes)
    cfg = _train_config(args, args.epochs)
    result = pruning.transfer(source.dim, descs, args.seed, source, target, target_eval,
                              args.lam, args.threshold, cfg, cfg,
                              epsilon=args.epsilon, rescale=args.rescale,
                              solve_config=_solve_config(args, run))
    pruning.save_result(result, run / "result.txt")
    print(f"{args.source} -> {args.target}: reference {result.reference_accuracy:.4f}, "
          f"masked {result.accuracies['ours']:.4f}, prune {result.prune_pct:.1f}%")


def _cmd_sweep(args, run: Path, kind: str) -> None:
    net = load_network(args.model)
    ds, eval_ds = _dataset(args, args.data, args.data_seed, held_out=True)
    xs, ys = balanced_batch(ds, args.per_class)
    values = args.values.split(",") if kind == "rescale" else [float(v) for v in args.values.split(",")]
    # the swept setting has no flag; pruning.sweep's default for it goes unused
    fixed = {k: v for k, v in vars(args).items() if k in ("threshold", "lam", "epsilon", "rescale")}
    rows = pruning.sweep(net, eval_ds, xs, ys, kind, values,
                         solve_config=_solve_config(args, run), **fixed)
    pruning.write_sweep_csv(rows, kind, run / "sweep.csv")
    for label, acc, pct in rows:
        print(f"{kind}={label}: masked accuracy {acc:.4f}, prune {pct:.1f}%")


def cmd_export_lp(args, run: Path) -> None:
    model = _encode(args)
    write_lp(model, run / "model.lp")
    if args.solve:
        sol = solve_mip(model, _solve_config(args, run), warm=model.reference_assignment)
        write_solution(model, sol.values, sol.objective, run / "model.sol")
        print(f"solved: objective {sol.objective:.6f}")
    print(f"exported {len(model.variables)} variables, {len(model.constraints)} constraints")


def cmd_import_solution(args, run: Path) -> None:
    model = _encode(args)
    x, objective = read_solution(model, args.solution)
    bad = model.check_assignment(x)
    if bad:
        raise MipPruneError(f"imported solution infeasible: {bad[0]}")
    obj = model.true_objective(x) if objective is None else objective
    report = pruning.ImportanceReport(
        scores=model.scores(x), lam=args.lam, rescale=args.rescale, epsilon=args.epsilon,
        batch_digest=model.batch_digest, objective=obj, gap=0.0, status="imported",
        node_count=0, cut_rounds=0, lp_pivots=0,
    )
    pruning.save_report(report, run / "report.txt")
    print(f"imported solution: objective {obj:.6f}, {len(report.scores)} scores")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mipprune", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        # no abbreviations: a flag the command lacks must not resolve to a
        # longer one it has (``--mode`` to ``--model``)
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", default=os.environ.get("MIPPRUNE_OUT", "runs"),
                       help="run directory root (env MIPPRUNE_OUT)")
        p.set_defaults(func=func)
        return p

    p = command("train", cmd_train, "train a model on a toy dataset")
    _add_data(p), _add_training(p, epochs=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--input-shape", default=None, help="CxHxW for conv nets")
    p.add_argument("--seed", type=int, default=0)

    p = command("score", cmd_score, "compute importance scores")
    _add_data(p), _add_scoring(p), _add_solver(p)
    p.add_argument("--model", required=True)
    p.add_argument("--allow-imbalanced", action="store_true")
    p.add_argument("--dump-bounds", action="store_true",
                   help="also write the propagated intervals to bounds.csv")

    p = command("prune", cmd_prune, "apply a threshold to a report and prune")
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--threshold", type=float, required=True)

    p = command("evaluate", cmd_evaluate, "accuracy of a model, optionally masked")
    _add_data(p)
    p.add_argument("--model", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--threshold", type=float, default=None)

    p = command("compare-baselines", cmd_compare_baselines, "ours vs random vs critical pruning")
    _add_data(p), _add_scoring(p), _add_solver(p), _add_training(p, epochs=False)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--seed", type=int, default=0, help="random-baseline seed")
    p.add_argument("--finetune", action="store_true")

    p = command("score-classwise", cmd_score_classwise, "independent per-class scoring")
    _add_data(p), _add_scoring(p, omit="--per-class"), _add_solver(p)
    p.add_argument("--model", required=True)

    p = command("transfer", cmd_transfer, "mask transfer between datasets")
    _add_generator(p, classes=2), _add_scoring(p, omit="--per-class"), _add_solver(p)
    _add_training(p, epochs=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--target-seed", type=int, default=1)
    p.add_argument("--threshold", type=float, required=True)

    for kind in ("lambda", "threshold", "rescale"):
        p = command(f"sweep-{kind}", lambda a, r, k=kind: _cmd_sweep(a, r, k),
                    f"sweep {kind} values")
        _add_data(p), _add_scoring(p, omit=f"--{kind}"), _add_solver(p)
        p.add_argument("--model", required=True)
        p.add_argument("--values", required=True, help="comma-separated settings")
        if kind != "threshold":
            p.add_argument("--threshold", type=float, default=0.1)

    p = command("export-lp", cmd_export_lp, "write the model as LP text")
    _add_data(p), _add_scoring(p), _add_solver(p)
    p.add_argument("--model", required=True)
    p.add_argument("--solve", action="store_true", help="also solve and write model.sol")

    p = command("import-solution", cmd_import_solution, "read an external solution file")
    _add_data(p), _add_scoring(p)
    p.add_argument("--model", required=True)
    p.add_argument("--solution", required=True)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run = None
    try:
        run = _run_dir(args)
        args.func(args, run)
    except (MipPruneError, OSError) as exc:
        if run is not None:  # a failed command leaves no run directory behind
            shutil.rmtree(run, ignore_errors=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"run directory: {run}")
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
