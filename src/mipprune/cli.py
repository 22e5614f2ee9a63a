"""Command-line entry point for the scoring and pruning pipeline.

Every invocation creates a run directory (timestamp plus a digest of the
canonical config, with a ``-1``, ``-2``, ... suffix when that name is
already taken) under ``--out`` and writes the parsed config, seeds, and
all machine-readable outputs there; stdout carries a short human summary
only.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import pruning
from .bounds import propagate_batch
from .datasets import balanced_batch, load_dataset, make_dataset, save_dataset, split_dataset
from .encoding import encode_network
from .errors import MipPruneError
from .lpformat import read_solution, write_lp, write_solution
from .network import apply_mask, init_network, load_network, save_network
from .network import avgpool, conv, dense, flatten, maxpool
from .solver import SolveConfig, solve_mip
from .training import TrainConfig, evaluate, train, write_trace_csv

__all__ = ["main", "entry"]


def _parse_arch(text: str, n_classes: int) -> list[dict]:
    """'dense:16,dense:8' plus an automatic logit layer; conv as 'conv:4x3x3p1'."""
    descs: list[dict] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("dense:"):
            descs.append(dense(int(item.split(":")[1])))
        elif item.startswith("conv:"):
            body = item.split(":")[1]
            pad = 0
            if "p" in body:
                body, pad_s = body.split("p")
                pad = int(pad_s)
            oc, kh, kw = (int(t) for t in body.split("x"))
            descs.append(conv(oc, kh, kw, padding=pad))
        elif item.startswith("avgpool:"):
            descs.append(avgpool(int(item.split(":")[1])))
        elif item.startswith("maxpool:"):
            descs.append(maxpool(int(item.split(":")[1])))
        elif item == "flatten":
            descs.append(flatten())
        else:
            raise MipPruneError(f"cannot parse architecture item {item!r}")
    descs.append(dense(n_classes, activation="none"))
    return descs


def _dataset_from_args(args, seed_attr: str = "data_seed", name_attr: str = "data"):
    name = getattr(args, name_attr)
    if name.endswith(".ds"):
        return load_dataset(name)
    kwargs = {}
    if name == "blobs":
        kwargs["n_classes"] = args.classes
        kwargs["dim"] = args.dim
    return make_dataset(name, args.n_per_class, getattr(args, seed_attr), **kwargs)


def _solve_config(args, run: Path) -> SolveConfig:
    return SolveConfig(
        gap_tol=args.gap_tol,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        log_path=str(run / "solver.log") if args.log else None,
    )


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=os.environ.get("MIPPRUNE_OUT", "runs"),
                   help="run directory root (env MIPPRUNE_OUT)")
    p.add_argument("--gap-tol", type=float, default=1e-6)
    p.add_argument("--node-limit", type=int, default=100_000)
    p.add_argument("--time-limit", type=float, default=float("inf"))


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True,
                   help="dataset name (blobs|moons|minidigits) or a .ds cache file")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--n-per-class", type=int, default=40)
    p.add_argument("--classes", type=int, default=4, help="blobs only")
    p.add_argument("--dim", type=int, default=2, help="blobs only")


def _add_score_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=5.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--rescale", choices=("minus2", "minus1", "none"), default="minus2")
    p.add_argument("--per-class", type=int, default=1,
                   help="batch points per class fed to the model")
    p.add_argument("--log", action="store_true",
                   help="write one line per branch-and-bound node and a closing 'end status' "
                        "line to solver.log (commands that solve several times keep the "
                        "last solve's log)")


def _batch(args):
    ds = _dataset_from_args(args)
    return ds, balanced_batch(ds, args.per_class)


def _train_eval_split(args):
    """The --data flags' dataset plus a held-out set from the same distribution."""
    name = args.data
    if name.endswith(".ds"):
        full = load_dataset(name)
        per = int(np.bincount(full.labels).min()) // 2
        return split_dataset(full, per)
    kwargs = {"n_classes": args.classes, "dim": args.dim} if name == "blobs" else {}
    full = make_dataset(name, 2 * args.n_per_class, args.data_seed, **kwargs)
    return split_dataset(full, args.n_per_class)


def cmd_train(args) -> int:
    run = _run_dir(args)
    ds = _dataset_from_args(args)
    descs = _parse_arch(args.arch, ds.n_classes)
    shape = ds.dim if args.input_shape is None else tuple(int(t) for t in args.input_shape.split("x"))
    net = init_network(shape, descs, args.seed)
    cfg = TrainConfig(epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size,
                      optimizer=args.optimizer, seed=args.train_seed)
    result = train(net, ds, cfg)
    save_network(result.net, run / "model.net")
    write_trace_csv(result.trace, run / "trace.csv")
    save_dataset(ds, run / "train.ds")
    acc = evaluate(result.net, ds)
    print(f"trained {args.arch} on {ds.name}: train accuracy {acc:.4f}")
    print(f"run directory: {run}")
    return 0


def _warn_if_unproven(report) -> None:
    if report.status != "optimal":
        print(f"warning: solver status {report.status} (gap {report.gap:.2e}); "
              "scores are not proven optimal", file=sys.stderr)


def cmd_score(args) -> int:
    run = _run_dir(args)
    net = load_network(args.model)
    _, (xs, ys) = _batch(args)
    if args.dump_bounds:
        from .bounds import dump_bounds_csv
        dump_bounds_csv(propagate_batch(net, xs, args.epsilon), run / "bounds.csv")
    report = pruning.score(net, xs, ys, args.lam, args.epsilon, args.rescale,
                           _solve_config(args, run), allow_imbalanced=args.allow_imbalanced)
    pruning.save_report(report, run / "report.txt")
    zeros = sum(1 for v in report.scores.values() if v < 1e-9)
    print(f"scored {len(report.scores)} units: objective {report.objective:.6f}, "
          f"gap {report.gap:.2e}, status {report.status}, {zeros} zero scores")
    _warn_if_unproven(report)
    print(f"run directory: {run}")
    return 0


def cmd_prune(args) -> int:
    run = _run_dir(args)
    net = load_network(args.model)
    report = pruning.load_report(args.report)
    mask = pruning.mask_from_scores(report, args.threshold)
    pruned = apply_mask(net, mask)
    save_network(pruned, run / "pruned.net")
    pct = 100.0 * pruning.prune_fraction(mask)
    print(f"pruned {mask.masked_count()} of {mask.total_units()} units ({pct:.1f}%)")
    print(f"run directory: {run}")
    return 0


def cmd_evaluate(args) -> int:
    run = _run_dir(args)
    net = load_network(args.model)
    ds = _dataset_from_args(args)
    if args.report is not None:
        if args.threshold is None:
            raise MipPruneError("evaluating with a report requires --threshold")
        mask = pruning.mask_from_scores(pruning.load_report(args.report), args.threshold)
    else:
        mask = None
    acc = evaluate(net, ds, mask)
    (run / "accuracy.txt").write_text(f"{acc!r}\n", encoding="ascii")
    print(f"accuracy {acc:.4f} on {ds.name} ({'masked' if mask else 'unmasked'})")
    return 0


def cmd_compare_baselines(args) -> int:
    run = _run_dir(args)
    net = load_network(args.model)
    ds, eval_ds = _train_eval_split(args)
    xs, ys = balanced_batch(ds, args.per_class)
    report = pruning.score(net, xs, ys, args.lam, args.epsilon, args.rescale,
                           _solve_config(args, run))
    ft_cfg = None
    if args.finetune:
        ft_cfg = TrainConfig(epochs=1, learning_rate=args.lr, batch_size=args.batch_size,
                             optimizer=args.optimizer, seed=args.train_seed)
    result = pruning.compare_baselines(net, ds, eval_ds, report, args.threshold,
                                       args.seed, ft_cfg)
    pruning.save_report(report, run / "report.txt")
    pruning.save_result(result, run / "result.txt")
    print(f"reference {result.reference_accuracy:.4f} | "
          + " | ".join(f"{k} {v:.4f}" for k, v in sorted(result.accuracies.items()))
          + f" | prune {result.prune_pct:.1f}%")
    print(f"run directory: {run}")
    return 0


def cmd_score_classwise(args) -> int:
    run = _run_dir(args)
    net = load_network(args.model)
    ds = _dataset_from_args(args)
    report = pruning.score_classwise(net, ds, args.lam, args.epsilon, args.rescale,
                                     mode=args.mode, solve_config=_solve_config(args, run),
                                     jobs=args.jobs)
    pruning.save_report(report, run / "report.txt")
    print(f"classwise ({args.mode}) scored {len(report.scores)} units, "
          f"mean objective {report.objective:.6f}, status {report.status}")
    _warn_if_unproven(report)
    print(f"run directory: {run}")
    return 0


def cmd_transfer(args) -> int:
    run = _run_dir(args)
    source = make_dataset(args.source, args.n_per_class, args.data_seed,
                          **({"n_classes": args.classes, "dim": args.dim}
                             if args.source == "blobs" else {}))
    target_full = make_dataset(args.target, 2 * args.n_per_class, args.target_seed,
                               **({"n_classes": args.classes, "dim": args.dim}
                                  if args.target == "blobs" else {}))
    target, target_eval = split_dataset(target_full, args.n_per_class)
    descs = _parse_arch(args.arch, source.n_classes)
    cfg = TrainConfig(epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size,
                      optimizer=args.optimizer, seed=args.train_seed)
    result = pruning.transfer(source.dim, descs, args.seed, source, target, target_eval,
                              args.lam, args.threshold, cfg, cfg,
                              epsilon=args.epsilon, rescale=args.rescale,
                              solve_config=_solve_config(args, run))
    pruning.save_result(result, run / "result.txt")
    print(f"{args.source} -> {args.target}: reference {result.reference_accuracy:.4f}, "
          f"masked {result.accuracies['ours']:.4f}, prune {result.prune_pct:.1f}%")
    print(f"run directory: {run}")
    return 0


def _cmd_sweep(args, kind: str) -> int:
    run = _run_dir(args)
    net = load_network(args.model)
    ds, eval_ds = _train_eval_split(args)
    xs, ys = balanced_batch(ds, args.per_class)
    values = args.values.split(",") if kind == "rescale" else [float(v) for v in args.values.split(",")]
    rows = pruning.sweep(net, eval_ds, xs, ys, kind, values, threshold=args.threshold,
                         lam=args.lam, epsilon=args.epsilon, rescale=args.rescale,
                         solve_config=_solve_config(args, run))
    pruning.write_sweep_csv(rows, kind, run / "sweep.csv")
    for label, acc, pct in rows:
        print(f"{kind}={label}: masked accuracy {acc:.4f}, prune {pct:.1f}%")
    print(f"run directory: {run}")
    return 0


def cmd_export_lp(args) -> int:
    run = _run_dir(args)
    net = load_network(args.model)
    _, (xs, ys) = _batch(args)
    bounds = propagate_batch(net, xs, args.epsilon)
    model = encode_network(net, xs, ys, bounds, lam=args.lam, rescale=args.rescale)
    write_lp(model, run / "model.lp")
    if args.solve:
        sol = solve_mip(model, _solve_config(args, run), warm=model.reference_assignment)
        write_solution(model, sol.values, sol.objective, run / "model.sol")
        print(f"solved: objective {sol.objective:.6f}")
    print(f"exported {len(model.variables)} variables, {len(model.constraints)} constraints")
    print(f"run directory: {run}")
    return 0


def cmd_import_solution(args) -> int:
    run = _run_dir(args)
    net = load_network(args.model)
    _, (xs, ys) = _batch(args)
    bounds = propagate_batch(net, xs, args.epsilon)
    model = encode_network(net, xs, ys, bounds, lam=args.lam, rescale=args.rescale)
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
    print(f"run directory: {run}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mipprune", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a toy dataset")
    _add_common(p), _add_data(p)
    p.add_argument("--arch", required=True)
    p.add_argument("--input-shape", default=None, help="CxHxW for conv nets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--optimizer", choices=("sgd", "rmsprop"), default="rmsprop")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="compute importance scores")
    _add_common(p), _add_data(p), _add_score_opts(p)
    p.add_argument("--model", required=True)
    p.add_argument("--allow-imbalanced", action="store_true")
    p.add_argument("--dump-bounds", action="store_true",
                   help="also write the propagated intervals to bounds.csv")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("prune", help="apply a threshold to a report and prune")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("evaluate", help="accuracy of a model, optionally masked")
    _add_common(p), _add_data(p)
    p.add_argument("--model", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare-baselines", help="ours vs random vs critical pruning")
    _add_common(p), _add_data(p), _add_score_opts(p)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--seed", type=int, default=0, help="random-baseline seed")
    p.add_argument("--finetune", action="store_true")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--optimizer", choices=("sgd", "rmsprop"), default="rmsprop")
    p.add_argument("--train-seed", type=int, default=0)
    p.set_defaults(func=cmd_compare_baselines)

    p = sub.add_parser("score-classwise", help="independent per-class scoring")
    _add_common(p), _add_data(p), _add_score_opts(p)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("independent", "simultaneous"), default="independent")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_score_classwise)

    p = sub.add_parser("transfer", help="mask transfer between datasets")
    _add_common(p), _add_score_opts(p)
    p.add_argument("--arch", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--target-seed", type=int, default=1)
    p.add_argument("--n-per-class", type=int, default=40)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--optimizer", choices=("sgd", "rmsprop"), default="rmsprop")
    p.add_argument("--train-seed", type=int, default=0)
    p.set_defaults(func=cmd_transfer)

    for kind in ("lambda", "threshold", "rescale"):
        p = sub.add_parser(f"sweep-{kind}", help=f"sweep {kind} values")
        _add_common(p), _add_data(p), _add_score_opts(p)
        p.add_argument("--model", required=True)
        p.add_argument("--values", required=True, help="comma-separated settings")
        p.add_argument("--threshold", type=float, default=0.1)
        p.set_defaults(func=lambda a, k=kind: _cmd_sweep(a, k))

    p = sub.add_parser("export-lp", help="write the model as LP text")
    _add_common(p), _add_data(p), _add_score_opts(p)
    p.add_argument("--model", required=True)
    p.add_argument("--solve", action="store_true", help="also solve and write model.sol")
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("import-solution", help="read an external solution file")
    _add_common(p), _add_data(p), _add_score_opts(p)
    p.add_argument("--model", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_import_solution)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MipPruneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
