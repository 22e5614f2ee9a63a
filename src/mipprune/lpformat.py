"""LP text export and solution-file import, the external-solver escape hatch.

The writer emits the common LP text layout (Minimize / Subject To / Bounds /
Binaries / End) with the model's stable variable names, so any off-the-shelf
solver can consume the file.  The solution reader accepts a plain
``name value`` listing with an optional ``# objective <v>`` header and maps
it back onto the model's variables.
"""

from __future__ import annotations

import numpy as np

from .encoding import MipModel
from .errors import MipPruneError, ModelFormatError

__all__ = ["write_lp", "write_solution", "read_solution"]


class LpIoError(MipPruneError, OSError):
    """Raised when the LP file or solution file cannot be written or read."""


def _num(v: float) -> str:
    return repr(float(v))


def _expr_text(coefs: dict[int, float], names: list[str]) -> str:
    parts: list[str] = []
    for j, c in sorted(coefs.items()):
        sign = "-" if c < 0 else "+"
        mag = _num(abs(c))
        if not parts:
            parts.append(f"{mag} {names[j]}" if sign == "+" else f"-{mag} {names[j]}")
        else:
            parts.append(f"{sign} {mag} {names[j]}")
    return " ".join(parts)


def write_lp(model: MipModel, path) -> None:
    """Write the model, current cut pool included, as LP text."""
    names = [v.name for v in model.variables]
    lines: list[str] = []
    lines.append(f"\\ objective constant {_num(model.objective_const)}")
    lines.append("Minimize")
    obj = {j: c for j, c in model.objective.items() if c != 0.0}
    lines.append(" obj: " + (_expr_text(obj, names) if obj else "0 " + names[0]))
    lines.append("Subject To")
    sense_txt = {"L": "<=", "G": ">=", "E": "="}
    for i in model.constraints:
        lines.append(
            f" c{i}: " + _expr_text(model.row(i), names)
            + f" {sense_txt[model.sense[i]]} {_num(model.rhs[i])}"
        )
    lines.append("Bounds")
    for v in model.variables:
        lo = "-inf" if not np.isfinite(v.lb) else _num(v.lb)
        hi = "+inf" if not np.isfinite(v.ub) else _num(v.ub)
        if lo == hi:
            lines.append(f" {v.name} = {lo}")
        elif not np.isfinite(v.lb) and not np.isfinite(v.ub):
            lines.append(f" {v.name} free")
        else:
            lines.append(f" {lo} <= {v.name} <= {hi}")
    binaries = [v.name for v in model.variables if v.binary]
    if binaries:
        lines.append("Binaries")
        for i in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[i : i + 8]))
    lines.append("End")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise LpIoError(f"cannot write LP file {path}: {exc}") from exc


def write_solution(model: MipModel, x: np.ndarray, objective: float, path) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# objective {_num(objective)}\n")
            for v in model.variables:
                fh.write(f"{v.name} {_num(float(x[v.idx]))}\n")
    except OSError as exc:
        raise LpIoError(f"cannot write solution file {path}: {exc}") from exc


def read_solution(model: MipModel, path) -> tuple[np.ndarray, float | None]:
    """Parse ``name value`` lines into an assignment over the model's variables.

    Unknown names raise; missing variables default to 0, which matches how
    most solvers omit structurally zero entries.
    """
    by_name = {v.name: v.idx for v in model.variables}
    x = np.zeros(len(model.variables), dtype=np.float64)
    objective: float | None = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise LpIoError(f"cannot read solution file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            toks = line[1:].split()
            if len(toks) == 2 and toks[0] == "objective":
                try:
                    objective = float(toks[1])
                except ValueError as exc:
                    raise ModelFormatError(f"bad objective value {toks[1]!r}", lineno) from exc
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ModelFormatError(f"expected 'name value', got {raw!r}", lineno)
        name, val = toks
        if name not in by_name:
            raise ModelFormatError(f"unknown variable {name!r}", lineno)
        try:
            x[by_name[name]] = float(val)
        except ValueError as exc:
            raise ModelFormatError(f"bad value {val!r} for {name}", lineno) from exc
    return x, objective
