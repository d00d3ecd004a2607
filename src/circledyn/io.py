"""Definition-file parsing, CSV emission, and the run report.

All CSV floats are written with 17 significant digits so values round-trip
losslessly; all output files are written to a temporary sibling and renamed,
so failed runs leave no partial files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import TYPE_CHECKING

from .errors import InputError

if TYPE_CHECKING:  # the loaders import these where they build them
    from .circle_map import CircleFamily, TPoly
    from .skew import SkewMap

# largest harmonic index j or |jy| accepted: scan grids hold 8j + 8 points
MAX_HARMONIC = 1024

CSV_SCHEMAS = {
    "rho": ("t", "rho", "error_bound", "classification", "p", "q"),
    "windows": ("p", "q", "t_lo", "t_hi", "width", "bracket_radius"),
    "tongues": ("delta", "p", "q", "t_lo", "t_hi"),
    "measure": ("q_max", "lower", "mc", "unresolved", "seed"),
    "dio": ("C", "n_max", "estimate", "analytic_lower", "grid_error"),
    "circles": ("k", "n", "x0_num", "x0_den", "sup_c3", "passes"),
    "search": ("t", "found", "k", "n", "rho", "classification"),
    "intersection": ("N", "mu_locked", "mu_pessimistic"),
    "eta": ("r", "eta", "eta_raw"),
}


def fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, header, rows) -> int:
    """Atomic CSV write with a fixed header and LF line endings; returns the
    number of bytes written."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(fmt_cell(v) for v in row) + "\n"
    data = text.encode()
    _atomic_write(path, data)
    return len(data)


def _atomic_write(path, data: bytes):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def hash_file(path) -> str:
    """Hash of a file's contents in git blob form: sha1('blob <len>\\0' + data)."""
    import hashlib

    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    except (OSError, ValueError, RecursionError) as e:
        # unreadable, not UTF-8, an over-long integer, or nested too deep
        raise InputError(f"{path}: cannot read: {e}")


# The checks below name the file (``where``) and the JSON path of the
# offending value, such as ``harmonics[0].j``.

def _object(value, where: str, path: str):
    if not isinstance(value, dict):
        raise InputError(f"{where}: {path} must be a JSON object, got {type(value).__name__}")


def _integer(value, where: str, path: str, low: int | None = None) -> int:
    # bool is an int subclass, but JSON true is not a number
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: {path} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InputError(f"{where}: {path} must be >= {low}, got {value}")
    return value


def _number(value, where: str, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: {path} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise InputError(f"{where}: {path} is an integer beyond the float range")
    if not math.isfinite(x):
        raise InputError(f"{where}: {path} must be finite, got {x!r}")
    return x


def _tpoly(value, where: str, path: str) -> TPoly:
    """A number, or a list of t-polynomial coefficients in ascending degree."""
    from .circle_map import TPoly

    if isinstance(value, list):
        return TPoly(tuple(_number(v, where, f"{path}[{k}]") for k, v in enumerate(value)))
    return TPoly((_number(value, where, path),))


def _harmonics(d: dict, where: str, keys, low):
    """(integer indices, TPoly a, TPoly b) of each entry of d["harmonics"].
    The last index (j or jy) is the circle harmonic, capped at MAX_HARMONIC."""
    entries = d.get("harmonics", [])
    if not isinstance(entries, list):
        raise InputError(f"{where}: harmonics must be a list, got {type(entries).__name__}")
    out = []
    for i, h in enumerate(entries):
        path = f"harmonics[{i}]"
        _object(h, where, path)
        for key in keys:
            if key not in h:
                raise InputError(f"{where}: {path} is missing {key!r}")
        idx = tuple(_integer(h[key], where, f"{path}.{key}", low) for key in keys)
        if abs(idx[-1]) > MAX_HARMONIC:
            raise InputError(f"{where}: {path}.{keys[-1]} must be at most {MAX_HARMONIC} "
                             f"in absolute value, got {idx[-1]}")
        out.append(idx + (_tpoly(h.get("a", 0.0), where, f"{path}.a"),
                          _tpoly(h.get("b", 0.0), where, f"{path}.b")))
    return tuple(out)


def _finite_sums(harmonics, where: str, keys):
    """Entries with equal indices are summed, which can overflow: raise
    for a merged entry (indices, TPoly a, TPoly b) with a non-finite
    coefficient."""
    for *idx, a, b in harmonics:
        if not all(math.isfinite(c) for c in a.coeffs + b.coeffs):
            names, values = ", ".join(keys), ", ".join(map(str, idx))
            if len(keys) > 1:
                names, values = f"({names})", f"({values})"
            raise InputError(f"{where}: harmonics with {names} = {values} "
                             "sum to a non-finite coefficient")


def family_from_dict(d: dict, where: str = "family") -> CircleFamily:
    from .circle_map import CircleFamily

    _object(d, where, "the top level")
    fam = CircleFamily(
        _integer(d.get("winding", 1), where, "winding", 1),
        _tpoly(d.get("const", 0.0), where, "const"),
        _harmonics(d, where, ("j",), 1),
        label=str(d.get("label", "")),
    )
    _finite_sums(fam.harmonics, where, ("j",))
    return fam


def load_family(path) -> CircleFamily:
    return family_from_dict(load_json(path), where=str(path))


def skew_from_dict(d: dict, where: str = "skew map") -> SkewMap:
    from .skew import SkewMap

    _object(d, where, "the top level")
    if "m" not in d:
        raise InputError(f"{where}: missing base 'm'")
    F = SkewMap(
        _integer(d["m"], where, "m", 2),
        _harmonics(d, where, ("jx", "jy"), None),
        label=str(d.get("label", "")),
    )
    _finite_sums(F.harmonics, where, ("jx", "jy"))
    return F


def load_skew(path) -> SkewMap:
    return skew_from_dict(load_json(path), where=str(path))


def write_report(path, report: dict):
    """Atomic write of the run record ``report`` as indented JSON with sorted
    keys."""
    _atomic_write(path, (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
