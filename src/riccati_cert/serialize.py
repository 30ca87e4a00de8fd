"""Instance JSON schema, trajectory CSV format, and status sidecars.

Wire conventions shared by the CLI:

* complex scalars serialize as ``[re, im]`` pairs (bare numbers are
  accepted on input and read as real);
* matrices serialize as row-major nested arrays of such pairs;
* coefficient functions are objects with a ``kind`` discriminator:
  ``{"kind": "constant", "value": ...}``,
  ``{"kind": "polynomial", "coefficients": [...], "t_ref": ...}``,
  ``{"kind": "sampled", "times": [...], "values": [...], "order": 1|3}``;
* trajectory CSV columns are ``t``, the entries of Y row-major with
  interleaved re/im parts, then the monitor columns ``lambda_min_gap``
  and ``residual`` (and ``det_phi_abs`` for the linear-flow method);
* each CSV gets a JSON status sidecar next to it.

The CSV writer formats every number with ``repr``, the shortest string
that reads back to the same float, and ends every line with ``\r\n``;
no field is ever quoted. The reader takes the first ``1 + 2 n^2``
columns of each row, accepts ``\n`` line ends and quoted fields, and
rejects non-finite values and times that do not strictly increase. It
rebuilds Y as ``re + 1j * im``, so a zero part may come back with the
other sign.

Parse errors raise ``InstanceFormatError`` with the offending field (or
CSV line and column) named in the message.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import coefficients as cf
from .coefficients import CoefficientFunction, CoefficientSet
from .criteria import MAX_GRID_POINTS
from .exceptions import InstanceFormatError, RiccatiError
from .integrate import LinearFlow, Trajectory


# ---------------------------------------------------------------------------
# Complex scalars and matrices
# ---------------------------------------------------------------------------

def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _real(obj) -> bool:
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _to_float(x, field: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise InstanceFormatError(f"field '{field}' is too large for a float") from None


def pair_to_complex(obj, field: str) -> complex:
    if _real(obj):
        return complex(_to_float(obj, field))
    if isinstance(obj, list) and len(obj) == 2 and all(map(_real, obj)):
        return complex(_to_float(obj[0], field), _to_float(obj[1], field))
    raise InstanceFormatError(f"field '{field}' must be a number or [re, im] pair")


def matrix_to_obj(m) -> list:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return m.view(np.float64).reshape(*m.shape, 2).tolist()


def _pair_matrix(obj, n: int):
    """The (n, n) complex array of ``obj`` when every entry is an ``[re, im]``
    pair of ints or floats that fit a float, else None."""
    if not all(type(row) is list and len(row) == n for row in obj):
        return None
    entries = list(chain.from_iterable(obj))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    parts = list(chain.from_iterable(entries))
    if not set(map(type, parts)) <= {int, float}:
        return None
    try:
        return np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n)
    except OverflowError:
        return None


def obj_to_matrix(obj, n: int, field: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != n:
        raise InstanceFormatError(f"field '{field}' must be an {n}x{n} row-major matrix")
    out = _pair_matrix(obj, n)
    if out is None:
        # Bare numbers, other types and errors: the entry loop names the field.
        out = np.empty((n, n), dtype=np.complex128)
        for i, row in enumerate(obj):
            if not isinstance(row, list) or len(row) != n:
                raise InstanceFormatError(f"field '{field}[{i}]' must have {n} entries")
            for j, entry in enumerate(row):
                out[i, j] = pair_to_complex(entry, f"{field}[{i}][{j}]")
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise InstanceFormatError(f"field '{field}' contains non-finite entries")
    return out


def _finite_number(obj, field: str) -> float:
    if not _real(obj):
        raise InstanceFormatError(f"field '{field}' must be a finite number")
    x = _to_float(obj, field)
    if not math.isfinite(x):
        raise InstanceFormatError(f"field '{field}' must be a finite number")
    return x


def _value_to_obj(v, scalar: bool):
    return complex_to_pair(v) if scalar else matrix_to_obj(v)


def _obj_to_value(obj, n: int, field: str, scalar: bool):
    return pair_to_complex(obj, field) if scalar else obj_to_matrix(obj, n, field)


# ---------------------------------------------------------------------------
# Coefficient functions
# ---------------------------------------------------------------------------

def function_to_obj(f: CoefficientFunction) -> dict:
    scalar = f.is_scalar
    if f.kind == "constant":
        return {"kind": "constant", "value": _value_to_obj(f.eval(0.0) if scalar
                                                           else f.value, scalar)}
    if f.kind == "polynomial":
        return {
            "kind": "polynomial",
            "t_ref": f.t_ref,
            "coefficients": [_value_to_obj(c, scalar) for c in f.coefficients],
        }
    if f.kind == "sampled":
        if f.node_derivatives is not None:
            raise RiccatiError("cannot serialize a sampled function with node derivatives: "
                               "the schema has no field for them")
        return {
            "kind": "sampled",
            "order": f.order,
            "times": f.times.tolist(),
            "values": [_value_to_obj(v, scalar) for v in f.values],
        }
    raise RiccatiError(f"cannot serialize coefficient function of kind {f.kind!r}")


def obj_to_function(obj, field: str, n: int, scalar: bool = False,
                    default_t_ref: float = 0.0) -> CoefficientFunction:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"field '{field}' must be a coefficient-function object")
    kind = obj.get("kind")
    if kind == "constant":
        if "value" not in obj:
            raise InstanceFormatError(f"field '{field}.value' is missing")
        return cf.constant(_obj_to_value(obj["value"], n, f"{field}.value", scalar),
                           scalar=scalar)
    if kind == "polynomial":
        coeffs = obj.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise InstanceFormatError(
                f"field '{field}.coefficients' must be a non-empty list")
        t_ref = _finite_number(obj.get("t_ref", default_t_ref), f"{field}.t_ref")
        vals = [_obj_to_value(c, n, f"{field}.coefficients[{k}]", scalar)
                for k, c in enumerate(coeffs)]
        try:
            return cf.polynomial(vals, t_ref=t_ref, scalar=scalar)
        except ValueError as exc:
            raise InstanceFormatError(f"field '{field}': {exc}") from exc
    if kind == "sampled":
        times = obj.get("times")
        values = obj.get("values")
        if not isinstance(times, list) or not isinstance(values, list):
            raise InstanceFormatError(
                f"field '{field}' (sampled) needs 'times' and 'values' lists")
        if len(times) != len(values):
            raise InstanceFormatError(
                f"field '{field}': {len(times)} times but {len(values)} values")
        order = obj.get("order", 3)
        if type(order) is not int or order not in (1, 3):
            raise InstanceFormatError(f"field '{field}.order' must be the integer 1 or 3")
        times = [_finite_number(t, f"{field}.times[{k}]") for k, t in enumerate(times)]
        vals = [_obj_to_value(v, n, f"{field}.values[{k}]", scalar)
                for k, v in enumerate(values)]
        try:
            return cf.sampled(times, vals, order=order, scalar=scalar)
        except (ValueError, RiccatiError) as exc:
            raise InstanceFormatError(f"field '{field}': {exc}") from exc
    raise InstanceFormatError(
        f"field '{field}.kind' must be 'constant', 'polynomial' or 'sampled'")


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

@dataclass
class ParsedInstance:
    cs: CoefficientSet
    y0: np.ndarray
    lam: CoefficientFunction | None = None
    mu: CoefficientFunction | None = None
    nu: CoefficientFunction | None = None
    grid_points: int | None = None


def parse_instance(obj) -> ParsedInstance:
    """Validate a JSON instance object and build the domain types."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceFormatError("field 'n' must be a positive integer")
    t0, t_end = (_finite_number(obj.get(name), name) for name in ("t0", "t_end"))
    if not t0 < t_end:
        raise InstanceFormatError("field 't_end' must exceed 't0'")
    if not math.isfinite(t_end - t0):
        raise InstanceFormatError("field 't_end' minus 't0' must be a finite number")

    fns = {}
    for name in ("P", "Q", "R", "S"):
        if name not in obj:
            raise InstanceFormatError(f"field '{name}' is missing")
        fns[name] = obj_to_function(obj[name], name, n, scalar=False, default_t_ref=t0)
    if "Y0" not in obj:
        raise InstanceFormatError("field 'Y0' is missing")
    y0 = obj_to_matrix(obj["Y0"], n, "Y0")

    try:
        cs = CoefficientSet(n=n, t0=t0, t_end=t_end, **fns)
    except RiccatiError as exc:
        raise InstanceFormatError(str(exc)) from exc
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc

    lam = (obj_to_function(obj["lambda"], "lambda", n, scalar=False, default_t_ref=t0)
           if "lambda" in obj else None)
    mu = (obj_to_function(obj["mu"], "mu", n, scalar=True, default_t_ref=t0)
          if "mu" in obj else None)
    nu = (obj_to_function(obj["nu"], "nu", n, scalar=True, default_t_ref=t0)
          if "nu" in obj else None)
    if lam is not None and lam.dim != n:
        raise InstanceFormatError(f"field 'lambda' has dimension {lam.dim}, expected {n}")

    grid_points = obj.get("grid_points")
    if grid_points is not None:
        if not isinstance(grid_points, int) or isinstance(grid_points, bool) \
                or not 2 <= grid_points <= MAX_GRID_POINTS:
            raise InstanceFormatError(
                f"field 'grid_points' must be an integer in 2..{MAX_GRID_POINTS}")

    return ParsedInstance(cs=cs, y0=y0, lam=lam, mu=mu, nu=nu, grid_points=grid_points)


def load_instance(path: str) -> ParsedInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read instance file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, bad UTF-8, integers past the digit limit, deep nesting
        raise InstanceFormatError(f"instance file is not valid JSON: {exc}") from exc
    return parse_instance(obj)


def instance_to_obj(cs: CoefficientSet, y0,
                    lam: CoefficientFunction | None = None,
                    mu: CoefficientFunction | None = None,
                    nu: CoefficientFunction | None = None,
                    grid_points: int | None = None) -> dict:
    obj = {
        "n": cs.n,
        "t0": cs.t0,
        "t_end": cs.t_end,
        "P": function_to_obj(cs.P),
        "Q": function_to_obj(cs.Q),
        "R": function_to_obj(cs.R),
        "S": function_to_obj(cs.S),
        "Y0": matrix_to_obj(y0),
    }
    if lam is not None:
        obj["lambda"] = function_to_obj(lam)
    if mu is not None:
        obj["mu"] = function_to_obj(mu)
    if nu is not None:
        obj["nu"] = function_to_obj(nu)
    if grid_points is not None:
        obj["grid_points"] = grid_points
    return obj


def dumps_instance(obj: dict) -> str:
    """Deterministic serialization: identical objects give identical bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Trajectory CSV and status sidecar
# ---------------------------------------------------------------------------

def trajectory_csv_header(n: int, with_det: bool = False) -> list[str]:
    cols = ["t"]
    for i in range(n):
        for j in range(n):
            cols.append(f"y{i}_{j}_re")
            cols.append(f"y{i}_{j}_im")
    cols += ["lambda_min_gap", "residual"]
    if with_det:
        cols.append("det_phi_abs")
    return cols


def write_trajectory_csv(path: str, traj: Trajectory, cs: CoefficientSet,
                         lam: CoefficientFunction | None = None,
                         flow: LinearFlow | None = None) -> None:
    """Write samples plus monitor columns.

    ``lambda_min_gap`` is the least eigenvalue of Y + Y* - L - L*;
    ``residual`` is the central-difference equation residual (empty when
    fewer than 3 samples are available); either is empty where it is NaN.
    ``det_phi_abs`` is only present when a linear flow is supplied. Rows
    are written one at a time.
    """
    from .verify import eigen_monitor, residual_series

    m = traj.times.size
    gaps = _csv_floats(eigen_monitor(traj, lam))
    resid = _csv_floats(residual_series(traj, cs)) if m >= 3 else [""] * m
    tails = [[g, r] for g, r in zip(gaps, resid)]
    if flow is not None:
        det_by_time = dict(zip(flow.times.tolist(),
                               (abs(complex(d)) for d in np.linalg.det(flow.phi))))
        for tail, t in zip(tails, traj.times.tolist()):
            tail.append(repr(det_by_time.get(t, float("nan"))))
    # Re/im parts interleaved, in row-major order of Y.
    ys = np.ascontiguousarray(traj.values, dtype=np.complex128).reshape(m, -1).view(np.float64)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(trajectory_csv_header(traj.n, with_det=flow is not None)) + "\r\n")
        for t, y, tail in zip(traj.times.tolist(), ys, tails):
            fh.write(",".join([repr(t), *map(repr, y.tolist()), *tail]) + "\r\n")


def _csv_floats(series: np.ndarray) -> list[str]:
    """Monitor column cells: repr of each value, empty for NaN."""
    return ["" if math.isnan(x) else repr(x) for x in series.tolist()]


def read_trajectory_csv(path: str, n: int):
    """Read back (times, values) from a trajectory CSV of dimension n.

    Every value must be finite and the times strictly increasing; a
    violation raises ``InstanceFormatError`` naming the line and column.
    """
    expected = 1 + 2 * n * n
    columns = trajectory_csv_header(n)
    rows: list[np.ndarray] = []
    lines: list[int] = []
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or len(header) < expected:
                raise InstanceFormatError(
                    f"trajectory CSV has {0 if header is None else len(header)} columns, "
                    f"expected at least {expected} for dimension {n}")
            for row in reader:
                if not row:
                    continue
                if len(row) < expected:
                    raise InstanceFormatError(
                        f"trajectory CSV line {reader.line_num} has {len(row)} columns, "
                        f"expected >= {expected}")
                rows.append(_parse_row(row[:expected], reader.line_num, columns))
                lines.append(reader.line_num)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read trajectory CSV: {exc}") from exc
    except (ValueError, csv.Error) as exc:
        raise InstanceFormatError(f"trajectory CSV cannot be read: {exc}") from exc
    if not rows:
        raise InstanceFormatError("trajectory CSV contains no samples")
    data = np.stack(rows)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, k = bad[0]
        raise InstanceFormatError(
            f"trajectory CSV line {lines[r]}, column '{columns[k]}': "
            f"non-finite value {float(data[r, k])!r}")
    times = data[:, 0].copy()
    steps = np.flatnonzero(np.diff(times) <= 0)
    if steps.size:
        r = steps[0] + 1
        raise InstanceFormatError(
            f"trajectory CSV line {lines[r]}, column 't': time {float(times[r])!r} does not "
            f"exceed the previous time {float(times[r - 1])!r}")
    values = (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, n, n)
    return times, values


def _parse_row(fields: list[str], line: int, columns: list[str]) -> np.ndarray:
    try:
        return np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        for col, x in zip(columns, fields):
            try:
                float(x)
            except ValueError:
                raise InstanceFormatError(f"trajectory CSV line {line}, column '{col}': "
                                          f"malformed number {x!r}") from None
        raise


def status_sidecar_path(csv_path: str) -> str:
    if csv_path.endswith(".csv"):
        return csv_path[:-4] + ".status.json"
    return csv_path + ".status.json"


def trajectory_status_obj(traj: Trajectory, extra: dict | None = None) -> dict:
    obj = {
        "method": traj.method,
        "status": traj.status,
        "n": int(traj.n),
        "samples": int(traj.times.size),
        "t_first": float(traj.times[0]) if traj.times.size else None,
        "t_last": float(traj.times[-1]) if traj.times.size else None,
        "t_escape": traj.t_escape,
        "blowup_trigger": traj.blowup_trigger,
        "singular_times": [float(t) for t in traj.singular_times],
        "notes": list(traj.notes),
    }
    if extra:
        obj.update(extra)
    return obj


def write_status_sidecar(csv_path: str, traj: Trajectory, extra: dict | None = None) -> str:
    sidecar = status_sidecar_path(csv_path)
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(trajectory_status_obj(traj, extra), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return sidecar


#: The termination statuses a trajectory can carry.
STATUSES = ("completed", "blow_up", "phi_singular")


def read_status_sidecar(csv_path: str) -> dict | None:
    """``status``, ``t_escape``, ``singular_times`` and, when recorded,
    ``samples`` and ``t_last`` from the status sidecar of ``csv_path``, or
    None when there is no sidecar.

    The first three fields must be present: ``status`` one of ``STATUSES``,
    ``t_escape`` a finite number or null, ``singular_times`` a list of
    finite numbers; ``samples`` must be a non-negative integer and
    ``t_last`` a finite number or null. Otherwise ``InstanceFormatError``
    names the field.
    """
    sidecar = status_sidecar_path(csv_path)
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise InstanceFormatError(f"cannot read status sidecar: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InstanceFormatError(f"status sidecar {sidecar} is not valid JSON: {exc}") from exc
    try:
        if not isinstance(obj, dict):
            raise InstanceFormatError("it must be a JSON object")
        for key in ("status", "t_escape", "singular_times"):
            if key not in obj:
                raise InstanceFormatError(f"field '{key}' is missing")
        status, t_escape, singular = obj["status"], obj["t_escape"], obj["singular_times"]
        if not isinstance(status, str) or status not in STATUSES:
            raise InstanceFormatError(f"field 'status' must be one of {', '.join(STATUSES)}")
        if t_escape is not None:
            t_escape = _finite_number(t_escape, "t_escape")
        if not isinstance(singular, list):
            raise InstanceFormatError("field 'singular_times' must be a list of finite numbers")
        singular = [_finite_number(t, f"singular_times[{i}]") for i, t in enumerate(singular)]
        out = {"status": status, "t_escape": t_escape, "singular_times": singular}
        if "samples" in obj:
            out["samples"] = obj["samples"]
            if type(out["samples"]) is not int or out["samples"] < 0:  # bool is refused
                raise InstanceFormatError("field 'samples' must be a non-negative integer")
        if "t_last" in obj:
            t_last = obj["t_last"]
            out["t_last"] = None if t_last is None else _finite_number(t_last, "t_last")
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"status sidecar {sidecar}: {exc}") from None
    return out
