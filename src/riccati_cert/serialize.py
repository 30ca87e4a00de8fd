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

Every output file (the CSV, its sidecar and ``gen``'s instance file) is
opened by ``open_output``, which rewrites an existing file in place and
truncates it where the writing ends: a symlink is written through to its
target, and an existing file keeps its inode and permissions, as with a
file opened in mode ``"w"``. Nothing is fsynced, so, as before, a write
makes no durability promise; a write that stops partway leaves the file
ending where it stopped.

Instance files are compact JSON on one line with sorted keys, which
Python's json module formats in C.

The CSV writer formats every number with ``repr``, the shortest string
that reads back to the same float, and ends every line with ``\r\n``; no
field is ever quoted. The reader takes the first ``1 + 2 n^2`` columns
of each row, whose header names must be the writer's for the instance's
n, with no sample column of a larger n after them (the monitor columns
are free), accepts ``\n`` line ends and quoted fields, and rejects
non-finite values and times that do not strictly increase. It parses with
numpy's C reader, quoted fields included, and falls back to the ``csv``
module on any text the C reader refuses or any fault, so both give the
same bits and every refusal names its line and column. Y is a view of the
parsed (re, im) pairs, so the reader is the exact inverse of the writer:
every part, a signed zero too, comes back as written.

Parse errors raise ``InstanceFormatError`` with the offending field (or
CSV line and column) named in the message. A value whose rule belongs to a
library type or rule (a coefficient function, the interval, the sampled
order, the coefficient set, ``grid_points``) goes to that owner through
``exceptions.named_refusal``, which prefixes the owner's refusal with the
field's name; so do the status sidecar's checks, as one function.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import stat
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from . import coefficients as cf
from .coefficients import CoefficientFunction, CoefficientSet
from .criteria import GridSpec
from .exceptions import DomainError, InstanceFormatError, RiccatiError, named_refusal
from .integrate import LinearFlow, Trajectory
from .matrix_core import _OVERFLOW_QUIET
from .verify import MIN_RESIDUAL_SAMPLES, eigen_monitor, residual_series


# ---------------------------------------------------------------------------
# Complex scalars and matrices
# ---------------------------------------------------------------------------

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
    """``m`` (a scalar, a matrix or a stack of them) as nested ``[re, im]`` pairs."""
    return np.asarray(m, dtype=np.complex128, order="C")[..., None].view(np.float64).tolist()


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
    x = _to_float(obj, field) if _real(obj) else math.nan
    if not math.isfinite(x):
        raise InstanceFormatError(f"field '{field}' must be a finite number")
    return x


def _obj_to_value(obj, n: int, field: str, scalar: bool):
    return pair_to_complex(obj, field) if scalar else obj_to_matrix(obj, n, field)


# ---------------------------------------------------------------------------
# Coefficient functions
# ---------------------------------------------------------------------------

def function_to_obj(f: CoefficientFunction) -> dict:
    if f.kind == "constant":
        return {"kind": "constant", "value": matrix_to_obj(f.value)}
    if f.kind == "polynomial":
        return {
            "kind": "polynomial",
            "t_ref": f.t_ref,
            "coefficients": matrix_to_obj(f.coefficients),
        }
    if f.kind == "sampled":
        if f.node_derivatives is not None:
            raise RiccatiError("cannot serialize a sampled function with node derivatives: "
                               "the schema has no field for them")
        return {
            "kind": "sampled",
            "order": f.order,
            "times": f.times.tolist(),
            "values": matrix_to_obj(f.values),
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
        build = partial(cf.constant, _obj_to_value(obj["value"], n, f"{field}.value", scalar))
    elif kind == "polynomial":
        coeffs = obj.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise InstanceFormatError(
                f"field '{field}.coefficients' must be a non-empty list")
        t_ref = _finite_number(obj.get("t_ref", default_t_ref), f"{field}.t_ref")
        vals = [_obj_to_value(c, n, f"{field}.coefficients[{k}]", scalar)
                for k, c in enumerate(coeffs)]
        build = partial(cf.polynomial, vals, t_ref=t_ref)
    elif kind == "sampled":
        times = obj.get("times")
        values = obj.get("values")
        if not isinstance(times, list) or not isinstance(values, list):
            raise InstanceFormatError(
                f"field '{field}' (sampled) needs 'times' and 'values' lists")
        if len(times) != len(values):
            raise InstanceFormatError(
                f"field '{field}': {len(times)} times but {len(values)} values")
        order = obj.get("order", 3)
        named_refusal("", cf._require_order, order, f"field '{field}.order'")
        times = [_finite_number(t, f"{field}.times[{k}]") for k, t in enumerate(times)]
        vals = [_obj_to_value(v, n, f"{field}.values[{k}]", scalar)
                for k, v in enumerate(values)]
        build = partial(cf.sampled, times, vals, order=order)
    else:
        raise InstanceFormatError(
            f"field '{field}.kind' must be 'constant', 'polynomial' or 'sampled'")
    return named_refusal(f"field '{field}': ", build, scalar=scalar)


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
    grid: GridSpec | None = None

    @property
    def grid_points(self) -> int | None:
        return None if self.grid is None else self.grid.num_points


def parse_instance(obj) -> ParsedInstance:
    """Validate a JSON instance object and build the domain types."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceFormatError("field 'n' must be a positive integer")
    t0, t_end = (_finite_number(obj.get(name), name) for name in ("t0", "t_end"))
    named_refusal("field ", cf._require_interval, t0, t_end, "'t_end' minus 't0'")

    def function(name: str, scalar: bool = False) -> CoefficientFunction:
        """Field ``name`` as a function; sampled data must cover [t0, t_end] by
        the sampled domain rule, so that nothing fails later mid-run."""
        f = obj_to_function(obj[name], name, n, scalar=scalar, default_t_ref=t0)
        if f.kind == "sampled":
            try:
                f.eval(np.array([t0, t_end]))
            except DomainError:
                raise InstanceFormatError(
                    f"field '{name}.times' must cover [t0, t_end] = [{t0!r}, {t_end!r}], "
                    f"got [{float(f.times[0])!r}, {float(f.times[-1])!r}]") from None
        return f

    fns = {}
    for name in ("P", "Q", "R", "S"):
        if name not in obj:
            raise InstanceFormatError(f"field '{name}' is missing")
        fns[name] = function(name)
    if "Y0" not in obj:
        raise InstanceFormatError("field 'Y0' is missing")
    y0 = obj_to_matrix(obj["Y0"], n, "Y0")

    cs = named_refusal("", CoefficientSet, n=n, t0=t0, t_end=t_end, **fns)

    lam, mu, nu = (function(name, scalar) if name in obj else None
                   for name, scalar in cf.GAUGES.items())
    # every matrix above is read as n x n, lambda's values too
    grid_points = obj.get("grid_points")
    grid = None if grid_points is None else named_refusal(
        "field 'grid_points': ", GridSpec.for_set, cs, grid_points)

    return ParsedInstance(cs=cs, y0=y0, lam=lam, mu=mu, nu=nu, grid=grid)


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
    for name, f in zip(cf.GAUGES, (lam, mu, nu)):
        if f is not None:
            obj[name] = function_to_obj(cf._require_gauge(f, cs.n, name))
    if grid_points is not None:
        obj["grid_points"] = grid_points
    return obj


def dumps_instance(obj: dict) -> str:
    """Deterministic serialization: identical objects give identical bytes.

    Compact JSON on one line: without ``indent`` the json module formats
    in C, and the file is about half the size of an indented one."""
    return json.dumps(obj, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

@contextmanager
def open_output(path: str, newline: str | None = None):
    """A UTF-8 text file that writes ``path`` from offset 0, created if missing.

    An existing file is rewritten in place, not truncated first, and on exit
    is truncated at the byte offset the writing reached, also when the body
    raises. Mode ``"w"`` truncates to zero before writing, and on ext4
    (``auto_da_alloc``) closing a file that was truncated to zero and
    rewritten waits on a flush of the new data; replacing the file by
    ``os.replace`` waits the same way. A target that is not a regular file
    (``/dev/null``, a pipe) is never truncated. ``newline`` is ``open``'s.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        finally:
            fh.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


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
    ``residual`` is ``verify.residual_series``, the scaled residual of the
    samples' cubic Hermite interpolant in the run's own equation, by one
    formula: the Riccati equation of ``cs.comparison()`` for a ``lyapunov``
    run (the comparison equation), else that of ``cs``; 0 in the first and
    last row (empty when fewer than 3 samples are available); either is
    empty where it is NaN.
    ``det_phi_abs`` is only present when a linear flow is supplied. Rows
    are written one at a time, to a file opened by ``open_output``.
    """
    m = traj.times.size
    gaps = _csv_floats(eigen_monitor(traj, lam))
    resid = _csv_floats(residual_series(traj, cs)) if m >= MIN_RESIDUAL_SAMPLES else [""] * m
    tails = [[g, r] for g, r in zip(gaps, resid)]
    if flow is not None:
        with np.errstate(**_OVERFLOW_QUIET):  # an overflowing determinant is written as inf
            dets = np.linalg.det(flow.phi)
        det_by_time = dict(zip(flow.times.tolist(), (abs(complex(d)) for d in dets)))
        for tail, t in zip(tails, traj.times.tolist()):
            tail.append(repr(det_by_time.get(t, float("nan"))))
    # Re/im parts interleaved, in row-major order of Y.
    ys = np.ascontiguousarray(traj.values, dtype=np.complex128).reshape(m, -1).view(np.float64)

    with open_output(path, newline="") as fh:
        fh.write(",".join(trajectory_csv_header(traj.n, with_det=flow is not None)) + "\r\n")
        for t, y, tail in zip(traj.times.tolist(), ys, tails):
            fh.write(",".join([repr(t), *map(repr, y.tolist()), *tail]) + "\r\n")


def _csv_floats(series: np.ndarray) -> list[str]:
    """Monitor column cells: repr of each value, empty for NaN."""
    return ["" if math.isnan(x) else repr(x) for x in series.tolist()]


def read_trajectory_csv(path: str, n: int):
    """Read back (times, values) from a trajectory CSV of dimension n.

    The header must begin with ``trajectory_csv_header(n)``'s sample
    columns and have no sample column after them (``_header_fault``), every
    value must be finite and the times strictly increasing; a violation
    raises ``InstanceFormatError`` naming the line and column. numpy's C
    parser reads the file first; whatever it refuses or finds at fault is
    read again by the ``csv`` module, which accepts the same texts to the
    same bits and names the faulty line and column.

    ``values`` is Y as written: an (m, n, n) complex128 strided view into
    the (re, im) columns of the parsed rows, not C-contiguous, so every
    part comes back with the bits and sign it was written with and the
    reader holds no second copy of the samples.
    """
    columns = trajectory_csv_header(n)[:1 + 2 * n * n]
    data = _load_rows(path, columns)
    if data is None or _fault(data) is not None:
        data, lines = _read_rows(path, n, columns)
        fault = _fault(data)
        if fault is not None:
            r, k = fault
            if not math.isfinite(data[r, k]):
                raise InstanceFormatError(
                    f"trajectory CSV line {lines[r]}, column '{columns[k]}': "
                    f"non-finite value {float(data[r, k])!r}")
            raise InstanceFormatError(
                f"trajectory CSV line {lines[r]}, column 't': time {float(data[r, 0])!r} "
                f"does not exceed the previous time {float(data[r - 1, 0])!r}")
    return data[:, 0].copy(), data[:, 1:].view(np.complex128).reshape(-1, n, n)


def _fault(data: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first non-finite value, else (row, 0) of the first
    time that does not exceed the previous one, else None."""
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        return int(bad[0, 0]), int(bad[0, 1])
    steps = np.flatnonzero(np.diff(data[:, 0]) <= 0)
    return (int(steps[0]) + 1, 0) if steps.size else None


def _header_fault(header: list[str], columns: list[str]) -> str | None:
    """What is wrong with a CSV ``header`` for the sample ``columns`` of one n,
    or None: too few columns, a name that differs, or a sample column right
    after them, as in a file of a larger n (the monitor columns are free)."""
    k = len(columns)
    if len(header) < k:
        return f"has {len(header)} columns, expected at least {k}"
    for i, (name, want) in enumerate(zip(header, columns)):
        if name != want:
            return f"header column {i + 1} is {name!r}, expected {want!r}"
    if len(header) > k and re.fullmatch(r"y\d+_\d+_(re|im)", header[k]):
        return f"header column {k + 1} is {header[k]!r}, expected no further sample column"
    return None


def _load_rows(path: str, columns: list[str]) -> np.ndarray | None:
    """The first ``len(columns)`` columns of every sample row, parsed by numpy's
    C reader with the csv module's quoting, or None when ``_header_fault`` finds
    the header at fault, when the reader refuses the text or warns, or when
    there is no row."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            if _header_fault(next(csv.reader(fh), []), columns):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = np.loadtxt(fh, delimiter=",", quotechar='"', usecols=range(len(columns)),
                                  comments=None, ndmin=2)
    except (OSError, ValueError, csv.Error, Warning):
        return None  # the csv path reads the file again and names what is wrong
    return data if len(data) else None


def _read_rows(path: str, n: int, columns: list[str]) -> tuple[np.ndarray, list[int]]:
    """The sample rows of a trajectory CSV as one float array (a row per
    sample, the first 1 + 2 n^2 columns, named as in ``columns``) and the
    line number of each row."""
    expected = 1 + 2 * n * n
    rows: list[np.ndarray] = []
    lines: list[int] = []
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            fault = _header_fault(next(reader, []), columns)
            if fault:
                raise InstanceFormatError(f"trajectory CSV {fault} for dimension {n}")
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
    return np.stack(rows), lines


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
    """The status sidecar's object of a computed trajectory: its status fields,
    its driver's counters ``stats`` (``Trajectory.stats``), then ``extra``."""
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
        "stats": dict(traj.stats),
    }
    if extra:
        obj.update(extra)
    return obj


def write_status_sidecar(csv_path: str, status: dict) -> str:
    """Write ``status`` (a ``trajectory_status_obj``) next to ``csv_path``,
    to a file opened by ``open_output``."""
    sidecar = status_sidecar_path(csv_path)
    with open_output(sidecar) as fh:
        json.dump(status, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return sidecar


#: The termination statuses a trajectory can carry.
STATUSES = ("completed", "blow_up", "phi_singular")
#: The methods a computed trajectory can carry (``both`` writes its direct run).
METHODS = ("direct", "radon", "lyapunov")


def read_status_sidecar(csv_path: str) -> dict | None:
    """``status``, ``t_escape``, ``singular_times`` and, when recorded,
    ``samples``, ``t_last`` and ``method`` from the status sidecar of
    ``csv_path``, or None when there is no sidecar.

    The first three fields must be present: ``status`` one of ``STATUSES``,
    ``t_escape`` a finite number or null, ``singular_times`` a list of
    finite numbers; ``samples`` must be a non-negative integer, ``t_last``
    a finite number or null and ``method`` one of ``METHODS``. Otherwise
    ``InstanceFormatError`` names the field.
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
    return named_refusal(f"status sidecar {sidecar}: ", _sidecar_fields, obj)


def _sidecar_fields(obj) -> dict:
    """The fields ``read_status_sidecar`` returns, from a parsed sidecar, checked."""
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
    if "method" in obj:
        out["method"] = obj["method"]
        if out["method"] not in METHODS:
            raise InstanceFormatError(f"field 'method' must be one of {', '.join(METHODS)}")
    return out
