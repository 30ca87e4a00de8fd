"""Property tests for the instance JSON and trajectory CSV formats.

Runs are deterministic (``derandomize=True``), so a failure repeats.
"""

import contextlib
import copy
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from riccati_cert import coefficients as cf
from riccati_cert import serialize
from riccati_cert.cli import main
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.exceptions import InstanceFormatError
from riccati_cert.integrate import Trajectory
from riccati_cert.serialize import (
    dumps_instance,
    instance_to_obj,
    parse_instance,
    read_trajectory_csv,
    trajectory_csv_header,
    write_trajectory_csv,
)

DETERMINISTIC = settings(derandomize=True, deadline=None, max_examples=40,
                         database=None)

# The writer also computes the eigenvalue and residual monitors, which
# need |Y|^2 to stay finite; the integrators cap |Y| far below this.
finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, width=64)
moderate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


def matrices(n, elements=finite):
    parts = st.lists(elements, min_size=2 * n * n, max_size=2 * n * n)
    return parts.map(lambda p: np.array(p).view(np.complex128).reshape(n, n))


# ---------------------------------------------------------------------------
# Trajectory CSV: write then read
# ---------------------------------------------------------------------------

@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=m, max_size=m))
    times = np.cumsum(steps) - steps[0]
    values = np.stack([draw(matrices(n)) for _ in range(m)])
    return Trajectory(times=times, values=values, status="completed", method="test")


def zero_set(n, t_end):
    zero = cf.constant(np.zeros((n, n)))
    return CoefficientSet(n=n, t0=0.0, t_end=t_end, P=zero, Q=zero, R=zero, S=zero)


@DETERMINISTIC
@given(traj=trajectories())
def test_csv_round_trip(tmp_path_factory, traj):
    """Times come back bit for bit, and every part of Y that is not a zero
    too. Y is rebuilt as re + 1j * im, so a zero part may change sign."""
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    with np.errstate(all="ignore"):
        write_trajectory_csv(str(path), traj, zero_set(traj.n, float(traj.times[-1]) + 1.0))
    times, values = read_trajectory_csv(str(path), traj.n)
    assert times.tobytes() == traj.times.tobytes()
    assert np.array_equal(values, traj.values)
    sent = traj.values.view(np.float64)
    got = values.view(np.float64)
    nonzero = sent != 0
    assert got[nonzero].tobytes() == sent[nonzero].tobytes()


# ---------------------------------------------------------------------------
# Trajectory CSV: numpy's C parser against the csv module
# ---------------------------------------------------------------------------

def _cell(draw, x: float, odd: bool) -> str:
    """``x`` as written, with a sign, an exponent or padding, which both
    readers take; or, when ``odd``, at times underscored or quoted."""
    text = draw(st.sampled_from([repr(x), repr(x), format(x, "+"), format(x, ".17E")]))
    if odd and draw(st.integers(0, 3)) == 0 and text[-2:].isdigit():
        text = text[:-1] + "_" + text[-1]
    if draw(st.integers(0, 4)) == 0:
        pad = st.sampled_from(["", " ", "\t", "\xa0", "\x85"])
        text = draw(pad) + text + draw(pad)
    if odd and draw(st.integers(0, 3)) == 0:
        text = f'"{text}"'
    return text


@st.composite
def csv_texts(draw):
    """(n, text) of a trajectory CSV: what the writer produces, with other
    line ends, blank lines, padded and signed cells and extra monitor
    columns; some texts also hold whitespace-only lines, underscores,
    quotes, a non-finite value or a repeated time."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 5))
    odd = draw(st.booleans())
    extra = draw(st.integers(0, 3))
    steps = st.sampled_from([0.1, 1 / 3, 2.5] * 3 + [0.0] * odd)
    times = np.cumsum(draw(st.lists(steps, min_size=m, max_size=m))).tolist()
    # a quoted cell may span lines, with a second line that looks like a row
    spanning = '"a\r\n' + ",".join(["1e9"] + ["0.0"] * (2 * n * n)) + ',b"'
    monitor = st.sampled_from(["", "0.5", "#", "nan", "x y", "\x00"]
                              + (['"a,b"', '"a\r\nb"', spanning] if odd else []))
    blank = st.sampled_from(["", " ", "\t", "\x00"] if odd else [""])
    eol = st.sampled_from(["\r\n", "\r\n", "\n", "\r"])
    header = trajectory_csv_header(n) + [f"m{k}" for k in range(extra)]
    text = ",".join(header) + draw(eol)
    for t in times:
        parts = [draw(st.sampled_from([math.inf, math.nan]))
                 if odd and draw(st.integers(0, 19)) == 0 else draw(finite)
                 for _ in range(2 * n * n)]
        cells = [_cell(draw, x, odd) for x in [t, *parts]]
        cells += [draw(monitor) for _ in range(extra)]
        text += ",".join(cells) + draw(eol)
        if draw(st.integers(0, 3)) == 0:
            text += draw(blank) + draw(eol)
    return n, text


def _outcome(fn):
    """The bytes of what ``fn()`` returns, or the message of the refusal it raises."""
    try:
        return [a.tobytes() for a in fn()]
    except InstanceFormatError as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(case=csv_texts())
def test_c_parser_agrees_with_csv_module(tmp_path_factory, case):
    """Where numpy's C parser takes a text, its rows are those of the csv
    module bit for bit; and whichever path a text takes, the reader
    returns or refuses exactly what the csv path alone does."""
    n, text = case
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    path.write_bytes(text.encode())
    fast = serialize._load_rows(str(path), trajectory_csv_header(n)[:1 + 2 * n * n])
    if fast is not None:
        rows, _ = serialize._read_rows(str(path), n, trajectory_csv_header(n))
        assert fast.shape == rows.shape and fast.tobytes() == rows.tobytes()
    got = _outcome(lambda: read_trajectory_csv(str(path), n))
    event(f"C path {'takes' if fast is not None else 'leaves'} a text the reader "
          f"{'refuses' if isinstance(got, str) else 'accepts'}")
    with mock.patch.object(serialize, "_load_rows", return_value=None):
        assert got == _outcome(lambda: read_trajectory_csv(str(path), n))


@pytest.mark.parametrize("text, taken", [
    ("0.0,1.0,2.0\r\n0.5,3.0,4.0\r\n", True),
    ("0.0,1.0,2.0\n0.5,3.0,4.0", True),
    ("0.0,1.0,2.0\r0.5,3.0,4.0\r", True),
    ("0.0,1.0,2.0\r\n\r\n\r\n0.5,3.0,4.0\r\n", True),
    ("0.0,1.0,2.0\r\n", True),
    ("+0.0, 1.0 ,2E0,,#,x\r\n", True),
    ("0.0,1.0,2.0\r\n \r\n0.5,3.0,4.0\r\n", False),
    ("0.0,1_0,2.0\r\n", False),
    ('0.0,"1.0",2.0\r\n', True),
    ('0.0,1.0,2.0,"a\r\n0.5,3.0,4.0,b"\r\n', True),
    ("0.0,nan,2.0\r\n", True),
    ("", False),
])
def test_c_parser_takes_the_plain_texts(tmp_path, text, taken):
    """The C path is not vacuous: it takes what the writer writes with other
    line ends, blank lines, signs, padding, extra monitor columns and quoted
    fields, one that spans lines too, and leaves underscores and
    whitespace-only lines to the csv path."""
    path = tmp_path / "traj.csv"
    path.write_bytes(("t,y0_0_re,y0_0_im\r\n" + text).encode())
    assert (serialize._load_rows(str(path), trajectory_csv_header(1)[:3]) is not None) == taken


# ---------------------------------------------------------------------------
# Instance JSON: dump then parse
# ---------------------------------------------------------------------------

@st.composite
def functions(draw, n, t0, t_end):
    """A constant, polynomial or sampled function; sampled times span
    [t0, t_end], as the instance format requires."""
    kind = draw(st.sampled_from(["constant", "polynomial", "sampled"]))
    if kind == "constant":
        return cf.constant(draw(matrices(n, moderate)))
    if kind == "polynomial":
        degree = draw(st.integers(0, 3))
        coeffs = [draw(matrices(n, moderate)) for _ in range(degree + 1)]
        return cf.polynomial(coeffs, t_ref=draw(st.floats(-10.0, 10.0)))
    k = draw(st.integers(2, 5))
    steps = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k))
    fractions = np.cumsum(steps) - steps[0]
    times = t0 + fractions / fractions[-1] * (t_end - t0)
    return cf.sampled(times, [draw(matrices(n, moderate)) for _ in range(k)],
                      order=draw(st.sampled_from([1, 3])))


@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    a = draw(matrices(n, moderate))
    t0 = draw(st.floats(-100.0, 100.0))
    t_end = t0 + draw(st.floats(0.1, 10.0))
    cs = CoefficientSet(n=n, t0=t0, t_end=t_end, P=cf.constant(a + a.conj().T),
                        Q=draw(functions(n, t0, t_end)), R=draw(functions(n, t0, t_end)),
                        S=draw(functions(n, t0, t_end)))
    lam = draw(st.none() | functions(n, t0, t_end))
    grid_points = draw(st.none() | st.integers(2, 5000))
    return instance_to_obj(cs, draw(matrices(n)), lam=lam, grid_points=grid_points)


@DETERMINISTIC
@given(obj=instances())
def test_instance_round_trip(obj):
    text = dumps_instance(obj)
    parsed = parse_instance(json.loads(text))
    again = dumps_instance(instance_to_obj(parsed.cs, parsed.y0, lam=parsed.lam,
                                           grid_points=parsed.grid_points))
    assert again == text


# ---------------------------------------------------------------------------
# Fuzzed instance JSON through the CLI
# ---------------------------------------------------------------------------

BASE = {
    "n": 2, "t0": 0.0, "t_end": 1.0,
    "P": {"kind": "constant", "value": [[[2.0, 0.0], 0.5], [0.5, 1.0]]},
    "Q": {"kind": "polynomial", "coefficients": [[[0.0, 0.0], [0.0, 0.0]],
                                                 [[0.1, 0.0], [0.0, 0.1]]], "t_ref": 0.0},
    "R": {"kind": "constant", "value": [[0.0, 0.0], [0.0, 0.0]]},
    "S": {"kind": "sampled", "times": [0.0, 0.5, 1.0],
          "values": [[[1.0, 0.0], [0.0, 1.0]]] * 3, "order": 3},
    "Y0": [[1.0, 0.0], [0.0, 1.0]],
    "lambda": {"kind": "constant", "value": [[0.0, 0.0], [0.0, 0.0]]},
    "mu": {"kind": "constant", "value": [0.0, 0.0]},
    "grid_points": 11,
}

FIELDS = ["n", "t0", "t_end", "P", "P.kind", "P.value", "P.value.0", "P.value.0.0",
          "Q.coefficients", "Q.coefficients.1", "Q.t_ref", "R", "S.times", "S.times.1",
          "S.values", "S.values.2.1.1", "S.order", "Y0", "Y0.1.0", "lambda", "mu",
          "mu.value", "grid_points"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from([10**400, -(10**400), 1e308, -1e308, 5e-324, 0, 2, 10**7]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5) | st.sampled_from(["kind", "value", "times"]),
                      inner, max_size=3),
    max_leaves=8)


def put(obj, field, value):
    *path, last = [int(k) if k.isdigit() else k for k in field.split(".")]
    for key in path:
        obj = obj[key]
    obj[last] = value


def test_base_instance_is_valid(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(BASE))
    assert main(["check", str(path)]) == 0


@pytest.mark.parametrize("field", FIELDS)
@DETERMINISTIC
@given(value=json_values)
def test_fuzzed_field_exits_0_1_or_2(tmp_path_factory, field, value):
    obj = copy.deepcopy(BASE)
    put(obj, field, value)
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(json.dumps(obj))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main(["check", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
