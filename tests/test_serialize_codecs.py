"""The whole-row CSV and whole-matrix JSON codecs against per-element
reference implementations.

The reference functions below are the element-at-a-time codecs the
serialize module used before it worked on whole rows and matrices. The
new codecs must match them byte for byte on awkward values, so these
tests hold on any platform without golden files.
"""

import csv
import json
import math
import re

import numpy as np
import pytest

from riccati_cert import coefficients as cf
from riccati_cert import serialize
from riccati_cert.cli import main
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.exceptions import InstanceFormatError
from riccati_cert.instances import InstanceSpec, gen_blowup
from riccati_cert.integrate import (
    IntegratorOptions,
    LinearFlow,
    Trajectory,
    integrate_linear_system,
)
from riccati_cert.serialize import (
    matrix_to_obj,
    obj_to_matrix,
    pair_to_complex,
    read_trajectory_csv,
    trajectory_csv_header,
    write_trajectory_csv,
)
from riccati_cert.verify import eigen_monitor, residual_series

AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e-300, 1.0 / 3.0, -2.5]


# ---------------------------------------------------------------------------
# Reference implementations (per element)
# ---------------------------------------------------------------------------

def reference_write_trajectory_csv(path, traj, cs, lam=None, flow=None):
    n = traj.n
    gaps = eigen_monitor(traj, lam)
    if traj.times.size >= 3:
        resid = residual_series(traj, cs)
    else:
        resid = np.full(traj.times.size, np.nan)
    dets = None
    if flow is not None:
        det_by_time = {float(t): abs(complex(np.linalg.det(flow.phi[k])))
                       for k, t in enumerate(flow.times)}
        dets = [det_by_time.get(float(t), float("nan")) for t in traj.times]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(trajectory_csv_header(n, with_det=flow is not None))
        for k, t in enumerate(traj.times):
            row = [repr(float(t))]
            y = traj.values[k]
            for i in range(n):
                for j in range(n):
                    row.append(repr(float(y[i, j].real)))
                    row.append(repr(float(y[i, j].imag)))
            row.append(repr(float(gaps[k])))
            row.append("" if np.isnan(resid[k]) else repr(float(resid[k])))
            if dets is not None:
                row.append(repr(dets[k]))
            writer.writerow(row)


def reference_read_trajectory_csv(path, n):
    times, values = [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            times.append(float(row[0]))
            # each entry holds its two parts as written, signed zeros too
            flat = np.array([complex(float(row[1 + 2 * k]), float(row[2 + 2 * k]))
                             for k in range(n * n)])
            values.append(flat.reshape(n, n))
    return np.array(times), np.array(values)


def reference_matrix_to_obj(m):
    """``[re, im]`` of each entry of a scalar, a matrix or a stack, nested as ``m``."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim == 0:
        z = complex(m)
        return [z.real, z.imag]
    return [reference_matrix_to_obj(x) for x in m]


def reference_obj_to_matrix(obj, n, field):
    if not isinstance(obj, list) or len(obj) != n:
        raise InstanceFormatError(f"field '{field}' must be an {n}x{n} row-major matrix")
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise InstanceFormatError(f"field '{field}[{i}]' must have {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = pair_to_complex(entry, f"{field}[{i}][{j}]")
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise InstanceFormatError(f"field '{field}' contains non-finite entries")
    return out


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def constant_set(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    return CoefficientSet(
        n=n, t0=0.0, t_end=1.0,
        P=cf.constant(a @ a.T + np.eye(n)),
        Q=cf.constant(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
        R=cf.constant(rng.standard_normal((n, n))),
        S=cf.constant(np.eye(n)))


def awkward_trajectory(n, m):
    """m samples of n x n matrices whose parts cycle through AWKWARD."""
    parts = np.resize(np.array(AWKWARD), 2 * m * n * n)
    values = parts.view(np.complex128).reshape(m, n, n).copy()
    times = np.linspace(0.0, 1.0, m)
    return Trajectory(times=times, values=values, status="completed", method="test")


def write_both(tmp_path, traj, cs, lam=None, flow=None):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_trajectory_csv(str(new), traj, cs, lam=lam, flow=flow)
    reference_write_trajectory_csv(str(ref), traj, cs, lam=lam, flow=flow)
    return new, ref


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

class TestWriterMatchesReference:
    @pytest.mark.parametrize("n,m", [(1, 5), (2, 7), (3, 4)])
    def test_awkward_values(self, tmp_path, n, m):
        traj = awkward_trajectory(n, m)
        new, ref = write_both(tmp_path, traj, constant_set(n))
        data = new.read_bytes()
        assert data == ref.read_bytes()
        for x in ("-0.0", "5e-324", "1e+16", "1e+22", "-1e-300"):
            assert x.encode() in data

    def test_crlf_terminator_and_no_quoting(self, tmp_path):
        new, _ = write_both(tmp_path, awkward_trajectory(2, 4), constant_set(2))
        data = new.read_bytes()
        assert data.endswith(b"\r\n")
        assert data.count(b"\r\n") == 5
        assert b'"' not in data

    @pytest.mark.parametrize("m", [1, 2])
    def test_nan_residual_written_as_empty_field(self, tmp_path, m):
        traj = awkward_trajectory(2, m)
        new, ref = write_both(tmp_path, traj, constant_set(2))
        assert new.read_bytes() == ref.read_bytes()
        rows = list(csv.reader(new.open(newline="")))
        assert all(row[-1] == "" for row in rows[1:])

    def test_det_column_with_singular_and_missing_samples(self, tmp_path):
        traj = awkward_trajectory(2, 5)
        # |z| from abs(complex) and from np.abs differ in the last bit
        z = 0.0413259793472436 - 0.13616727303532677j
        assert abs(z) != float(np.abs(np.complex128(z)))
        phi = np.stack([np.eye(2)] * 4).astype(np.complex128)
        phi[1] = 0.0  # exactly singular: |det| = 0
        phi[2, 0, 0] = z
        phi[3] = [[3.0, 1j], [0.0, 3.0]]
        # the last sample time has no flow sample: its column reads nan
        flow = LinearFlow(times=traj.times[:4].copy(), phi=phi, psi=phi.copy())
        new, ref = write_both(tmp_path, traj, constant_set(2), flow=flow)
        assert new.read_bytes() == ref.read_bytes()
        rows = list(csv.reader(new.open(newline="")))
        assert rows[0][-1] == "det_phi_abs"
        assert [row[-1] for row in rows[1:3]] == ["1.0", "0.0"]
        assert rows[3][-1] == repr(abs(z)) and rows[5][-1] == "nan"
        assert float(rows[4][-1]) == pytest.approx(9.0, rel=1e-15)

    def test_radon_flow_through_poles(self, tmp_path):
        cs, y0 = gen_blowup(InstanceSpec(n=2, seed=3, target="blowup"))
        flow, traj = integrate_linear_system(cs, y0, IntegratorOptions(),
                                             np.linspace(cs.t0, cs.t_end, 41))
        new, ref = write_both(tmp_path, traj, cs, flow=flow)
        assert new.read_bytes() == ref.read_bytes()

    def test_real_valued_trajectory(self, tmp_path):
        traj = awkward_trajectory(2, 4)
        traj = Trajectory(times=traj.times, values=traj.values.real.copy(),
                          status="completed", method="test")
        new, ref = write_both(tmp_path, traj, constant_set(2))
        assert new.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

def assert_same_read(path, n):
    times, values = read_trajectory_csv(str(path), n)
    ref_times, ref_values = reference_read_trajectory_csv(str(path), n)
    assert times.dtype == ref_times.dtype and values.dtype == ref_values.dtype
    assert times.shape == ref_times.shape and values.shape == ref_values.shape
    assert times.tobytes() == ref_times.tobytes()
    assert values.tobytes() == ref_values.tobytes()
    return times, values


class TestReaderMatchesReference:
    @pytest.mark.parametrize("n,m", [(1, 5), (2, 7), (3, 2)])
    def test_awkward_values(self, tmp_path, n, m):
        traj = awkward_trajectory(n, m)
        new, _ = write_both(tmp_path, traj, constant_set(n))
        times, values = assert_same_read(new, n)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(values, traj.values)

    def test_lf_terminated_file(self, tmp_path):
        new, _ = write_both(tmp_path, awkward_trajectory(2, 4), constant_set(2))
        lf = tmp_path / "lf.csv"
        lf.write_bytes(new.read_bytes().replace(b"\r\n", b"\n"))
        assert_same_read(lf, 2)

    def test_quoted_fields(self, tmp_path):
        new, _ = write_both(tmp_path, awkward_trajectory(2, 4), constant_set(2))
        quoted = tmp_path / "quoted.csv"
        with new.open(newline="") as src, quoted.open("w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
        assert b'"' in quoted.read_bytes()
        times, values = assert_same_read(quoted, 2)
        assert times.tobytes() == read_trajectory_csv(str(new), 2)[0].tobytes()

    @pytest.mark.parametrize("written, read, message", [
        (3, 2, "header column 6 is 'y0_2_re', expected 'y1_0_re'"),
        (2, 1, "header column 4 is 'y0_1_re', expected no further sample column"),
    ])
    def test_header_must_name_the_columns_of_the_dimension(self, tmp_path, written, read,
                                                           message):
        """An n = 3 file holds the 9 columns an n = 2 read takes, under other
        names: the reader refuses it at the first such name. An n = 1 read
        takes a prefix of every larger file's header: the reader refuses the
        sample column after it. The rule compares unquoted names, so LF and
        fully quoted copies of the file read to the same bits as the written
        one, and both reader paths refuse them alike."""
        new, _ = write_both(tmp_path, awkward_trajectory(written, 4), constant_set(written))
        lf, quoted = tmp_path / "lf.csv", tmp_path / "quoted.csv"
        lf.write_bytes(new.read_bytes().replace(b"\r\n", b"\n"))
        with new.open(newline="") as src, quoted.open("w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
        want = [a.tobytes() for a in read_trajectory_csv(str(new), written)]
        columns = trajectory_csv_header(read)[:1 + 2 * read * read]
        for path in (new, lf, quoted):
            assert [a.tobytes() for a in read_trajectory_csv(str(path), written)] == want
            assert serialize._load_rows(str(path), columns) is None
            with pytest.raises(InstanceFormatError) as err:
                serialize._read_rows(str(path), read, columns)
            assert str(err.value) == f"trajectory CSV {message} for dimension {read}"
            with pytest.raises(InstanceFormatError) as err:
                read_trajectory_csv(str(path), read)
            assert str(err.value) == f"trajectory CSV {message} for dimension {read}"

    def test_blank_lines_skipped(self, tmp_path):
        new, _ = write_both(tmp_path, awkward_trajectory(1, 3), constant_set(1))
        gappy = tmp_path / "gappy.csv"
        gappy.write_bytes(new.read_bytes().replace(b"\r\n", b"\r\n\r\n"))
        assert_same_read(gappy, 1)


def write_rows(path, n, rows, quoting=csv.QUOTE_MINIMAL):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting)
        writer.writerow(trajectory_csv_header(n))
        writer.writerows(rows)


class TestReaderReturnsWrittenParts:
    """Y holds the parts as written, signed zeros in either part included,
    for plain and for fully quoted fields, both read by the C parser."""

    SIGNED_ZEROS = [[(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.5, -0.0)],
                    [(-0.0, 2.5), (-3.0, 0.0), (0.0, 0.0), (-0.0, -1e-300)],
                    [(5e-324, -0.0), (-0.0, -5e-324), (-0.0, 1e22), (0.0, -0.0)]]

    @staticmethod
    def whole_array(rows, n):
        times = np.array([float(row[0]) for row in rows])
        values = np.array([[complex(float(re), float(im)) for re, im in zip(row[1::2], row[2::2])]
                           for row in rows])
        return times, values.reshape(-1, n, n)

    def check(self, tmp_path, n, rows):
        want_times, want = self.whole_array(rows, n)
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            path = str(tmp_path / f"rows{quoting}.csv")
            write_rows(path, n, rows, quoting)
            assert serialize._load_rows(path, trajectory_csv_header(n)[:1 + 2 * n * n]) is not None
            times, values = read_trajectory_csv(path, n)
            assert times.tobytes() == want_times.tobytes()
            assert values.shape == want.shape and values.dtype == want.dtype
            assert values.tobytes() == want.tobytes()

    def test_signed_zeros_in_either_part(self, tmp_path):
        rows = [[repr(t)] + [repr(x) for pair in cells for x in pair]
                for t, cells in zip((0.0, 0.5, 1.0), self.SIGNED_ZEROS)]
        self.check(tmp_path, 2, rows)


class TestReaderRejects:
    def rows(self):
        return [["0.0", "1.0", "0.0", "0.5", ""],
                ["0.5", "2.0", "-1.0", "0.5", ""],
                ["1.0", "3.0", "1e-300", "0.5", ""]]

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "NaN"])
    def test_non_finite_value_names_line_and_column(self, tmp_path, text):
        rows = self.rows()
        rows[1][2] = text
        path = tmp_path / "bad.csv"
        write_rows(path, 1, rows)
        with pytest.raises(InstanceFormatError, match=r"line 3, column 'y0_0_im'"):
            read_trajectory_csv(str(path), 1)

    def test_non_finite_time(self, tmp_path):
        rows = self.rows()
        rows[2][0] = "nan"
        path = tmp_path / "bad.csv"
        write_rows(path, 1, rows)
        with pytest.raises(InstanceFormatError, match=r"line 4, column 't'"):
            read_trajectory_csv(str(path), 1)

    @pytest.mark.parametrize("t", ["0.5", "0.25"])
    def test_times_not_strictly_increasing(self, tmp_path, t):
        rows = self.rows()
        rows[2][0] = t
        path = tmp_path / "bad.csv"
        write_rows(path, 1, rows)
        with pytest.raises(InstanceFormatError, match=r"line 4, column 't'.*exceed"):
            read_trajectory_csv(str(path), 1)

    def test_malformed_number_names_column(self, tmp_path):
        rows = self.rows()
        rows[0][1] = "1.0.0"
        path = tmp_path / "bad.csv"
        write_rows(path, 1, rows)
        with pytest.raises(InstanceFormatError, match=r"line 2, column 'y0_0_re'.*'1.0.0'"):
            read_trajectory_csv(str(path), 1)

    def test_short_row_names_line(self, tmp_path):
        rows = self.rows()
        rows[1] = rows[1][:2]
        path = tmp_path / "bad.csv"
        write_rows(path, 1, rows)
        with pytest.raises(InstanceFormatError, match=r"line 3 has 2 columns"):
            read_trajectory_csv(str(path), 1)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t,y0_0_re,y0_0_im\r\n\xff\xfe,1,2\r\n")
        with pytest.raises(InstanceFormatError):
            read_trajectory_csv(str(path), 1)


# ---------------------------------------------------------------------------
# Matrix codecs
# ---------------------------------------------------------------------------

class TestMatrixCodecsMatchReference:
    @pytest.mark.parametrize("m", [
        np.array([[1 + 2j, -0.0 - 0.0j], [5e-324j, 1e22 - 1e-300j]]),
        np.array([[1.0, -0.0], [1e16, -1e-300]]),
        np.array([[3, -4], [0, 7]]),
        np.array([[0.5 - 0.25j]]),
    ], ids=["complex", "real", "int", "1x1"])
    def test_matrix_to_obj(self, m):
        obj = matrix_to_obj(m)
        assert json.dumps(obj) == json.dumps(reference_matrix_to_obj(m))
        back = obj_to_matrix(json.loads(json.dumps(obj)), m.shape[0], "M")
        assert back.tobytes() == np.asarray(m, dtype=np.complex128).tobytes()

    @pytest.mark.parametrize("m", [
        -0.0, 5e-324, complex(-0.0, 5e-324), np.complex128(complex(5e-324, -0.0)),
        np.array(-5e-324 - 0.0j), np.float64(-0.0), 3,
        np.array([-0.0, 5e-324j, 1e22 - 1e-300j]),
        np.array([[[1 + 2j, -0.0 - 0.0j], [5e-324j, -5e-324]],
                  [[-0.0, 1e16], [0.25j, -1e-300 + 0j]]]),
        np.array([[[-0.0, 5e-324]]])[:, :, ::-1],
    ], ids=["neg-zero", "subnormal", "complex", "np-scalar", "0-d", "np-float", "int",
            "scalar-stack", "matrix-stack", "strided"])
    def test_matrix_to_obj_of_any_shape(self, m):
        """A scalar writes one pair and a stack one nested list per entry."""
        obj = matrix_to_obj(m)
        assert json.dumps(obj) == json.dumps(reference_matrix_to_obj(m))
        assert np.shape(obj) == np.shape(m) + (2,)

    @pytest.mark.parametrize("obj", [
        [[[1.0, 2.0], [-0.0, 5e-324]], [[1e22, -1e-300], [3, -4]]],
        [[1.5, [0.0, 1.0]], [2, -0.0]],
        [[2**63 + 1, [2**64 + 3, -(2**70)]], [[0, 0], 10**300]],
        [[[1, 2], [3, 4]], [[5, 6], [7.5, 8]]],
    ], ids=["pairs", "bare", "big-ints", "int-pairs"])
    def test_obj_to_matrix_accepts_alike(self, obj):
        new = obj_to_matrix(obj, 2, "M")
        assert new.tobytes() == reference_obj_to_matrix(obj, 2, "M").tobytes()

    @pytest.mark.parametrize("obj", [
        "x", None, [[1.0, 2.0]], [[1.0], [1.0, 2.0]], [[1.0, 2.0], (1.0, 2.0)],
        [[1.0, True], [1.0, 2.0]], [[[1.0, False], 0.0], [0.0, 0.0]],
        [[[1.0, True], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[1.0], 0.0], [0.0, 0.0]], [[[1.0, 2.0, 3.0], 0.0], [0.0, 0.0]],
        [[[1.0, "2"], 0.0], [0.0, 0.0]], [[{}, 0.0], [0.0, 0.0]],
        [[[1.0, 2.0], [3.0, None]], [[0.0, 0.0], [0.0, 0.0]]],
        [[float("nan"), 0.0], [0.0, 0.0]], [[[0.0, float("inf")], 0.0], [0.0, 0.0]],
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("-inf"), 0.0]]],
    ])
    def test_obj_to_matrix_rejects_alike(self, obj):
        with pytest.raises(InstanceFormatError) as ref:
            reference_obj_to_matrix(obj, 2, "M")
        with pytest.raises(InstanceFormatError) as new:
            obj_to_matrix(obj, 2, "M")
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize("obj,field", [
        ([[10**400, 0.0], [0.0, 0.0]], r"M\[0\]\[0\]"),
        ([[[0.0, 0.0], [0.0, -(10**400)]], [[0.0, 0.0], [0.0, 0.0]]], r"M\[0\]\[1\]"),
    ])
    def test_int_too_large_for_float_is_named(self, obj, field):
        with pytest.raises(InstanceFormatError, match=field + ".*too large"):
            obj_to_matrix(obj, 2, "M")


# ---------------------------------------------------------------------------
# Malformed input through the CLI: exit 2 and a named field
# ---------------------------------------------------------------------------

def base_instance():
    return {
        "n": 1, "t0": 0.0, "t_end": 1.0,
        "P": {"kind": "constant", "value": [[1.0]]},
        "Q": {"kind": "polynomial", "coefficients": [[[0.0]]], "t_ref": 0.0},
        "R": {"kind": "constant", "value": [[0.0]]},
        "S": {"kind": "sampled", "times": [0.0, 1.0], "values": [[[1.0]], [[1.0]]],
              "order": 1},
        "Y0": [[1.0]],
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BIG = "1" + "0" * 400


class TestLoaderErrors:
    @pytest.mark.parametrize("old,new,field", [
        ('"Y0": [[1.0]]', f'"Y0": [[{BIG}]]', "'Y0[0][0]'"),
        ('"t0": 0.0', f'"t0": -{BIG}', "'t0'"),
        ('"t_end": 1.0', f'"t_end": {BIG}', "'t_end'"),
        ('"t_ref": 0.0', f'"t_ref": {BIG}', "'Q.t_ref'"),
        ('"t_ref": 0.0', '"t_ref": NaN', "'Q.t_ref'"),
        ('"times": [0.0, 1.0]', '"times": [{}, 1.0]', "'S.times[0]'"),
        ('"times": [0.0, 1.0]', '"times": ["0", "1"]', "'S.times[0]'"),
        ('"times": [0.0, 1.0]', '"times": [false, true]', "'S.times[0]'"),
        ('"times": [0.0, 1.0]', '"times": [0.0, Infinity]', "'S.times[1]'"),
        ('"t0": 0.0, "t_end": 1.0', '"t0": -1e308, "t_end": 1e308', "'t_end' minus 't0'"),
        ('"order": 1', '"order": true', "'S.order'"),
        ('"order": 1', '"order": 1.0', "'S.order'"),
        ('"order": 1', '"order": 3.0', "'S.order'"),
        ('"t_end": 1.0', '"t_end": 5.0', "'S.times' must cover [t0, t_end]"),
        ('"t0": 0.0', '"t0": -1.0', "'S.times' must cover [t0, t_end]"),
    ])
    def test_exit_two_with_named_field(self, capsys, tmp_path, old, new, field):
        text = json.dumps(base_instance())
        assert old in text
        path = tmp_path / "bad.json"
        path.write_text(text.replace(old, new))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert field in err

    @pytest.mark.parametrize("field", ["P", "Q", "R", "S", "lambda", "mu", "nu"])
    @pytest.mark.parametrize("command", ["check", "integrate", "verify"])
    def test_sampled_data_short_of_t_end_exits_two_at_load(self, capsys, tmp_path, field,
                                                           command):
        obj = base_instance()
        obj["t_end"] = 5.0
        obj["S"]["times"] = [0.0, 5.0]
        value = [1.0, 0.0] if field in ("mu", "nu") else [[1.0]]
        obj[field] = {"kind": "sampled", "times": [0.0, 1.0], "values": [value, value],
                      "order": 1}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "traj.csv"
        out.write_text("t,y0_0_re,y0_0_im\r\n0.0,1.0,0.0\r\n5.0,1.0,0.0\r\n")
        argv = {"check": ["check", str(path)],
                "integrate": ["integrate", str(path), "--out", str(tmp_path / "new.csv")],
                "verify": ["verify", str(path), str(out)]}[command]
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert f"field '{field}.times' must cover [t0, t_end]" in err
        assert not (tmp_path / "new.csv").exists()

    @pytest.mark.parametrize("kind", ["constant", "polynomial", "sampled"])
    def test_dimension_above_cap_names_the_field(self, capsys, tmp_path, kind):
        z = [[0.0] * 65] * 65
        p = {"constant": {"kind": "constant", "value": z},
             "polynomial": {"kind": "polynomial", "coefficients": [z]},
             "sampled": {"kind": "sampled", "order": 1, "times": [0.0, 1.0],
                         "values": [z, z]}}[kind]
        obj = {"n": 65, "t0": 0.0, "t_end": 1.0, "P": p, "Q": p, "R": p, "S": p, "Y0": z}
        path = tmp_path / "n65.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err.startswith("error: field 'P': ") and "1..64, got 65" in err

    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000, None])
    def test_unreadable_json_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        if text is None:
            path.write_bytes(b"\xff\xfe{}")
        else:
            path.write_text(json.dumps(base_instance()).replace('[[1.0]]}', f'[[{text}]]}}'))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_grid_points_above_cap(self, capsys, tmp_path):
        obj = base_instance()
        obj["grid_points"] = 10**20
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "'grid_points'" in err

    @pytest.mark.parametrize("grid", ["0", "1", "-3", str(10**20)])
    def test_grid_flag_out_of_range(self, capsys, tmp_path, grid):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(base_instance()))
        code, _, err = run(capsys, "check", str(path), "--grid", grid)
        assert code == 2
        assert "--grid" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("check", "--tol", "nan"), ("check", "--tol", "-1"), ("check", "--tol", "inf"),
        ("verify", "--tol", "nan"), ("verify", "--tol", "-1e-6"), ("verify", "--tol", "inf"),
        ("integrate", "--rtol", "inf"), ("integrate", "--rtol", "0"),
        ("integrate", "--atol", "nan"), ("integrate", "--atol", "-1"),
        ("gen", "--horizon", "nan"), ("gen", "--horizon", "inf"), ("gen", "--horizon", "0"),
        ("gen", "--t0", "nan"), ("gen", "--t0", "-inf"),
        ("gen", "--scale", "inf"), ("gen", "--scale", "-1"),
        ("gen", "--t0", "1e308"),
        ("gen", "--n", "-1"), ("gen", "--n", "0"), ("gen", "--n", "65"),
        ("gen", "--seed", "-1"),
    ])
    def test_numeric_flag_out_of_range(self, capsys, tmp_path, command, flag, value):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(base_instance()))
        out = tmp_path / "out.csv"
        argv = {"check": ["check", str(path)],
                "verify": ["verify", str(path), str(out)],
                "integrate": ["integrate", str(path), "--out", str(out)],
                "gen": ["gen", "--target", "satisfying", "--n", "2", "--out", str(out),
                        "--horizon", "1e308"]}[command]
        code, stdout, err = run(capsys, *argv, f"{flag}={value}")
        assert code == 2 and stdout == ""
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["1", "1000001", "1000000000", str(10**20)])
    def test_samples_flag_out_of_range(self, capsys, tmp_path, samples):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(base_instance()))
        out = tmp_path / "traj.csv"
        code, _, err = run(capsys, "integrate", str(path), "--out", str(out),
                           "--samples", samples)
        assert code == 2
        assert "--samples" in err
        assert not out.exists()


class TestVerifyRefuses:
    @pytest.fixture
    def chain(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(base_instance()))
        out = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "integrate", str(path), "--out", str(out), "--samples", "11")
        assert code == 0
        rows = list(csv.reader(out.open(newline="")))
        return path, out, rows

    def rewrite(self, out, rows):
        with out.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize("row,col,text,match", [
        (3, 1, "inf", r"line 4, column 'y0_0_re'"),
        (5, 2, "nan", r"line 6, column 'y0_0_im'"),
        (4, 0, "nan", r"line 5, column 't'"),
        (4, 0, "0.2", r"line 5, column 't'"),
        (4, 0, "0.1", r"line 5, column 't'"),
    ])
    def test_unvouched_rows_exit_two(self, capsys, chain, row, col, text, match):
        path, out, rows = chain
        rows[row][col] = text
        self.rewrite(out, rows)
        code, stdout, err = run(capsys, "verify", str(path), str(out))
        assert code == 2
        assert stdout == ""
        assert re.search(match, err)

    @pytest.mark.parametrize("row,text,where", [
        (1, "-0.5", "first row"), (-1, "1.5", "last row")])
    def test_times_outside_horizon_exit_two(self, capsys, chain, row, text, where):
        path, out, rows = chain
        rows[row][0] = text
        self.rewrite(out, rows)
        code, _, err = run(capsys, "verify", str(path), str(out))
        assert code == 2
        assert where in err and "column 't'" in err

    def test_times_within_slack_accepted(self, capsys, chain):
        path, out, rows = chain
        rows[-1][0] = repr(1.0 + 5e-13)
        self.rewrite(out, rows)
        code, stdout, _ = run(capsys, "verify", str(path), str(out))
        assert code == 0
        assert math.isfinite(json.loads(stdout)["min_lambda"])


def test_writer_leaves_an_overflowing_gap_empty(tmp_path):
    # Y + Y* overflows at n = 3: the sample is written, its monitor cells empty
    zero = cf.constant(np.zeros((3, 3)))
    cs = CoefficientSet(n=3, t0=0.0, t_end=1.0, P=zero, Q=zero, R=zero, S=zero)
    traj = Trajectory(times=np.array([0.5]), values=np.full((1, 3, 3), 1e308 + 0j),
                      status="completed", method="file")
    out = tmp_path / "huge.csv"
    write_trajectory_csv(str(out), traj, cs)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-2:] == ["lambda_min_gap", "residual"]
    assert rows[1] == ["0.5", *["1e+308", "0.0"] * 9, "", ""]
