"""Every refusal through an owner of an input rule reaches the command line
as one stderr line naming the field or flag, with exit code 2.

One case per site where an owner's error is named: the three coefficient
constructors, the interval, the coefficient set (a non-Hermitian P),
``grid_points``, the integrator, grid and tolerance flags, ``gen``'s flags and a
status sidecar field; and the refusals the parser and the CSV reader make
themselves: a document that is not an object, a missing ``Y0`` or constant
``value``, a trajectory CSV with no sample row. The lines are pinned byte
for byte."""

import json

import pytest

from riccati_cert.cli import main
from riccati_cert.serialize import trajectory_csv_header


def _m(*rows):
    return [[[x, 0.0] for x in row] for row in rows]


ONE = {"kind": "constant", "value": _m([1.0])}
ZERO = {"kind": "constant", "value": _m([0.0])}
BASE = {"n": 1, "t0": 0.0, "t_end": 1.0, "P": ONE, "Q": ZERO, "R": ZERO, "S": ONE,
        "Y0": _m([1.0])}
SAMPLED_P = {"kind": "sampled", "times": [0.0, 1.0], "values": [_m([1.0]), _m([2.0])]}

INSTANCE_CASES = {
    "constant": ({"n": 65, "P": {"kind": "constant", "value": _m(*[[0.0] * 65] * 65)}},
                 "error: field 'P': constant value dimension must be in 1..64, got 65"),
    "polynomial": ({"P": {"kind": "polynomial", "coefficients": [_m([1.0])] * 10}},
                   "error: field 'P': polynomial degree 9 exceeds cap 8"),
    "sampled": ({"P": {**SAMPLED_P, "times": [0.0, 0.0]}},
                "error: field 'P': sampled grid times must be strictly increasing"),
    "sampled-order": ({"P": {**SAMPLED_P, "order": True}},
                      "error: field 'P.order' must be the integer 1 or 3"),
    "interval": ({"t0": 1.0, "t_end": 0.0},
                 "error: field 't_end' minus 't0' must be a finite positive number, "
                 "got t0 = 1.0 and t_end = 0.0"),
    "non-hermitian-P": ({"n": 2, "P": {"kind": "constant", "value": _m([1.0, 1.0], [0.0, 1.0])},
                         "Q": {"kind": "constant", "value": _m([0.0, 0.0], [0.0, 0.0])},
                         "R": {"kind": "constant", "value": _m([0.0, 0.0], [0.0, 0.0])},
                         "S": {"kind": "constant", "value": _m([1.0, 0.0], [0.0, 1.0])},
                         "Y0": _m([1.0, 0.0], [0.0, 1.0])},
                        "error: P(0.0) is not Hermitian"),
    "grid_points": ({"grid_points": 1},
                    "error: field 'grid_points': grid needs 2..1000000 points, got 1"),
    "constant-value": ({"Q": {"kind": "constant"}}, "error: field 'Q.value' is missing"),
}


def refusal(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    return captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_instance_field_refusal(capsys, tmp_path, case):
    fields, line = INSTANCE_CASES[case]
    path = write(tmp_path, "inst.json", {**BASE, **fields})
    assert refusal(capsys, "check", path) == line + "\n"


@pytest.mark.parametrize("document, line", [
    ([], "error: instance document must be a JSON object"),
    ({k: v for k, v in BASE.items() if k != "Y0"}, "error: field 'Y0' is missing"),
])
def test_instance_document_refusal(capsys, tmp_path, document, line):
    path = write(tmp_path, "inst.json", document)
    assert refusal(capsys, "check", path) == line + "\n"


@pytest.mark.parametrize("flags, line", [
    (["check", "--grid", "1"], "error: --grid: grid needs 2..1000000 points, got 1"),
    (["integrate", "--samples", "1"], "error: --samples: grid needs 2..1000000 points, got 1"),
    (["integrate", "--rtol", "inf"], "error: --rtol must be a finite number > 0, got inf"),
    (["check", "--tol", "inf"], "error: --tol must be a finite number >= 0, got inf"),
    (["verify", "--tol", "nan"], "error: --tol must be a finite number >= 0, got nan"),
])
def test_instance_flag_refusal(capsys, tmp_path, flags, line):
    path = write(tmp_path, "inst.json", BASE)
    command, *rest = flags
    if command == "integrate":
        rest += ["--out", str(tmp_path / "traj.csv")]
    elif command == "verify":  # refused before the CSV, which does not exist, is read
        rest = [str(tmp_path / "traj.csv"), *rest]
    assert refusal(capsys, command, path, *rest) == line + "\n"


@pytest.mark.parametrize("flags, line", [
    (["--seed", "-1"], "error: --seed must be non-negative, got -1"),
    (["--horizon", "5e-324"], "error: --horizon: the interval [0.0, 5e-324] must resolve "
                              "the 1001 grid points into distinct times"),
])
def test_gen_flag_refusal(capsys, tmp_path, flags, line):
    out = str(tmp_path / "x.json")
    err = refusal(capsys, "gen", "--target", "satisfying", "--n", "1", "--out", out, *flags)
    assert err == line + "\n"


def test_default_grid_refusal(capsys, tmp_path):
    # doubles near 1e17 are 16 apart: the 1001 default points repeat
    path = write(tmp_path, "inst.json", {**BASE, "t0": 1e17, "t_end": 1e17 + 16})
    assert refusal(capsys, "check", path) == (
        "error: fields 't0', 't_end': the interval [1e+17, 1.0000000000000002e+17] must "
        "resolve the 1001 grid points into distinct times\n")


def test_sidecar_field_refusal(capsys, tmp_path):
    path = write(tmp_path, "inst.json", BASE)
    csv_path = tmp_path / "traj.csv"
    assert main(["integrate", path, "--samples", "3", "--out", str(csv_path)]) == 0
    capsys.readouterr()
    sidecar = tmp_path / "traj.status.json"
    sidecar.write_text('{"status": "done", "t_escape": null, "singular_times": []}')
    assert refusal(capsys, "verify", path, str(csv_path)) == (
        f"error: status sidecar {sidecar}: field 'status' must be one of "
        "completed, blow_up, phi_singular\n")


def test_empty_trajectory_refusal(capsys, tmp_path):
    path = write(tmp_path, "inst.json", BASE)
    csv_path = tmp_path / "traj.csv"
    csv_path.write_text(",".join(trajectory_csv_header(1)) + "\r\n")
    assert refusal(capsys, "verify", path, str(csv_path)) == (
        "error: trajectory CSV contains no samples\n")
