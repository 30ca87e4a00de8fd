import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from riccati_cert import serialize
from riccati_cert.cli import main
from riccati_cert.criteria import GridSpec
from riccati_cert.integrate import (
    IntegratorOptions,
    integrate_linear_system,
    integrate_lyapunov_comparison,
    integrate_riccati_direct,
)
from riccati_cert.instances import canonical_catalog
from riccati_cert.serialize import dumps_instance, instance_to_obj, load_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(capsys, tmp_path, target, n=1, seed=0, **flags):
    path = tmp_path / f"{target}_{n}_{seed}.json"
    argv = ["gen", "--target", target, "--n", str(n), "--seed", str(seed),
            "--out", str(path)]
    for key, val in flags.items():
        argv += [f"--{key}", str(val)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return path, json.loads(out)


class TestGen:
    def test_satisfying_reports_holding_verdict(self, capsys, tmp_path):
        path, summary = gen_file(capsys, tmp_path, "satisfying", n=3, seed=7)
        assert summary["holds"] is True
        assert path.exists()

    def test_blowup_reports_violated_source(self, capsys, tmp_path):
        _, summary = gen_file(capsys, tmp_path, "blowup")
        assert summary["holds"] is False
        assert "shifted_source_psd" in summary["failed_conditions"]

    def test_byte_identical_regeneration(self, capsys, tmp_path):
        p1, _ = gen_file(capsys, tmp_path, "satisfying", n=2, seed=3)
        data1 = p1.read_bytes()
        p1.unlink()
        p2, _ = gen_file(capsys, tmp_path, "satisfying", n=2, seed=3)
        assert p2.read_bytes() == data1


class TestGenInterval:
    @pytest.mark.parametrize("t0", ["1e308", "1e17"])
    def test_horizon_lost_in_rounding_exits_two_naming_the_flag(self, capsys, tmp_path, t0):
        # t0 + 1 rounds to t0: the interval is empty
        code, _, err = run(capsys, "gen", "--target", "satisfying", "--n", "1",
                           "--t0", t0, "--horizon", "1", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert err.startswith("error: --t0 + horizon minus t0 must be a finite positive number")


class TestUnresolvedGrid:
    """An interval too short, in floating point, for its grid's points to be
    distinct times is an input error naming what set the point count."""

    T0 = 1e17  # doubles near 1e17 are 16 apart: 1001 points over [T0, T0 + 16] repeat

    def instance(self, tmp_path, **extra):
        zero, one = ({"kind": "constant", "value": [[v]]} for v in (0.0, 1.0))
        obj = {"n": 1, "t0": self.T0, "t_end": self.T0 + 16, "P": one, "Q": zero, "R": zero,
               "S": one, "Y0": [[1.0]], **extra}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("criterion", ["theorem3.1", "cor3.1", "cor3.2", "theorem1.1"])
    @pytest.mark.parametrize("source, named", [
        ("default", "fields 't0', 't_end'"), ("flag", "--grid"), ("field", "field 'grid_points'"),
    ])
    def test_check_exits_two(self, capsys, tmp_path, criterion, source, named):
        extra = {"grid_points": 1001} if source == "field" else {}
        flags = ["--grid", "1001"] if source == "flag" else []
        code, out, err = run(capsys, "check", self.instance(tmp_path, **extra),
                             "--criterion", criterion, *flags)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {named}: ") and "distinct times" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--target", "satisfying", "--horizon", "5e-324"),
        ("--target", "blowup", "--t0", "1e17", "--horizon", "16"),
    ])
    def test_gen_exits_two_naming_the_horizon(self, capsys, tmp_path, argv):
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "gen", "--n", "2", *argv, "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("error: --horizon: ") and "distinct times" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_integrate_exits_two_naming_the_samples(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, stdout, err = run(capsys, "integrate", self.instance(tmp_path), "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("error: --samples: ") and "distinct times" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_grid_the_interval_resolves_is_judged(self, capsys, tmp_path):
        path = self.instance(tmp_path)
        assert run(capsys, "check", path, "--grid", "2")[0] == 0
        assert run(capsys, "integrate", path, "--samples", "2",
                   "--out", str(tmp_path / "traj.csv"))[0] == 0


class TestCheck:
    def test_satisfying_instance_exits_zero(self, capsys, tmp_path):
        path, _ = gen_file(capsys, tmp_path, "satisfying", n=2, seed=1)
        code, out, _ = run(capsys, "check", str(path), "--criterion", "theorem3.1",
                           "--grid", "101")
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is True
        assert report["criterion"] == "theorem3.1"

    def test_blowup_instance_exits_one_and_names_condition(self, capsys, tmp_path):
        path, _ = gen_file(capsys, tmp_path, "blowup")
        code, out, _ = run(capsys, "check", str(path), "--criterion", "theorem3.1",
                           "--grid", "51")
        assert code == 1
        report = json.loads(out)
        failed = [c for c in report["conditions"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["shifted_source_psd"]
        assert failed[0]["worst_value"] == pytest.approx(-2.0)

    def test_comparison_criterion(self, capsys, tmp_path):
        path, _ = gen_file(capsys, tmp_path, "comparison", n=2, seed=4)
        code, out, _ = run(capsys, "check", str(path), "--criterion", "theorem1.1",
                           "--grid", "51")
        assert code == 0

    def test_invalid_dimension_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 0, "t0": 0.0, "t_end": 1.0}')
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "'n'" in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "JSON" in err

    def test_missing_field_named(self, capsys, tmp_path):
        path = tmp_path / "nofield.json"
        path.write_text(json.dumps({"n": 1, "t0": 0.0, "t_end": 1.0,
                                    "P": {"kind": "constant", "value": [[1.0]]}}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "'Q'" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 2

    def test_subnormal_interval_prints_no_warning(self, capsys, tmp_path):
        # t_end = 5e-324: the order-1 gauge theorem3.1 extracts on the grid
        # has overflowing slopes, which check never evaluates
        poly = {"kind": "polynomial", "coefficients": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}
        zero = {"kind": "constant", "value": [[[0.0, 0.0]]]}
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"n": 1, "t0": 0.0, "t_end": 5e-324, "P": poly, "Q": zero,
                                    "R": zero, "S": poly, "Y0": [[[1.0, 0.0]]]}))
        argv = ("check", str(path), "--criterion", "theorem3.1", "--grid", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = run(capsys, *argv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert (code, out) == quiet[:2]
        assert code == 0 and err == ""
        assert json.loads(out)["holds"] is True


def write_tanh_instance(tmp_path, t_end=1.0, s=1.0):
    obj = {
        "n": 1, "t0": 0.0, "t_end": t_end,
        "P": {"kind": "constant", "value": [[[1.0, 0.0]]]},
        "Q": {"kind": "constant", "value": [[[0.0, 0.0]]]},
        "R": {"kind": "constant", "value": [[[0.0, 0.0]]]},
        "S": {"kind": "constant", "value": [[[s, 0.0]]]},
        "Y0": [[[0.0, 0.0]]],
    }
    path = tmp_path / "tanh.json"
    path.write_text(json.dumps(obj))
    return path


class TestIntegrate:
    def test_direct_csv_and_sidecar(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "traj.csv"
        code, stdout, _ = run(capsys, "integrate", str(inst), "--method", "direct",
                              "--out", str(out), "--samples", "101")
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["t", "y0_0_re"]
        last = rows[-1]
        assert float(last[0]) == pytest.approx(1.0)
        assert float(last[1]) == pytest.approx(math.tanh(1.0), abs=1e-8)
        sidecar = json.loads((tmp_path / "traj.status.json").read_text())
        assert sidecar["status"] == "completed"

    @pytest.mark.parametrize("method", ["direct", "radon", "lyapunov"])
    def test_sidecar_stats_are_the_runs_counters(self, capsys, tmp_path, method):
        inst = write_tanh_instance(tmp_path, t_end=2.0)
        out = tmp_path / "traj.csv"
        code, stdout, _ = run(capsys, "integrate", str(inst), "--method", method,
                              "--out", str(out), "--samples", "41")
        assert code == 0
        loaded = load_instance(str(inst))
        ts = GridSpec.for_set(loaded.cs, 41).points
        result = {"direct": integrate_riccati_direct, "radon": integrate_linear_system,
                  "lyapunov": integrate_lyapunov_comparison}[method](
                      loaded.cs, loaded.y0, IntegratorOptions(), ts)
        traj = result[1] if method == "radon" else result
        sidecar = json.loads((tmp_path / "traj.status.json").read_text())
        assert sidecar["stats"] == json.loads(stdout)["stats"] == traj.stats
        if method == "radon":
            # constant data: the flow is exact and takes no step
            assert {k: traj.stats[k] for k in ("nfev", "steps_accepted", "steps_rejected",
                                               "h_min", "h_max")} == {
                "nfev": 0, "steps_accepted": 0, "steps_rejected": 0, "h_min": None,
                "h_max": None}
        else:
            assert sidecar["stats"]["nfev"] == 2 + 6 * (traj.stats["steps_accepted"]
                                                        + traj.stats["steps_rejected"])

    def test_blowup_is_exit_zero_with_status(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path, t_end=2.0, s=-1.0)
        out = tmp_path / "blow.csv"
        code, stdout, _ = run(capsys, "integrate", str(inst), "--method", "direct",
                              "--out", str(out), "--samples", "41")
        assert code == 0
        sidecar = json.loads((tmp_path / "blow.status.json").read_text())
        assert sidecar["status"] == "blow_up"
        assert sidecar["t_escape"] == pytest.approx(math.pi / 2, abs=1e-3)

    def test_both_reports_discrepancy(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "both.csv"
        code, stdout, _ = run(capsys, "integrate", str(inst), "--method", "both",
                              "--out", str(out), "--samples", "51")
        assert code == 0
        assert "max_discrepancy" in stdout
        sidecar = json.loads((tmp_path / "both.status.json").read_text())
        assert sidecar["max_discrepancy"] <= 1e-6

    def test_both_on_constant_data_measures_the_direct_runs_error(self, capsys, tmp_path):
        # the flow of constant data is exact, so the discrepancy is the
        # direct run's own error against the closed form Y = tanh(t) I
        e = canonical_catalog()["care_constant"]
        inst = tmp_path / "care.json"
        inst.write_text(dumps_instance(instance_to_obj(e.cs, e.y0)))
        code, stdout, _ = run(capsys, "integrate", str(inst), "--method", "both",
                              "--out", str(tmp_path / "both.csv"))
        assert code == 0
        traj = integrate_riccati_direct(e.cs, e.y0)
        error = max(np.linalg.norm(y - e.exact(t)) / (1 + np.linalg.norm(y))
                    for t, y in zip(traj.times, traj.values))
        assert error > 1e-13  # the direct run's error is well above rounding
        assert abs(json.loads(stdout)["max_discrepancy"] - error) <= 1e-14

    def test_radon_adds_det_column(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "radon.csv"
        code, _, _ = run(capsys, "integrate", str(inst), "--method", "radon",
                         "--out", str(out), "--samples", "21")
        assert code == 0
        with open(out) as fh:
            header = next(csv.reader(fh))
        assert header[-1] == "det_phi_abs"

    def test_lyapunov_method(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "lyap.csv"
        code, _, _ = run(capsys, "integrate", str(inst), "--method", "lyapunov",
                         "--out", str(out), "--samples", "11")
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-8)  # ytilde(1) = t

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_radon_with_loose_tolerances_completes(self, capsys, tmp_path, n):
        # atol / rtol = 1e6 inflates the condition estimate but makes no zero of det Phi
        inst, _ = gen_file(capsys, tmp_path, "satisfying", n=n)
        out = tmp_path / "radon.csv"
        code, _, _ = run(capsys, "integrate", str(inst), "--method", "radon", "--out", str(out),
                         "--rtol", "1e-6", "--atol", "1")
        assert code == 0
        sidecar = json.loads((tmp_path / "radon.status.json").read_text())
        assert sidecar["status"] == "completed"


class TestVerify:
    def test_round_trip_pass(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "traj.csv"
        run(capsys, "integrate", str(inst), "--method", "direct",
            "--out", str(out), "--samples", "51")
        code, stdout, _ = run(capsys, "verify", str(inst), str(out))
        assert code == 0
        report = json.loads(stdout)
        assert report["passed"] is True
        assert report["min_lambda"] == pytest.approx(0.0, abs=1e-9)
        assert report["max_residual"] < 1e-3

    def test_violated_bound_exits_one(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path, t_end=1.0, s=-1.0)
        out = tmp_path / "neg.csv"
        run(capsys, "integrate", str(inst), "--method", "direct",
            "--out", str(out), "--samples", "51")
        code, stdout, _ = run(capsys, "verify", str(inst), str(out))
        assert code == 1
        assert json.loads(stdout)["min_lambda"] == pytest.approx(-2 * math.tan(1.0), abs=1e-4)

    def test_one_shifted_sample_raises_max_residual(self, capsys, tmp_path):
        # y0_0_re of data row 101 moved by 1e-7, in a copy with its sidecar
        inst, _ = gen_file(capsys, tmp_path, "satisfying", n=3)
        out, shifted = tmp_path / "traj.csv", tmp_path / "shifted.csv"
        code, _, _ = run(capsys, "integrate", str(inst), "--method", "both", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[101][1] = repr(float(rows[101][1]) + 1e-7)
        with open(shifted, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        shifted.with_suffix(".status.json").write_text(
            out.with_suffix(".status.json").read_text())
        clean, bad = (json.loads(run(capsys, "verify", str(inst), str(path))[1])["max_residual"]
                      for path in (out, shifted))
        assert clean < 1e-8 and bad >= 100 * clean

    def test_truncated_csv_skips_residual_with_warning(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "short.csv"
        run(capsys, "integrate", str(inst), "--method", "direct",
            "--out", str(out), "--samples", "51")
        with open(out) as fh:
            rows = fh.readlines()
        out.write_text("".join(rows[:3]))  # header + 2 samples
        code, stdout, err = run(capsys, "verify", str(inst), str(out))
        assert code == 0
        report = json.loads(stdout)
        assert "max_residual" not in report
        assert any("residual" in w for w in report["warnings"])
        assert "residual" in err

    def test_dimension_mismatch_exits_two(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("t\n0.0\n")
        code, _, err = run(capsys, "verify", str(inst), str(bad))
        assert code == 2

    @pytest.mark.parametrize("big_n, small_n, message", [
        (3, 2, "header column 6 is 'y0_2_re', expected 'y1_0_re' for dimension 2"),
        (2, 1, "header column 4 is 'y0_1_re', expected no further sample column "
               "for dimension 1"),
    ])
    def test_csv_of_another_dimension_exits_two_naming_the_column(self, capsys, tmp_path,
                                                                  big_n, small_n, message):
        # an n = 3 CSV has the 9 columns an n = 2 instance reads, under other
        # names; the 3 columns an n = 1 instance reads begin every larger header
        big, _ = gen_file(capsys, tmp_path, "satisfying", n=big_n, seed=1)
        small, _ = gen_file(capsys, tmp_path, "satisfying", n=small_n, seed=1)
        out = tmp_path / "traj.csv"
        assert run(capsys, "integrate", str(big), "--out", str(out))[0] == 0
        code, stdout, err = run(capsys, "verify", str(small), str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: trajectory CSV {message}\n"

    def test_blowup_chain_reports_sidecar_status(self, capsys, tmp_path):
        inst, _ = gen_file(capsys, tmp_path, "blowup", n=2, seed=3)
        out = tmp_path / "blow.csv"
        code, stdout, _ = run(capsys, "integrate", str(inst), "--method", "direct",
                              "--out", str(out))
        assert code == 0
        side = json.loads(stdout)
        assert side["status"] == "blow_up"
        code, stdout, err = run(capsys, "verify", str(inst), str(out))
        report = json.loads(stdout)
        assert report["status"] == "blow_up"
        assert report["t_escape"] == side["t_escape"]
        assert report["singular_times"] == []
        assert report["samples"] == side["samples"]
        assert any("blow_up" in w for w in report["warnings"])
        assert "warning: trajectory status is blow_up" in err
        # without the sidecar: the same verdict and exit code, no status
        (tmp_path / "blow.status.json").unlink()
        code_bare, stdout, err = run(capsys, "verify", str(inst), str(out))
        bare = json.loads(stdout)
        assert code_bare == code
        assert "status" not in bare and "blow_up" not in err
        assert {k: v for k, v in report.items()
                if k not in ("status", "t_escape", "singular_times", "warnings")} == \
            {k: v for k, v in bare.items() if k != "warnings"}

    def test_completed_sidecar_adds_no_warning(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "traj.csv"
        run(capsys, "integrate", str(inst), "--method", "radon",
            "--out", str(out), "--samples", "51")
        code, stdout, err = run(capsys, "verify", str(inst), str(out))
        assert code == 0
        report = json.loads(stdout)
        assert report["status"] == "completed" and report["t_escape"] is None
        assert report["warnings"] == [] and err == ""

    @pytest.mark.parametrize("text, field", [
        ("{", "not valid JSON"),
        ("[]", "JSON object"),
        ('{"t_escape": null, "singular_times": []}', "'status'"),
        ('{"status": "done", "t_escape": null, "singular_times": []}', "'status'"),
        ('{"status": 1, "t_escape": null, "singular_times": []}', "'status'"),
        ('{"status": "blow_up", "singular_times": []}', "'t_escape'"),
        ('{"status": "blow_up", "t_escape": "1.5", "singular_times": []}', "'t_escape'"),
        ('{"status": "blow_up", "t_escape": NaN, "singular_times": []}', "'t_escape'"),
        ('{"status": "blow_up", "t_escape": true, "singular_times": []}', "'t_escape'"),
        ('{"status": "completed", "t_escape": null}', "'singular_times'"),
        ('{"status": "phi_singular", "t_escape": null, "singular_times": 0.5}',
         "'singular_times'"),
        ('{"status": "phi_singular", "t_escape": null, "singular_times": [0.5, null]}',
         "'singular_times[1]'"),
    ])
    def test_malformed_sidecar_exits_two(self, capsys, tmp_path, text, field):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "traj.csv"
        run(capsys, "integrate", str(inst), "--method", "direct",
            "--out", str(out), "--samples", "11")
        (tmp_path / "traj.status.json").write_text(text)
        code, stdout, err = run(capsys, "verify", str(inst), str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and "status sidecar" in err and field in err


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gen_check_integrate_verify(self, capsys, tmp_path, n):
        path, _ = gen_file(capsys, tmp_path, "satisfying", n=n, seed=17, horizon=3.0)
        code, _, _ = run(capsys, "check", str(path), "--grid", "101")
        assert code == 0
        out = tmp_path / f"t{n}.csv"
        code, _, _ = run(capsys, "integrate", str(path), "--method", "direct",
                         "--out", str(out), "--samples", "51")
        assert code == 0
        code, _, _ = run(capsys, "verify", str(path), str(out))
        assert code == 0


def _strict_json(text):
    """Parse as strict JSON: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def _write_csv(path, rows, n):
    header = ["t"] + [f"y{i}_{j}_{part}" for i in range(n) for j in range(n)
                      for part in ("re", "im")]
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    path.write_text("\r\n".join(lines) + "\r\n")


def run_quietly(capsys, *argv):
    """``run``, asserting that numpy raised no RuntimeWarning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    return result


class TestNonFiniteMonitors:
    def test_nan_gap_is_null_and_fails(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        n2 = json.loads(inst.read_text())
        zero = [[[0.0, 0.0]] * 2] * 2
        n2.update(n=2, P={"kind": "constant", "value": zero},
                  Q={"kind": "constant", "value": zero},
                  R={"kind": "constant", "value": zero},
                  S={"kind": "constant", "value": zero}, Y0=zero)
        inst.write_text(json.dumps(n2))
        out = tmp_path / "huge.csv"
        _write_csv(out, [[0.0, 1e308, 0, 0, 0, 0, 0, 1.0, 0], [1.0] + [0.0] * 8], 2)
        code, stdout, err = run_quietly(capsys, "verify", str(inst), str(out))
        report = _strict_json(stdout)
        assert code == 1
        assert report["passed"] is False and report["min_lambda"] is None
        assert report["t_min"] == 0.0
        assert any("min_lambda" in w for w in report["warnings"])
        assert "warning: min_lambda" in err

    def test_overflowing_residual_is_null(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "big.csv"
        _write_csv(out, [[t, 1e200, 0.0] for t in (0.0, 0.5, 1.0)], 1)
        code, stdout, err = run_quietly(capsys, "verify", str(inst), str(out))
        report = _strict_json(stdout)
        assert code == 0 and report["passed"] is True
        assert report["max_residual"] is None
        assert any("max_residual" in w for w in report["warnings"])


class TestCheckWitnessOutsideTheGrid:
    """With P = 0, cor3.1 and cor3.2 leave out every grid point of their
    frame condition, whose witness is then (inf, inf): written as null."""

    @pytest.mark.parametrize("criterion, condition", [("cor3.1", "shifted_source_psd"),
                                                      ("cor3.2", "sqrt_frame_psd")])
    def test_null_witness_in_strict_json(self, capsys, tmp_path, criterion, condition):
        inst = tmp_path / "p0.json"
        obj = json.loads(write_tanh_instance(tmp_path).read_text())
        obj["P"]["value"] = [[[0.0, 0.0]]]
        obj["Y0"] = [[[1.0, 0.0]]]
        inst.write_text(json.dumps(obj))
        code, stdout, _ = run(capsys, "check", str(inst), "--criterion", criterion)
        report = _strict_json(stdout)
        assert code == 1 and report["holds"] is False
        rec = next(c for c in report["conditions"] if c["name"] == condition)
        assert rec["passed"] is False
        assert rec["worst_value"] is None and rec["worst_time"] is None


class TestSidecarSamples:
    def integrate(self, capsys, tmp_path, samples=51):
        inst = write_tanh_instance(tmp_path)
        out = tmp_path / "traj.csv"
        run(capsys, "integrate", str(inst), "--method", "direct",
            "--out", str(out), "--samples", str(samples))
        return inst, out, tmp_path / "traj.status.json"

    def test_truncated_csv_warns_but_exits_by_the_bound(self, capsys, tmp_path):
        inst, out, _ = self.integrate(capsys, tmp_path)
        rows = out.read_text().splitlines(keepends=True)
        out.write_text("".join(rows[:3]))
        code, stdout, err = run(capsys, "verify", str(inst), str(out))
        report = json.loads(stdout)
        assert code == 0
        assert any("samples = 51" in w and "2" in w for w in report["warnings"])
        assert any("t_last = 1.0" in w for w in report["warnings"])
        assert "truncated" in err

    def test_sidecar_without_stats_verifies_the_same(self, capsys, tmp_path):
        inst, out, side = self.integrate(capsys, tmp_path)
        with_stats = run(capsys, "verify", str(inst), str(out))
        obj = json.loads(side.read_text())
        del obj["stats"]
        side.write_text(json.dumps(obj))
        assert run(capsys, "verify", str(inst), str(out)) == with_stats
        assert with_stats[0] == 0

    def test_sidecar_without_the_fields_is_not_compared(self, capsys, tmp_path):
        inst, out, side = self.integrate(capsys, tmp_path)
        out.write_text("".join(out.read_text().splitlines(keepends=True)[:3]))
        obj = json.loads(side.read_text())
        del obj["samples"], obj["t_last"]
        side.write_text(json.dumps(obj))
        code, stdout, _ = run(capsys, "verify", str(inst), str(out))
        assert code == 0
        assert not any("sidecar" in w for w in json.loads(stdout)["warnings"])

    @pytest.mark.parametrize("field, value", [
        ("samples", -1), ("samples", 2.5), ("samples", True), ("samples", "51"),
        ("samples", None), ("t_last", "1.0"), ("t_last", float("nan")), ("t_last", True),
        ("method", 7), ("method", "euler"), ("method", None), ("method", "both"),
    ])
    def test_malformed_field_exits_two(self, capsys, tmp_path, field, value):
        inst, out, side = self.integrate(capsys, tmp_path, samples=11)
        obj = json.loads(side.read_text())
        obj[field] = value
        side.write_text(json.dumps(obj))
        code, stdout, err = run(capsys, "verify", str(inst), str(out))
        assert code == 2 and stdout == ""
        assert "status sidecar" in err and f"'{field}'" in err


class TestSidecarMethod:
    """verify judges a CSV by the equation its sidecar's method solves: a
    lyapunov run by the comparison equation, else the Riccati equation."""

    def integrate(self, capsys, tmp_path):
        inst, _ = gen_file(capsys, tmp_path, "comparison", n=3)
        out = tmp_path / "ly.csv"
        assert run(capsys, "integrate", str(inst), "--method", "lyapunov", "--out", str(out))[0] == 0
        return inst, out, tmp_path / "ly.status.json"

    def test_lyapunov_csv_meets_its_own_equation(self, capsys, tmp_path):
        # judged by the Riccati equation this run reads 0.37
        inst, out, _ = self.integrate(capsys, tmp_path)
        code, stdout, err = run(capsys, "verify", str(inst), str(out))
        assert code == 0 and err == ""
        assert json.loads(stdout)["max_residual"] <= 1e-8
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 201 and max(float(r["residual"]) for r in rows) <= 1e-8

    def test_sidecar_without_method_is_judged_by_the_riccati_equation(self, capsys, tmp_path):
        inst, out, side = self.integrate(capsys, tmp_path)
        obj = json.loads(side.read_text())
        del obj["method"]
        side.write_text(json.dumps(obj))
        code, stdout, _ = run(capsys, "verify", str(inst), str(out))
        assert code == 0 and json.loads(stdout)["max_residual"] >= 1e-3


def _entries(m):
    return [[[float(x), 0.0] for x in row] for row in m]


def _constant(m):
    return {"kind": "constant", "value": _entries(m)}


def write_probe(tmp_path, name, n, t_end, **coefficients):
    """An instance file whose coefficients default to P = S = Y0 = I, Q = R = 0."""
    eye = [[float(i == j) for j in range(n)] for i in range(n)]
    zero = [[0.0] * n for _ in range(n)]
    obj = {"n": n, "t0": 0.0, "t_end": t_end, "P": _constant(eye), "Q": _constant(zero),
           "R": _constant(zero), "S": _constant(eye), "Y0": _entries(eye)}
    obj.update(coefficients)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return path


class TestOverflowingCoefficients:
    """Finite, schema-valid data whose norms or products overflow: no
    condition passes on inf <= inf, and nothing warns or ends in a traceback."""

    @pytest.mark.parametrize("criterion", ["theorem3.1", "cor3.1", "cor3.2", "theorem1.1"])
    def test_huge_skew_P_is_not_hermitian(self, capsys, tmp_path, criterion):
        # ||P - P*||_F and ||P||_F both overflow
        inst = write_probe(tmp_path, "a", 2, 1.0, P=_constant([[1e160, 1e160], [-1e160, 1e160]]))
        code, stdout, err = run_quietly(capsys, "check", str(inst), "--criterion", criterion)
        assert code == 2 and stdout == ""
        assert err == "error: P(0.0) is not Hermitian\n"

    @pytest.mark.parametrize("criterion", ["theorem3.1", "cor3.1", "cor3.2", "theorem1.1"])
    def test_overflowing_R_fails_in_strict_json(self, capsys, tmp_path, criterion):
        # R = 1e307 t^2 is inf beyond t ~ 4.24, and its norm overflows from t ~ 1e-77
        inst = write_probe(tmp_path, "b", 1, 5.0, R={"kind": "polynomial", "coefficients": [
            _entries([[0.0]]), _entries([[0.0]]), _entries([[1e307]])]})
        code, stdout, err = run_quietly(capsys, "check", str(inst), "--criterion", criterion)
        report = _strict_json(stdout)
        assert code == 1 and report["holds"] is False and err == ""
        failed = {rec["name"]: rec for rec in report["conditions"] if not rec["passed"]}
        pair = {"theorem3.1": "scalar_shift", "theorem1.1": "symmetric_pair"}.get(criterion)
        if pair is not None:
            assert failed[pair]["worst_value"] is None
            assert failed[pair]["worst_time"] is not None
        if criterion == "theorem3.1":
            assert "extracted_mu" not in report
            assert "extracted_mu left out: not finite on the grid" in report["notes"]

    def test_overflowing_residual_and_source_fail(self, capsys, tmp_path):
        # ||M - mu I||_F overflows, and S_L = I - L P L - Q L - L R is NaN
        inst = write_probe(tmp_path, "c", 2, 5.0,
                           Q=_constant([[1e300, 0.0], [0.0, 0.0]]),
                           R=_constant([[-1e300, 0.0], [0.0, 0.0]]),
                           **{"lambda": _constant([[1e155, 0.0], [0.0, 0.0]])},
                           Y0=_entries([[1e156, 0.0], [0.0, 1.0]]))
        code, stdout, err = run_quietly(capsys, "check", str(inst), "--criterion", "theorem3.1")
        report = _strict_json(stdout)
        assert code == 1 and err == ""
        for name in ("scalar_shift", "shifted_source_psd"):
            rec = next(c for c in report["conditions"] if c["name"] == name)
            assert rec["passed"] is False
            assert rec["worst_value"] is None and rec["worst_time"] == 0.0
        passed = {c["name"] for c in report["conditions"] if c["passed"]}
        assert passed == {"coefficient_psd", "real_shift", "initial_lower_bound"}

    def test_integrate_direct_warns_nothing(self, capsys, tmp_path):
        inst = write_probe(tmp_path, "b", 1, 5.0, R={"kind": "polynomial", "coefficients": [
            _entries([[0.0]]), _entries([[0.0]]), _entries([[1e307]])]})
        out = tmp_path / "b.csv"
        code, stdout, err = run_quietly(capsys, "integrate", str(inst), "--method", "direct",
                                        "--out", str(out))
        status = json.loads(stdout)
        assert code == 0 and err == ""
        assert status["status"] == "blow_up" and status["blowup_trigger"] == "step_collapse"


class TestInitialClauseAndDeterminantQuiet:
    """The initial clause is formed, and the flow's determinant taken, under the
    package's error state: an overflow there fails or is written as inf, and
    numpy prints nothing."""

    @pytest.mark.parametrize("criterion, clause", [("theorem3.1", "initial_lower_bound"),
                                                   ("cor3.1", "initial_psd"),
                                                   ("cor3.2", "initial_psd")])
    def test_overflowing_initial_value_fails_quietly(self, capsys, tmp_path, criterion, clause):
        # Y0 + Y0* overflows to inf (and cor3.2's sqrt(P) congruence meets inf * 0)
        inst = write_probe(tmp_path, "y0", 1, 1.0, Y0=_entries([[1e308]]))
        code, stdout, err = run_quietly(capsys, "check", str(inst), "--criterion", criterion)
        report = _strict_json(stdout)
        assert code == 1 and err == ""
        rec = report["conditions"][-1]
        assert rec["name"] == clause and rec["passed"] is False
        assert rec["worst_value"] is None and rec["worst_time"] == 0.0
        assert all(c["passed"] for c in report["conditions"][:-1])

    def test_huge_P_square_root_at_t0_is_quiet(self, capsys, tmp_path):
        # ||P||_F squared overflows in matrix_core._defect_measure where the
        # frame scan's _psd_measure judges P > 0, and again on the initial
        # clause's sqrt(P(t0))(Y0 + Y0*)sqrt(P(t0)) = 2e200
        inst = write_probe(tmp_path, "p", 1, 1.0, P=_constant([[1e200]]))
        code, stdout, err = run_quietly(capsys, "check", str(inst), "--criterion", "cor3.2")
        report = _strict_json(stdout)
        assert code == 0 and err == ""
        assert report["conditions"][-1]["worst_value"] == 2e200

    def test_overflowing_determinant_is_written_as_inf_quietly(self, capsys, tmp_path):
        # P = Q = S = 0, R = I: Phi = exp(t) I, so det Phi = exp(64 t) overflows from t ~ 11.1
        n = 64
        zero = _constant([[0.0] * n for _ in range(n)])
        inst = write_probe(tmp_path, "det", n, 16.0, P=zero, S=zero,
                           R=_constant([[float(i == j) for j in range(n)] for i in range(n)]),
                           Y0=_entries([[0.0] * n for _ in range(n)]))
        out = tmp_path / "det.csv"
        code, stdout, err = run_quietly(capsys, "integrate", str(inst), "--method", "radon",
                                        "--samples", "17", "--out", str(out))
        assert code == 0 and err == ""
        assert json.loads(stdout)["status"] == "completed"
        with open(out, newline="") as fh:
            dets = [row["det_phi_abs"] for row in csv.DictReader(fh)]
        assert dets[0] == "1.0" and dets[11] != "inf"
        assert dets[12:] == ["inf"] * 5


class TestSurface:
    """The command line parses, makes one library call per computation and
    prints: it imports neither numpy nor a private name of the package."""

    def test_cli_imports_no_numpy_and_no_private_name(self):
        import ast

        import riccati_cert.cli as cli

        tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
        modules, private = [], []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules.append(node.module or "")
                if node.level > 0 or (node.module or "").startswith("riccati_cert"):
                    private += [a.name for a in node.names if a.name.startswith("_")]
        assert not [m for m in modules if m.split(".")[0] == "numpy"], modules
        assert private == []


class TestOutputFiles:
    """Every output is rewritten in place and truncated where the writing
    ends: over a longer file it leaves exactly the bytes of a fresh write."""

    def test_integrate_over_a_longer_output_writes_fresh_bytes(self, capsys, tmp_path):
        path, _ = gen_file(capsys, tmp_path, "satisfying", n=2, seed=3)
        over, fresh = tmp_path / "over.csv", tmp_path / "fresh.csv"
        for out, samples in ((over, "201"), (over, "11"), (fresh, "11")):
            code, _, _ = run(capsys, "integrate", str(path), "--method", "both",
                             "--samples", samples, "--out", str(out))
            assert code == 0
        assert over.read_bytes() == fresh.read_bytes()
        assert ((tmp_path / "over.status.json").read_bytes()
                == (tmp_path / "fresh.status.json").read_bytes())

    def test_gen_over_a_longer_instance_writes_fresh_bytes(self, capsys, tmp_path):
        over = tmp_path / "over.json"
        for n in ("8", "3"):
            code, _, _ = run(capsys, "gen", "--target", "satisfying", "--n", n, "--out", str(over))
            assert code == 0
        fresh, _ = gen_file(capsys, tmp_path, "satisfying", n=3)
        assert over.read_bytes() == fresh.read_bytes()

    def test_symlinked_out_writes_its_target_and_keeps_the_link(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "f.csv"
        target.write_text("old\n" * 10_000)
        link.symlink_to(target)
        for out in (link, fresh):
            code, _, _ = run(capsys, "integrate", str(inst), "--samples", "11", "--out", str(out))
            assert code == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == fresh.read_bytes()

    def test_existing_file_keeps_its_inode_and_mode(self, capsys, tmp_path):
        out = tmp_path / "inst.json"
        out.write_text("{}\n" * 10_000)
        out.chmod(0o604)
        before = out.stat()
        code, _, _ = run(capsys, "gen", "--target", "satisfying", "--n", "2", "--out", str(out))
        assert code == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert after.st_size < before.st_size

    def test_dev_null_out_exits_zero(self, capsys, tmp_path, monkeypatch):
        sidecar = tmp_path / "null.status.json"
        monkeypatch.setattr(serialize, "status_sidecar_path", lambda csv_path: str(sidecar))
        inst = write_tanh_instance(tmp_path)
        code, _, _ = run(capsys, "integrate", str(inst), "--samples", "11", "--out", os.devnull)
        assert code == 0
        assert json.loads(sidecar.read_text())["samples"] == 11
        code, _, _ = run(capsys, "gen", "--target", "satisfying", "--n", "2", "--out", os.devnull)
        assert code == 0

    def test_directory_out_exits_two_with_one_error_line(self, capsys, tmp_path):
        inst = write_tanh_instance(tmp_path)
        for argv in (["integrate", str(inst), "--samples", "11", "--out", str(tmp_path)],
                     ["gen", "--target", "satisfying", "--n", "2", "--out", str(tmp_path)]):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
