import csv
import json
import math
import warnings

import pytest

from riccati_cert.cli import main


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
    ])
    def test_malformed_field_exits_two(self, capsys, tmp_path, field, value):
        inst, out, side = self.integrate(capsys, tmp_path, samples=11)
        obj = json.loads(side.read_text())
        obj[field] = value
        side.write_text(json.dumps(obj))
        code, stdout, err = run(capsys, "verify", str(inst), str(out))
        assert code == 2 and stdout == ""
        assert "status sidecar" in err and f"'{field}'" in err
