"""``integrate_both`` and ``integrate --method both`` against the two
integrators they stand for.

``integrate_both`` runs the direct integration and then folds each sample
of the linear flow into ``max_discrepancy`` as the flow reaches it,
storing no sample of the flow; the subcommand prints what it returns. Its
``max_discrepancy``, ``radon_status``, ``restarts`` and ``radon_stats``
(and the sidecar's ``stats``) must equal, bit for bit, what
``integrate_riccati_direct`` and ``integrate_linear_system`` give when
their whole trajectories are compared by
``reference_max_discrepancy``, the formula the subcommand used while it
kept both trajectories.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from riccati_cert import cli
from riccati_cert import coefficients as cf
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.criteria import GridSpec
from riccati_cert.exceptions import IntegrationError
from riccati_cert.instances import canonical_catalog
from riccati_cert.integrate import (
    IntegratorOptions,
    integrate_both,
    integrate_linear_system,
    integrate_riccati_direct,
)
from riccati_cert.serialize import dumps_instance, instance_to_obj, load_instance


def reference_max_discrepancy(a, b):
    """Largest ||Ya - Yb|| / (1 + ||Ya||) over the sample times both reached."""
    b_index = {float(t): k for k, t in enumerate(b.times)}
    worst = 0.0
    for k, t in enumerate(a.times):
        j = b_index.get(float(t))
        if j is None:
            continue
        diff = float(np.linalg.norm(a.values[k] - b.values[j]))
        worst = max(worst, diff / (1.0 + float(np.linalg.norm(a.values[k]))))
    return worst


def quiet_main(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()


def generated(tmp_path, target, n):
    path = tmp_path / f"{target}{n}.json"
    code, _ = quiet_main("gen", "--target", target, "--n", str(n), "--seed", "0",
                         "--out", str(path))
    assert code == 0
    return path


def written(tmp_path, name, cs, y0):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps_instance(instance_to_obj(cs, y0)))
    return path


def tanh_two(tmp_path):
    """P = S = I, Q = R = 0 on [0, 40]: Y = tanh(t) I while Phi grows as cosh(t)."""
    eye, zero = np.eye(2), np.zeros((2, 2))
    cs = CoefficientSet(n=2, t0=0.0, t_end=40.0, P=cf.constant(eye), Q=cf.constant(zero),
                        R=cf.constant(zero), S=cf.constant(eye))
    return written(tmp_path, "tanh40", cs, np.zeros((2, 2)))


def tan_blowup_on_pole(tmp_path):
    """The catalog's y = -tan(t) on [0, pi], whose 17 uniform samples include pi/2."""
    entry = canonical_catalog()["tan_blowup"]
    cs = CoefficientSet(n=1, t0=0.0, t_end=math.pi, P=entry.cs.P, Q=entry.cs.Q,
                        R=entry.cs.R, S=entry.cs.S)
    return written(tmp_path, "tan_blowup", cs, entry.y0)


CASES = {
    "satisfying1": (lambda tmp: generated(tmp, "satisfying", 1), 201),
    "satisfying3": (lambda tmp: generated(tmp, "satisfying", 3), 201),
    "satisfying8": (lambda tmp: generated(tmp, "satisfying", 8), 201),
    "blowup2": (lambda tmp: generated(tmp, "blowup", 2), 201),
    "tanh40": (tanh_two, 201),
    "tan_blowup": (tan_blowup_on_pole, 17),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_both_equals_the_two_integrators(tmp_path, case):
    make, samples = CASES[case]
    path = make(tmp_path)
    out = tmp_path / "traj.csv"
    code, stdout = quiet_main("integrate", str(path), "--method", "both",
                              "--out", str(out), "--samples", str(samples))
    assert code == 0
    # one line: the JSON status, whose max_discrepancy is exact
    assert len(stdout.splitlines()) == 1
    status = json.loads(stdout)
    side = json.loads(out.with_suffix(".status.json").read_text())

    inst = load_instance(str(path))
    ts = GridSpec.for_set(inst.cs, samples).points
    opts = IntegratorOptions()
    direct = integrate_riccati_direct(inst.cs, inst.y0, opts, ts)
    flow, radon = integrate_linear_system(inst.cs, inst.y0, opts, ts)
    expected = reference_max_discrepancy(direct, radon)

    for got in (status, side):
        assert got["max_discrepancy"].hex() == expected.hex()
        assert got["radon_status"] == radon.status
        assert got["restarts"] == flow.restarts
        assert got["status"] == direct.status
        assert got["stats"] == direct.stats and got["radon_stats"] == radon.stats

    # each case reaches the branch it stands for
    if case == "blowup2":
        assert direct.status == "blow_up" and 1.5 < direct.t_escape < 1.6
        assert radon.status == "completed" and radon.times[-1] == inst.cs.t_end
    elif case == "tanh40":
        assert flow.restarts and radon.status == "completed"
    elif case == "tan_blowup":
        assert math.pi / 2 in ts.tolist()
        assert radon.singular_times.tolist() == [math.pi / 2]
        assert radon.status == "phi_singular" and direct.status == "blow_up"
    else:
        assert direct.status == radon.status == "completed" and not flow.restarts


@pytest.mark.parametrize("case", sorted(CASES))
def test_integrate_both_equals_the_two_integrators(tmp_path, case):
    make, samples = CASES[case]
    inst = load_instance(str(make(tmp_path)))
    ts = GridSpec.for_set(inst.cs, samples).points
    opts = IntegratorOptions()
    traj, extra = integrate_both(inst.cs, inst.y0, opts, ts)
    direct = integrate_riccati_direct(inst.cs, inst.y0, opts, ts)
    flow, radon = integrate_linear_system(inst.cs, inst.y0, opts, ts)

    assert list(extra) == ["radon_status", "restarts", "max_discrepancy", "radon_stats"]
    assert extra["radon_stats"] == radon.stats
    assert extra["max_discrepancy"].hex() == reference_max_discrepancy(direct, radon).hex()
    assert extra["radon_status"] == radon.status
    assert extra["restarts"] == flow.restarts
    # the trajectory returned is the direct one, bit for bit
    assert np.array_equal(traj.times, direct.times)
    assert np.array_equal(traj.values, direct.values)
    assert (traj.method, traj.status, traj.t_escape, traj.blowup_trigger) == \
        (direct.method, direct.status, direct.t_escape, direct.blowup_trigger)
    assert traj.stats == direct.stats


def test_integrate_both_defaults_and_input_errors():
    entry = canonical_catalog()["tanh"]
    traj, extra = integrate_both(entry.cs, entry.y0)
    assert traj.times.size == 201 and extra["radon_status"] == "completed"
    with pytest.raises(ValueError, match="Y0"):
        integrate_both(entry.cs, [[math.nan]])
    with pytest.raises(IntegrationError, match="sample_times must start at t0"):
        integrate_both(entry.cs, entry.y0, sample_times=[1.0, 2.0])
