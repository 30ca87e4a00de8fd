import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riccati_cert.coefficients import _shifted_source
from riccati_cert.criteria import (
    GridSpec,
    check_comparison_hypotheses,
    check_gauge_criterion,
)
from riccati_cert.instances import (
    TARGETS,
    InstanceSpec,
    blowup_escape_time,
    canonical_catalog,
    gen_blowup,
    gen_comparison,
    gen_satisfying,
    generate,
)
from riccati_cert.integrate import integrate_riccati_direct
from riccati_cert.serialize import dumps_instance, instance_to_obj


class TestSpec:
    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            InstanceSpec(n=1, seed=0, target="mystery")

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            InstanceSpec(n=1, seed=0, scale=0.0)

    @pytest.mark.parametrize("field, value", [
        ("horizon", math.nan), ("horizon", math.inf), ("scale", math.nan),
        ("scale", math.inf), ("t0", math.nan), ("t0", 1e308),
    ])
    def test_rejects_non_finite_fields(self, field, value):
        spec = {"horizon": 1e308} if field == "t0" else {}
        with pytest.raises(ValueError, match="finite"):
            InstanceSpec(n=1, seed=0, **{**spec, field: value})

    @pytest.mark.parametrize("field, value", [
        ("target", "mystery"), ("n", 0), ("n", 65), ("seed", -1),
        ("horizon", 0.0), ("horizon", math.inf), ("scale", -1.0), ("scale", math.nan),
        ("t0", math.nan), ("t0", 1e308),
    ])
    def test_error_starts_with_the_field(self, field, value):
        # the gen command names the flag --<field> from the message's first word
        spec = {"n": 1, "seed": 0, "horizon": 1e308 if (field, value) == ("t0", 1e308) else 5.0}
        with pytest.raises(ValueError) as err:
            InstanceSpec(**{**spec, field: value})
        assert str(err.value).split()[0] == field


    @pytest.mark.parametrize("kinds", [
        {"lambda": "banana"}, {"P": "sampled"}, {"R": "constant"}, {"Y0": "polynomial"},
        {"P": "constant", "L": "constant"},
    ])
    def test_rejects_kinds_it_would_ignore(self, kinds):
        with pytest.raises(ValueError) as err:
            InstanceSpec(n=2, seed=1, kinds=kinds)
        assert str(err.value).split()[0] == "kinds"

    def test_accepts_every_kind_it_reads(self):
        for kind in ("polynomial", "constant"):
            InstanceSpec(n=2, seed=1, kinds=dict.fromkeys(("P", "Q", "S", "lambda", "mu"), kind))


class TestGenerate:
    """``generate`` dispatches on ``spec.target`` to the family's generator."""

    @staticmethod
    def family_obj(spec):
        """The instance object of the family generator, as ``gen`` built it per target."""
        if spec.target == "satisfying":
            cs, lam, mu, y0 = gen_satisfying(spec)
            return instance_to_obj(cs, y0, lam=lam, mu=mu)
        if spec.target == "blowup":
            return instance_to_obj(*gen_blowup(spec))
        return instance_to_obj(*gen_comparison(spec))

    @pytest.mark.parametrize("target", list(TARGETS))
    @pytest.mark.parametrize("n, seed", [(1, 0), (3, 7), (8, 11)])
    def test_same_bytes_as_the_family_generator(self, target, n, seed):
        spec = InstanceSpec(n=n, seed=seed, target=target)
        cs, y0, gauges = generate(spec)
        assert dumps_instance(instance_to_obj(cs, y0, **gauges)) == \
            dumps_instance(self.family_obj(spec))

    def test_each_target_passes_or_fails_its_criterion(self):
        from riccati_cert.criteria import run_criterion

        assert TARGETS == {"satisfying": "theorem3.1", "blowup": "theorem3.1",
                           "comparison": "theorem1.1"}
        for target, holds in (("satisfying", True), ("blowup", False), ("comparison", True)):
            cs, y0, gauges = generate(InstanceSpec(n=2, seed=3, target=target))
            report = run_criterion(TARGETS[target], cs, y0, grid=GridSpec.for_set(cs, 51),
                                   **gauges)
            assert report.holds is holds, target


class TestDeterminism:
    def test_satisfying_is_bit_identical(self):
        spec = InstanceSpec(n=3, seed=99)
        a = gen_satisfying(spec)
        b = gen_satisfying(spec)
        blob_a = dumps_instance(instance_to_obj(a[0], a[3], lam=a[1], mu=a[2]))
        blob_b = dumps_instance(instance_to_obj(b[0], b[3], lam=b[1], mu=b[2]))
        assert blob_a == blob_b

    def test_different_seeds_differ(self):
        a = gen_satisfying(InstanceSpec(n=2, seed=1))
        b = gen_satisfying(InstanceSpec(n=2, seed=2))
        assert not np.array_equal(a[3], b[3])


class TestSatisfying:
    def test_every_draw_passes_the_checker(self):
        for seed in range(8):
            for n in (1, 2, 4):
                cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=n, seed=seed))
                rep = check_gauge_criterion(cs, lam, y0, GridSpec.for_set(cs, 51))
                assert rep.holds, (n, seed)
                # the shift extracted by the independent checker matches
                rec = rep.condition("scalar_shift")
                assert rec.worst_value <= 1e-9
                for t in (cs.t0, 0.5 * (cs.t0 + cs.t_end), cs.t_end):
                    assert abs(complex(rep.extracted_mu.eval(t)) - complex(mu.eval(t))) <= 1e-9

    def test_shift_is_real(self):
        # the certified bound requires a real scalar shift; the generator
        # must stay inside that regime
        for seed in range(8):
            cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=2, seed=seed))
            for t in np.linspace(cs.t0, cs.t_end, 7):
                assert abs(complex(mu.eval(float(t))).imag) == 0.0

    def test_constant_kind_request(self):
        spec = InstanceSpec(n=2, seed=5, kinds={"P": "constant", "Q": "constant",
                                                "lambda": "constant", "mu": "constant"})
        cs, lam, mu, y0 = gen_satisfying(spec)
        assert cs.P.degree == 0 and lam.degree == 0
        rep = check_gauge_criterion(cs, lam, y0, GridSpec.for_set(cs, 31))
        assert rep.holds

    def test_magnitude_control(self):
        cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=3, seed=11, scale=0.5))
        for t in np.linspace(cs.t0, cs.t_end, 5):
            assert np.linalg.norm(cs.P.eval(float(t))) <= 0.5 + 1e-12
            assert np.linalg.norm(cs.Q.eval(float(t))) <= 0.5 + 1e-12

    def test_shifted_source_is_constant_psd(self):
        # S is derived so that S_L + S_L* equals one fixed PSD matrix W:
        # time-independent with nonnegative spectrum
        cs, lam, mu, y0 = gen_satisfying(InstanceSpec(n=3, seed=2))
        probes = []
        for t in np.linspace(cs.t0, cs.t_end, 7):
            sl = _shifted_source(*(f.eval(float(t)) for f in (cs.P, cs.Q, cs.R, cs.S, lam)),
                                 lam.derivative(float(t)))
            probes.append(sl + sl.conj().T)
        for w in probes[1:]:
            assert np.linalg.norm(w - probes[0]) <= 1e-10
        assert np.linalg.eigvalsh(probes[0])[0] >= -1e-12


class TestBlowup:
    def test_structure(self):
        cs, y0 = gen_blowup(InstanceSpec(n=2, seed=0, scale=1.0, target="blowup"))
        assert_allclose(cs.P.eval(0.0), np.eye(2))
        assert_allclose(cs.S.eval(0.0), -np.eye(2))
        assert np.all(y0 == 0)

    def test_violates_source_condition(self):
        c = 1.0
        cs, y0 = gen_blowup(InstanceSpec(n=2, seed=0, scale=c, target="blowup"))
        rep = check_gauge_criterion(cs, None, y0, GridSpec.for_set(cs, 11))
        rec = rep.condition("shifted_source_psd")
        assert not rec.passed
        assert rec.worst_value == pytest.approx(-2 * c)

    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
    def test_escape_time_matches_closed_form(self, c):
        spec = InstanceSpec(n=1, seed=0, scale=c, target="blowup",
                            horizon=math.pi / (2 * math.sqrt(c)) + 0.5)
        cs, y0 = gen_blowup(spec)
        traj = integrate_riccati_direct(cs, y0)
        assert traj.status == "blow_up"
        assert abs(traj.t_escape - blowup_escape_time(spec)) <= 1e-3


class TestComparison:
    def test_hypotheses_hold(self):
        for seed in range(6):
            cs, y0 = gen_comparison(InstanceSpec(n=3, seed=seed, target="comparison"))
            rep = check_comparison_hypotheses(cs, y0, GridSpec.for_set(cs, 31))
            assert rep.holds, seed

    def test_also_certified_by_gauge_criterion(self):
        # the zero-gauge criterion covers the symmetric-pair setting
        for seed in range(6):
            cs, y0 = gen_comparison(InstanceSpec(n=2, seed=seed, target="comparison"))
            rep = check_gauge_criterion(cs, None, y0, GridSpec.for_set(cs, 31))
            assert rep.holds, seed

    def test_scalar_degenerate_draw_is_tanh_like(self):
        # the all-zero scalar draw reduces to y' = s - p y^2 with p, s >= 0
        cs, y0 = gen_comparison(InstanceSpec(n=1, seed=4, target="comparison"))
        assert cs.P.eval(0.0)[0, 0].real >= 0
        assert cs.S.eval(0.0)[0, 0].real >= 0


class TestCatalog:
    def test_names_present(self):
        cat = canonical_catalog()
        for name in ("tanh", "tan_blowup", "linear", "care_constant", "cosh_sinh"):
            assert name in cat

    def test_tanh_value(self):
        e = canonical_catalog()["tanh"]
        assert e.exact(1.0)[0, 0] == pytest.approx(0.7615941559557649)

    def test_linear_exact(self):
        e = canonical_catalog()["linear"]
        ts = np.linspace(0.0, 3.0, 16)
        traj = integrate_riccati_direct(e.cs, e.y0, sample_times=ts)
        for k, t in enumerate(ts):
            assert_allclose(traj.values[k], t * np.eye(2), atol=1e-9)

    def test_care_constant_converges_to_identity(self):
        e = canonical_catalog()["care_constant"]
        ts = np.linspace(0.0, 12.0, 25)  # contains t = 10
        traj = integrate_riccati_direct(e.cs, e.y0, sample_times=ts)
        k = int(np.argmin(np.abs(ts - 10.0)))
        assert np.linalg.norm(traj.values[k] - np.eye(2)) <= 1e-8

    def test_escape_annotation(self):
        e = canonical_catalog()["tan_blowup"]
        assert e.escape_time == pytest.approx(math.pi / 2)


class TestIntegerRules:
    """n, seed and the grid's point count are ints (numpy's too), never a
    float or a bool, refused by their owners with a ValueError."""

    @pytest.mark.parametrize("make", [
        lambda: InstanceSpec(n=2, seed=1.5), lambda: InstanceSpec(n=2.5, seed=0),
        lambda: InstanceSpec(n=2, seed=True), lambda: InstanceSpec(n=True, seed=0),
        lambda: InstanceSpec(n=2.0, seed=0), lambda: GridSpec(0.0, 1.0, 2.5),
        lambda: GridSpec(0.0, 1.0, 3.0), lambda: GridSpec(0.0, 1.0, True),
    ], ids=["seed-float", "n-float", "seed-bool", "n-bool", "n-integral-float",
            "grid-float", "grid-integral-float", "grid-bool"])
    def test_non_integers_are_refused(self, make):
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    def test_numpy_integers_are_accepted(self):
        spec = InstanceSpec(n=np.int64(2), seed=np.uint8(3))
        assert gen_satisfying(spec)[0].n == 2
        assert GridSpec(0.0, 1.0, np.int32(5)).points.size == 5
