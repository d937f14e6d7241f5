import dataclasses
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasmoments import core
from gasmoments.core import (
    ConservedReport,
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    TailTruncationWarning,
    _csv_rows,
    _fmt,
    conserved,
    integrate_radial,
    load_snapshot,
    snapshot_text,
    sphere_area,
    trapezoid_weights,
)
from gasmoments.momenta import Quadratic, g_phi, virial_residual

P3 = GasParameters(n=3, gamma=5.0 / 3.0)


class TestSphereArea:
    def test_low_dimensions(self):
        assert sphere_area(1) == pytest.approx(2.0, rel=1e-15)
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)

    def test_matches_gamma_form(self):
        for n in range(1, 16):
            expected = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
            assert sphere_area(n) == pytest.approx(expected, rel=1e-14), f"n={n}"

    def test_rejects_bad_dimension(self):
        with pytest.raises(ParameterError):
            sphere_area(0)
        with pytest.raises(ParameterError):
            sphere_area(2.5)
        with pytest.raises(ParameterError):  # Gamma(n/2) overflows a float
            sphere_area(344)


class TestGasParameters:
    def test_gamma_must_exceed_one(self):
        with pytest.raises(ParameterError):
            GasParameters(n=3, gamma=1.0)

    def test_dimension_must_be_integer(self):
        with pytest.raises(ParameterError):
            GasParameters(n=1.5, gamma=1.4)

    @pytest.mark.parametrize("build", [lambda n: GasParameters(n=n, gamma=1.4), sphere_area],
                             ids=["GasParameters", "sphere_area"])
    def test_dimension_bound_is_shared_with_sphere_area(self, build):
        build(343)
        build(np.int64(343))
        for n in (344, np.int64(344)):
            with pytest.raises(ParameterError) as caught:
                build(n)
            assert type(caught.value) is ParameterError
            assert str(caught.value) == f"space dimension must be at most 343, got {n!r}"
        with pytest.raises(ParameterError, match=r"^space dimension must be an integer >= 1, got True$"):
            build(True)


class TestRadialGrid:
    def test_uniform_factory(self):
        g = RadialGrid.uniform(2.0, 5)
        assert np.allclose(g.r, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.r_max == 2.0
        assert len(g) == 5

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidInputError):
            RadialGrid(np.array([0.0, 1.0, 0.5]))

    def test_rejects_negative_start(self):
        with pytest.raises(InvalidInputError):
            RadialGrid(np.array([-0.1, 1.0]))

    def test_rejects_short(self):
        with pytest.raises(InvalidInputError):
            RadialGrid(np.array([1.0]))

    def test_rejects_nonfinite_radius(self):
        with pytest.raises(InvalidInputError, match="^grid radii must be finite, got nan at index 1$"):
            RadialGrid(np.array([0.0, np.nan, 1.0]))

    @pytest.mark.parametrize("r_max", [np.inf, np.nan])
    def test_rejects_nonfinite_r_max(self, r_max):
        with pytest.raises(InvalidInputError, match="r_max must be finite"):
            RadialGrid(np.array([0.0, 1.0]), r_max=r_max)

    def test_radii_frozen(self):
        g = RadialGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            g.r[0] = 7.0

    def test_source_array_not_mutated(self):
        src = np.array([0.0, 1.0, 2.0])
        RadialGrid(src)
        src[0] = -5.0  # still writable, grid keeps its own copy


class TestFlowSnapshot:
    def test_length_mismatch(self):
        g = RadialGrid.uniform(1.0, 4)
        with pytest.raises(InvalidInputError):
            FlowSnapshot(g, rho=np.ones(3), v=np.zeros(4), p=np.zeros(4))

    def test_negative_density_rejected(self):
        g = RadialGrid.uniform(1.0, 4)
        with pytest.raises(InvalidInputError):
            FlowSnapshot(g, rho=np.array([1.0, -1e-9, 1.0, 1.0]), v=np.zeros(4), p=np.zeros(4))

    def test_negative_pressure_rejected(self):
        g = RadialGrid.uniform(1.0, 4)
        with pytest.raises(InvalidInputError, match="^p must be nonnegative, got -1e-09 at index 2$"):
            FlowSnapshot(g, rho=np.ones(4), v=np.zeros(4), p=np.array([1.0, 1.0, -1e-9, 1.0]))

    def test_nonfinite_rejected(self):
        g = RadialGrid.uniform(1.0, 4)
        with pytest.raises(InvalidInputError):
            FlowSnapshot(g, rho=np.ones(4), v=np.array([0.0, np.nan, 0.0, 0.0]), p=np.zeros(4))
        with pytest.raises(InvalidInputError, match="time must be finite"):
            FlowSnapshot(g, rho=np.ones(4), v=np.zeros(4), p=np.zeros(4), t=np.nan)

    def test_internal_energy_on_vacuum(self):
        g = RadialGrid.uniform(1.0, 3)
        s = FlowSnapshot(g, rho=np.array([1.0, 0.0, 2.0]), v=np.zeros(3), p=np.array([1.0, 0.0, 1.0]))
        theta = s.temperature()
        assert np.all(np.isfinite(theta))
        assert theta[1] == 0.0
        assert theta[0] == 1.0
        assert theta[2] == 0.5

    def test_temperature_is_one_masked_divide(self, traced_peak):
        # the quotient where rho > 0 and zeros elsewhere, in one array plus the mask: 1.1 node
        # arrays, where dividing everywhere and then choosing held 2.1
        g = RadialGrid.uniform(40.0, 100_000)
        r = g.r
        s = FlowSnapshot(g, np.where(r % 3.0 < 1.0, 0.0, np.exp(-r)), np.zeros_like(r), 0.5 * np.exp(-r / 2.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            expect = np.where(s.rho > 0.0, s.p / s.rho, 0.0)
        assert s.temperature().tobytes() == expect.tobytes()
        assert traced_peak(s.temperature) <= 1.2 * r.nbytes


class TestIntegrateRadial:
    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_ball_volume(self):
        # f = 1 on [0,1]: integrand peaks at the edge, so the tail warning is filtered
        g = RadialGrid.uniform(1.0, 2001)
        vol = integrate_radial(np.ones(len(g)), g, P3)
        assert vol == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)

    def test_ball_volume_warns_about_tail(self):
        g = RadialGrid.uniform(1.0, 101)
        with pytest.warns(TailTruncationWarning):
            integrate_radial(np.ones(len(g)), g, P3)

    def test_tail_warning_names_the_calling_line(self):
        g = RadialGrid.uniform(1.0, 101)
        with pytest.warns(TailTruncationWarning) as caught:
            line = sys._getframe().f_lineno + 1
            integrate_radial(np.ones(len(g)), g, P3)
        assert (caught[0].filename, caught[0].lineno) == (__file__, line)

    def test_gaussian_oracle(self):
        # closed form: int e^{-r^2/2} dx over R^3 = (2 pi)^{3/2}
        g = RadialGrid.uniform(12.0, 4001)
        val = integrate_radial(np.exp(-g.r**2 / 2.0), g, P3)
        assert val == pytest.approx((2.0 * math.pi) ** 1.5, rel=1e-10)

    def test_zero_integrand(self):
        g = RadialGrid.uniform(5.0, 64)
        assert integrate_radial(np.zeros(64), g, P3) == 0.0

    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = RadialGrid.uniform(3.0, 257)
        f1 = rng.standard_normal(257)
        f2 = rng.standard_normal(257)
        a, b = 1.7, -0.3
        lhs = integrate_radial(a * f1 + b * f2, g, P3)
        rhs = a * integrate_radial(f1, g, P3) + b * integrate_radial(f2, g, P3)
        assert lhs == pytest.approx(rhs, abs=1e-13 * max(1.0, abs(rhs)))

    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_trapezoid_order(self):
        # f = r^2 on [0,1]: omega_2 int r^4 dr = omega_2/5, error must drop ~4x per refinement
        exact = sphere_area(3) / 5.0
        errs = []
        for num in (101, 201):
            g = RadialGrid.uniform(1.0, num)
            val = integrate_radial(g.r**2, g, P3)
            errs.append(abs(val - exact))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5, f"trapezoid order breach: ratio={ratio}"

    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_nonuniform_grid(self):
        # geometric grid still integrates smooth data at second order
        r = np.geomspace(1e-3, 1.0, 1600)
        g = RadialGrid(np.concatenate([[0.0], r]))
        val = integrate_radial(g.r**2, g, P3)
        assert val == pytest.approx(sphere_area(3) / 5.0, rel=1e-4)

    def test_rejects_nonfinite(self):
        g = RadialGrid.uniform(1.0, 8)
        f = np.ones(8)
        f[3] = np.inf
        with pytest.raises(InvalidInputError, match="node 3"):
            integrate_radial(f, g, P3)

    def test_rejects_shape_mismatch(self):
        g = RadialGrid.uniform(1.0, 8)
        with pytest.raises(InvalidInputError, match=r"^sample shape \(7,\) does not match grid \(8,\)$"):
            integrate_radial(np.ones(7), g, P3)


class TestConserved:
    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_static_ball(self):
        g = RadialGrid.uniform(1.0, 2001)
        s = FlowSnapshot(g, rho=np.ones(2001), v=np.zeros(2001), p=np.zeros(2001))
        rep = conserved(s, P3)
        assert rep.mass == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)
        assert rep.e_kinetic == 0.0
        assert rep.e_internal == 0.0

    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_linear_velocity_kinetic_energy(self):
        # E_k = 1/2 omega_2 int r^4 dr = 2 pi / 5 on the unit ball
        g = RadialGrid.uniform(1.0, 4001)
        s = FlowSnapshot(g, rho=np.ones(4001), v=g.r.copy(), p=np.zeros(4001))
        rep = conserved(s, P3)
        assert rep.e_kinetic == pytest.approx(2.0 * math.pi / 5.0, rel=1e-6)

    def test_vacuum(self):
        g = RadialGrid.uniform(1.0, 32)
        s = FlowSnapshot(g, rho=np.zeros(32), v=np.zeros(32), p=np.zeros(32))
        rep = conserved(s, P3)
        assert rep == ConservedReport(0.0, 0.0, 0.0, 0.0)

    def test_total_energy_bit_exact(self):
        rng = np.random.default_rng(3)
        g = RadialGrid.uniform(6.0, 300)
        rho = np.exp(-g.r**2) * (1.0 + 0.1 * rng.random(300))
        p = np.exp(-g.r**2) * (1.0 + 0.1 * rng.random(300))
        s = FlowSnapshot(g, rho=rho, v=rng.standard_normal(300), p=p)
        rep = conserved(s, P3)
        assert rep.e_total == rep.e_kinetic + rep.e_internal  # exact float identity


class TestConservedCache:
    def test_one_report_per_gas(self):
        snap = _pinned_snapshot("uniform")
        first = conserved(snap, P3)
        assert conserved(snap, GasParameters(n=3, gamma=5.0 / 3.0)) is first
        assert first == conserved(dataclasses.replace(snap), P3)
        # another gamma or n is another report, each the one a new snapshot gets
        for params in (GasParameters(n=3, gamma=1.4), GasParameters(n=2, gamma=5.0 / 3.0)):
            report = conserved(snap, params)
            assert report == conserved(dataclasses.replace(snap), params) != first
        assert conserved(snap, P3) is first

    def test_virial_residual_reuses_the_callers_report(self, monkeypatch):
        snap = _pinned_snapshot("uniform")
        expected = virial_residual(dataclasses.replace(snap), P3)
        calls = []
        integrate = core.integrate_radial
        monkeypatch.setattr(core, "integrate_radial", lambda *a: calls.append(1) or integrate(*a))
        conserved(snap, P3)
        assert len(calls) == 3
        assert virial_residual(snap, P3) == expected
        assert len(calls) == 3


def _per_value(*columns) -> str:
    """The reference rows: each value through `'%.17g' %` on its own."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in zip(*columns))


class TestCsvKernel:
    """The array kernel of `_csv_rows` against `'%.17g' %`, value by value, on tables past its cut."""

    @staticmethod
    def check(x, ncols=2):
        x = np.asarray(x, dtype=float)
        x = np.resize(x, max(x.size, core._KERNEL_MIN) // ncols * ncols)
        columns = x.reshape(-1, ncols).T
        assert _csv_rows(*columns) == _per_value(*columns)

    def test_random_bit_patterns_over_every_exponent(self):
        # every biased exponent 0..2047 (subnormals, NaN and inf included), random significands and signs
        rng = np.random.default_rng(20)
        exponent = np.repeat(np.arange(2048, dtype=np.uint64), 4)
        bits = (exponent << np.uint64(52)) | rng.integers(0, 1 << 52, exponent.size, dtype=np.uint64)
        bits |= rng.integers(0, 2, exponent.size, dtype=np.uint64) << np.uint64(63)
        self.check(bits.view(np.float64), ncols=4)

    def test_zeros_extremes_and_powers_of_ten(self):
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = np.concatenate([
            [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308],
            np.random.default_rng(21).integers(1, 1 << 52, 64, dtype=np.uint64).view(np.float64),  # subnormals
            p, np.nextafter(p, 0.0), np.nextafter(p, np.inf),
        ])
        self.check(np.concatenate([x, -x]), ncols=3)

    def test_doubles_nearest_17_digit_midpoints(self):
        rng = np.random.default_rng(22)
        mids = []
        for k in rng.integers(-300, 300, 480):
            digits = int(rng.integers(10**16, 10**17))
            mids.append(float(Fraction(2 * digits + 1, 2) * Fraction(10) ** int(k - 16)))
        x = np.array(mids)
        below, above = np.nextafter(x, 0.0), np.nextafter(x, np.inf)
        self.check(np.concatenate([x, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf)]))

    def test_exact_dyadic_ties(self):
        # odd m / 2^j is m 5^j / 10^j; with m 5^j of 18 digits, the last a 5, it is an exact
        # 17-digit tie, rounded half to even both ways
        rng = np.random.default_rng(23)
        x = []
        for j in range(2, 26):
            lo, hi = -(-2 * 10**16 // 5 ** (j - 1)), min(2 * 10**17 // 5 ** (j - 1), 1 << 53)
            odd = rng.integers(lo, hi, 100) | 1
            x.append(odd[odd < hi] / 2.0**j)
        x = np.concatenate(x)
        assert all((Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))).denominator == 2 for v in x[::50])
        self.check(np.concatenate([x, -x]))

    def test_window_is_the_truncation_bound(self):
        # the table's truncation moves the 64-bit fraction by up to 2^26: a window of +-1 would be unsound
        half = 1 << 63
        F = np.array([half - 2**26 - 1, half - 2**26, half - 1, half, half + 1, 2**64 - 1], dtype=np.uint64)
        up, undecided = core._round_half(F)
        assert up.tolist() == [False, False, False, False, True, True]
        assert undecided.tolist() == [False, True, True, True, False, False]

    def test_tables_match_the_big_int_construction(self):
        # the tables as first built: every decimal exponent k0 proved exact per binary exponent with Python ints
        def at_least(E, k):  # 2^E >= 10^k
            return (1 << max(E, 0)) * 10 ** max(-k, 0) >= (1 << max(-E, 0)) * 10 ** max(k, 0)

        k0, thr = [], []
        for e in range(core._E_MIN, core._E_MAX + 1):
            k = ((e + 52) * 78913) >> 18
            # the shift formula is floor((e + 52) log10 2) itself: 10^k <= 2^(e+52) < 10^(k+1)
            assert at_least(e + 52, k) and not at_least(e + 52, k + 1), e
            k += at_least(e + 52, k + 1) - (not at_least(e + 52, k))
            k0.append(k)
            thr.append(-(-(10 ** max(k + 1, 0) << max(-e, 0)) // (10 ** max(-k - 1, 0) << max(e, 0))))
        assert len(k0) == 2098
        limbs, shift = [], []
        for q in range(16 - core._K_MAX, 17 - core._K_MIN):
            p = 10 ** abs(q)
            b = p.bit_length() - 96 if q >= 0 else -(p.bit_length() + 95)
            T = (p >> b if b >= 0 else p << -b) if q >= 0 else (1 << -b) // p
            assert 1 << 95 <= T < 1 << 96
            limbs.append([T & 0xFFFFFFFF, (T >> 32) & 0xFFFFFFFF, T >> 64])
            shift.append(-b - 11)
        lead, suffix, point, whole = [], [], [], []
        for k in range(core._K_MIN, core._K_MAX + 1):
            fixed = -4 <= k <= 16
            lead.append(int.from_bytes(b"\0" + (b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""), "little"))
            suffix.append(int.from_bytes(b"" if fixed else b"e%+03d" % k, "little"))
            point.append((k + 1 if k >= 0 else 17) if fixed else 1)
            whole.append(k + 1 if fixed and k >= 0 else 1)
        u64 = lambda a: np.array(a, dtype=np.uint64)
        quad = [int.from_bytes(bytes(int(d) for d in f"{x:04d}"), "little") for x in range(10_000)]
        expected = {
            "quad": u64(quad), "k0": np.array(k0), "thr": u64(thr), "limbs": u64(limbs).T, "shift": np.array(shift),
            "lead": u64(lead), "suffix": u64(suffix), "point": np.array(point), "whole": np.array(whole),
        }
        tables = core._kernel_tables()
        assert sorted(tables) == sorted(expected)
        for name, table in tables.items():
            assert (table.dtype, table.shape) == (expected[name].dtype, expected[name].shape), name
            assert table.tobytes() == np.ascontiguousarray(expected[name]).tobytes(), name

    def test_undecided_values_take_the_scalar_formatter(self, monkeypatch):
        calls = []
        monkeypatch.setattr(core, "_fmt", lambda v: calls.append(v) or format(float(v), ".17g"))
        # exact ties, 18 significant digits ending in 5, rounding to even down and up
        ties = [1000000000000000.25, 1999999999999999.75, 1125899906842624.25]
        x = np.resize([0.1, -0.0, 3.0, np.nan, -np.inf] + ties, core._KERNEL_MIN)
        assert _csv_rows(x) == _per_value(x)
        assert len(calls) == np.count_nonzero(np.isin(x, ties) | ~np.isfinite(x))


class TestSnapshotIO:
    HEADER = "# gasmoments 0.1.0 config 0123456789ab"

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        g = RadialGrid(np.cumsum(rng.uniform(0.01, 0.2, 60)), r_max=15.3)
        s = FlowSnapshot(g, rho=np.exp(-g.r) * rng.uniform(0.5, 1.5, 60),
                         v=rng.normal(size=60), p=np.exp(-2 * g.r) / 3, t=1.0 / 3.0)
        path = tmp_path / "snap.csv"
        path.write_text(snapshot_text(s, self.HEADER))
        loaded = load_snapshot(path)
        assert loaded.t == 1.0 / 3.0
        assert loaded.grid.r_max == 15.3
        np.testing.assert_array_equal(loaded.grid.r, s.grid.r)
        np.testing.assert_array_equal(loaded.rho, s.rho)
        np.testing.assert_array_equal(loaded.v, s.v)
        np.testing.assert_array_equal(loaded.p, s.p)
        # a rewrite of what was read gives back the same bytes
        assert snapshot_text(loaded, self.HEADER) == path.read_text()

    def test_table_rows_match_per_value_format(self):
        # the whole-table `%` call against the per-value formatter it replaced
        rng = np.random.default_rng(11)
        x = rng.uniform(1, 10, 1000) * 10.0 ** rng.integers(-310, 308, 1000) * rng.choice([-1, 1], 1000)
        x = np.concatenate([x, [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, 1.7976931348623157e308]])
        y = np.roll(x, 1)
        assert _csv_rows(x, y) == "".join(f"{_fmt(a)},{_fmt(b)}\n" for a, b in zip(x, y))

    def test_large_table_matches_per_value_format(self):
        # a snapshot-sized table, past the kernel's cut, with the zero tail of a tabulated pair
        r = np.linspace(0.0, 12.0, 4001)
        rho = np.where(r < 10.0, np.exp(-r * r / 2), 0.0)
        cols = (r, rho, -r * rho / 3, np.where(r < 10.0, rho ** (5 / 3), 0.0))
        assert _csv_rows(*cols) == _per_value(*cols)

    def test_layout(self):
        g = RadialGrid(np.array([0.0, 0.5]), r_max=2.0)
        s = FlowSnapshot(g, rho=[1.0, 0.1], v=[0.0, 0.25], p=[2.0, 0.0], t=0.5)
        assert snapshot_text(s, self.HEADER) == (
            f"{self.HEADER}\n# t 0.5\n# r_max 2\nr,rho,v,p\n0,1,0,2\n0.5,0.10000000000000001,0.25,0\n"
        )

    def test_defaults_without_t_and_r_max(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("r,rho,v,p\n0,1,0,1\n2,0.5,0,0.5\n")
        snap = load_snapshot(path)
        assert snap.t == 0.0
        assert snap.grid.r_max == 2.0

    def test_loads_with_comment_header(self, tmp_path):
        path = tmp_path / "snap.csv"
        for text in ("# written by some tool\nr,rho,v,p\n0,1,0,1\n1,0.5,0,0.5\n",
                     "\n# written by some tool\n\nr,rho,v,p\n0,1,0,1\n\n  \n1,0.5,0,0.5\n\n"):
            path.write_text(text)
            snap = load_snapshot(path)
            np.testing.assert_array_equal(snap.grid.r, [0.0, 1.0])
            assert snap.rho[1] == 0.5

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("radius,density\n0,1\n")
        with pytest.raises(InvalidInputError, match="header"):
            load_snapshot(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])


@st.composite
def snapshots(draw):
    r = sorted(draw(st.lists(NONNEGATIVE | EXTREMES.map(abs), min_size=2, max_size=8, unique=True)))
    n = len(r)
    columns = [draw(st.lists(strategy, min_size=n, max_size=n))
               for strategy in (NONNEGATIVE | EXTREMES, FINITE | EXTREMES, NONNEGATIVE | EXTREMES)]
    r_max = max(r[-1], draw(NONNEGATIVE))
    return FlowSnapshot(RadialGrid(np.array(r), r_max=r_max), *columns, t=draw(FINITE | EXTREMES))


class TestSnapshotRoundTrip:
    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(snap=snapshots())
    def test_text_reads_back_bit_for_bit(self, tmp_path_factory, snap):
        path = tmp_path_factory.mktemp("roundtrip") / "snap.csv"
        text = snapshot_text(snap, TestSnapshotIO.HEADER)
        path.write_text(text)
        loaded = load_snapshot(path)
        assert float.hex(loaded.t) == float.hex(snap.t)
        assert float.hex(loaded.grid.r_max) == float.hex(snap.grid.r_max)
        for name in ("rho", "v", "p"):
            assert getattr(loaded, name).tobytes() == getattr(snap, name).tobytes(), name
        assert loaded.grid.r.tobytes() == snap.grid.r.tobytes()
        assert snapshot_text(loaded, TestSnapshotIO.HEADER) == text


HEADERS = {2: "u,value", 3: "t,a,b", 4: "r,rho,v,p"}
LEAD_LINES = st.sampled_from(["# gasmoments", "# t 0.5", "# t nan", "# r_max 3", "", "a,b"])
# a fault put in the rows: a cell that float() and np.loadtxt read apart or that the reader rejects, or a
# line the walk skips or rejects (blank lines, comments, a comment after a row, ragged rows); the empty
# line, which loadtxt skips where the walk counts it, is drawn most often
FAULTS = st.sampled_from(
    [("cell", text) for text in ("1_000", "\u0661\u0662", "inf", "nan", "0x10", "", " 2.5 ", "\t-3", "\x1c4",
                                 "5\x1f", "1e400", "\xa06")]
    + [("line", text) for text in ("", "", "", "", "", "   ", "\t", "\xa0", "# t 2", "# t x", "# c", "1,2 # c", "7",
                                   "1,2,3,4,5")])


@st.composite
def near_valid_tables(draw):
    """(text, ncols, header argument): lead lines, a header, rows of floats with up to two faults, trailing lines."""
    ncols = draw(st.integers(2, 4))
    lead = draw(st.lists(LEAD_LINES, max_size=2)) + draw(st.sampled_from([[], [HEADERS[ncols]]]))
    width = ncols + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))  # now and then every row is off by one
    nrows = draw(st.sampled_from([0, 1, 2, 3, 3, 4, 4, 5, 6]))
    # doubles of every exponent from random bit patterns, the non-finite ones replaced
    bits = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2**64, width * nrows, np.uint64)
    cells = [repr(x) if math.isfinite(x) else "0.1" for x in bits.view(np.float64).tolist()]
    rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        kind, text = draw(FAULTS)
        if kind == "cell" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = text
        else:
            rows.insert(draw(st.integers(0, len(rows))), [text])
    trailing = draw(st.sampled_from(["", "\n", "\n\n", "\n  \n", "\n\t"]))
    text = "\n".join(lead + [",".join(row) for row in rows]) + trailing
    return text, ncols, draw(st.sampled_from([None, HEADERS[ncols]]))


class TestReaderMatchesTheLineWalk:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(case=near_valid_tables())
    def test_same_values_keys_lines_or_message(self, tmp_path_factory, case):
        # the one-call block conversion must read every file as the row-by-row walk does, or leave it to the walk
        text, ncols, header = case
        path = tmp_path_factory.getbasetemp() / "near_valid_table.csv"
        path.write_text(text)

        def read():
            try:
                arr, head, rows = core._read_table(path, ncols, "table", header=header, keys={"t": 0.0, "r_max": None})
            except InvalidInputError as exc:
                return str(exc)
            return arr.tobytes(), arr.shape, repr(head), list(rows)  # repr: a `# t nan` key is not equal to itself

        with mock.patch.object(core, "_clean_block", lambda *args: None):
            walked = read()
        assert read() == walked


def test_trapezoid_weights_sum_to_span():
    r = np.array([0.0, 0.5, 2.0, 3.0])
    w = trapezoid_weights(r)
    assert w.sum() == pytest.approx(3.0, rel=1e-15)


# float.hex of (integrate_radial(rho r^2), mass, E_k, E_i,
# virial_residual) for the Gaussian fields of _pinned_snapshot, recorded
# before the quadrature factors were cached on the grid
PINNED_QUADRATURE = {
    ("uniform", 1): (
        "0x1.40d931ff62705p+1",
        "0x1.40d931ff62707p+1",
        "0x1.ce058fad31978p-4",
        "0x1.910f7e7f3b0c9p+1",
        "0x1.3b750201d7217p-54",
    ),
    ("uniform", 2): (
        "0x1.921fb5444750ep+3",
        "0x1.921f7e5cfeeecp+2",
        "0x1.21877845a3fccp-1",
        "0x1.f6a75df43eaabp+2",
        "0x1.e67e12b5cfdcfp-53",
    ),
    ("uniform", 3): (
        "0x1.79fd9a7f67382p+5",
        "0x1.f7fccdff344acp+3",
        "0x1.10273c09cf702p+1",
        "0x1.3afe00bf80aedp+4",
        "0x0.0p+0",
    ),
    ("uniform", 4): (
        "0x1.3bd3cc9be45ddp+7",
        "0x1.3bd3cc9be7e63p+5",
        "0x1.c6ca9746e272ap+2",
        "0x1.8ac8bfc2e1dfdp+5",
        "0x0.0p+0",
    ),
    ("uniform", 5): (
        "0x1.eec9e0f86379bp+8",
        "0x1.8bd4b3f9e92e4p+6",
        "0x1.643f6ec751dcdp+4",
        "0x1.eec9e0f8637a0p+6",
        "0x0.0p+0",
    ),
    ("nonuniform", 1): (
        "0x1.40d931ff62705p+1",
        "0x1.40d94ada4c8ddp+1",
        "0x1.ce058fad31978p-4",
        "0x1.910f9d90dfb17p+1",
        "0x1.3b74ea6b3dcc2p-54",
    ),
    ("nonuniform", 2): (
        "0x1.921fb54442d18p+3",
        "0x1.921fb54443631p+2",
        "0x1.21877845a0bfdp-1",
        "0x1.f6a7a295543c0p+2",
        "0x1.e67dd4bfb750dp-54",
    ),
    ("nonuniform", 3): (
        "0x1.79fd9a7f67382p+5",
        "0x1.f7fccdff344acp+3",
        "0x1.10273c09cf701p+1",
        "0x1.3afe00bf80aedp+4",
        "0x1.778d603956bc3p-53",
    ),
    ("nonuniform", 4): (
        "0x1.3bd3cc9be45dep+7",
        "0x1.3bd3cc9be45dep+5",
        "0x1.c6ca9746e272bp+2",
        "0x1.8ac8bfc2dd757p+5",
        "0x0.0p+0",
    ),
    ("nonuniform", 5): (
        "0x1.eec9e0f86379fp+8",
        "0x1.8bd4b3f9e92e5p+6",
        "0x1.643f6ec751dcdp+4",
        "0x1.eec9e0f86379fp+6",
        "0x0.0p+0",
    ),
}


def _pinned_snapshot(kind):
    if kind == "uniform":
        grid = RadialGrid.uniform(10.0, 2001)
    else:
        grid = RadialGrid(10.0 * np.linspace(0.0, 1.0, 1501) ** 2)
    r = grid.r
    return FlowSnapshot(grid=grid, rho=np.exp(-(r**2) / 2), v=0.3 * r, p=0.5 * np.exp(-(r**2) / 2))


class TestQuadratureCache:
    @pytest.mark.parametrize("kind, n", sorted(PINNED_QUADRATURE))
    def test_bits_unchanged(self, kind, n):
        snap = _pinned_snapshot(kind)
        params = GasParameters(n=n, gamma=1.4)
        rep = conserved(snap, params)
        got = (
            integrate_radial(snap.rho * snap.grid.r**2, snap.grid, params),
            rep.mass,
            rep.e_kinetic,
            rep.e_internal,
            virial_residual(snap, params),
        )
        assert tuple(x.hex() for x in got) == PINNED_QUADRATURE[kind, n]

    def test_cached_arrays_read_only(self):
        grid = RadialGrid(np.array([0.0, 0.5, 2.0, 3.0]))
        w, rpow = grid.quadrature_factors(3)
        assert w is grid.weights
        assert grid.quadrature_factors(3)[1] is rpow
        np.testing.assert_array_equal(w, trapezoid_weights(grid.r))
        np.testing.assert_array_equal(rpow, grid.r**2)
        for a in (w, rpow):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_one_grid_at_two_dimensions(self):
        shared = RadialGrid.uniform(12.0, 3001)
        f = np.exp(-(shared.r**2) / 2)
        for n in (4, 2, 4, 3, 2):
            params = GasParameters(n=n, gamma=1.4)
            fresh = RadialGrid.uniform(12.0, 3001)
            got = integrate_radial(f, shared, params)
            assert got == integrate_radial(f, fresh, params)
            # int over R^n of exp(-|x|^2/2) = (2 pi)^(n/2); the trapezoid error
            # is O(h^2) for even n, where the integrand f r^(n-1) is odd
            assert got == pytest.approx((2.0 * math.pi) ** (n / 2.0), rel=1e-5)


def _random_snapshot(seed, num):
    """A snapshot on a random nonuniform grid of num nodes; its samples need not decay."""
    rng = np.random.default_rng(seed)
    grid = RadialGrid(np.cumsum(rng.uniform(0.5, 1.5, num)) * (12.0 / num))
    return FlowSnapshot(grid, rng.random(num), rng.standard_normal(num), rng.random(num))


def _row_results(snap):
    """float.hex of every quadrature that forms its integrand in the work row."""
    fresh = dataclasses.replace(snap)  # conserved keeps its report on the snapshot
    rep = conserved(fresh, P3)
    got = (integrate_radial(snap.p, snap.grid, P3), rep.mass, rep.e_kinetic, rep.e_internal,
           g_phi(snap, Quadratic(), P3), virial_residual(fresh, P3))
    return tuple(x.hex() for x in got)


def _in_new_thread(fn):
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result(timeout=60)


class TestWorkRow:
    """Each thread forms its integrands in one row of its own, kept between calls."""

    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(num=st.integers(2, 20_000), before=st.lists(st.integers(2, 40_000), max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bits_whatever_the_thread_integrated_before(self, num, before, seed):
        snap = _random_snapshot(seed, num)
        expected = _in_new_thread(lambda: _row_results(snap))  # a thread whose first grid this is
        for size in before:
            integrate_radial(np.ones(size), RadialGrid.uniform(1.0, size), P3)
        assert _row_results(snap) == expected

    def test_threads_integrating_at_once_match_serial(self):
        grids = [RadialGrid.uniform(20.0, num) for num in (20_001, 30_011, 7_919, 50_021)]
        samples = [np.exp(-(g.r**2) / (2.0 + i)) for i, g in enumerate(grids)]
        serial = [integrate_radial(f, g, P3) for f, g in zip(samples, grids)]
        barrier = threading.Barrier(len(grids))

        def work(i):
            barrier.wait(timeout=30)
            return [integrate_radial(samples[i], grids[i], P3) for _ in range(400)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(grids)) as pool:
                results = list(pool.map(work, range(len(grids)), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, serial):
            assert got == [want] * len(got)

    def test_a_warning_hook_that_integrates_leaves_the_value(self):
        g = RadialGrid.uniform(1.0, 4001)
        ball = np.ones(len(g))  # ends at its edge value: warns
        decayed = np.exp(-50.0 * g.r**2)  # does not warn, so the hook does not recurse
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailTruncationWarning)
            expected = integrate_radial(ball, g, P3)
        inner = []

        def hook(message, category, filename, lineno, file=None, line=None):
            inner.append(integrate_radial(decayed, g, P3))  # overwrites this thread's work row

        with warnings.catch_warnings():
            warnings.simplefilter("always", TailTruncationWarning)
            warnings.showwarning = hook
            got = integrate_radial(ball, g, P3)
        assert inner == [integrate_radial(decayed, g, P3)]
        assert got == expected

    def test_node_arrays_held_at_1e5_nodes(self, traced_peak):
        g = RadialGrid.uniform(40.0, 100_000)
        r = g.r
        snap = FlowSnapshot(g, np.exp(-(r**2) / 2), 0.3 * r, 0.5 * np.exp(-(r**2) / 2))
        # the grid's weights and r^(n-1), and the thread's row, are built once and kept: not counted
        integrate_radial(snap.rho, g, P3)
        assert traced_peak(lambda: integrate_radial(snap.rho, g, P3)) < r.nbytes
        # conserved holds 0.5 rho while it forms the kinetic density, and nothing else node-long
        fresh = dataclasses.replace(snap)  # conserved keeps its report on the snapshot
        assert traced_peak(lambda: conserved(fresh, P3)) < 1.5 * r.nbytes
