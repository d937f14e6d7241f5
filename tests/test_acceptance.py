"""End-to-end acceptance checks for the toolkit.

Eleven independent checks, each printing one uncaptured PASS/FAIL line so a
plain ``pytest -v`` run doubles as a gate summary. Tolerances are fixed up
front; nothing here adapts to the observed error. Where a check needs a
reference value it is computed by an independent route (closed form,
fixed-step oracle, divergence-theorem quadrature), never by the code under
test.
"""

import dataclasses
import math

import numpy as np
import pytest

from gasmoments.bounds import (
    ConstEnvelope,
    DecayClassSpec,
    PowerEnvelope,
    contradiction_time,
)
from gasmoments.core import (
    FlowSnapshot,
    GasParameters,
    RadialGrid,
    conserved,
    sphere_area,
    trapezoid_weights,
)
from gasmoments.exact import (
    DeformationODE,
    GaussianShape,
    build_balanced_profiles,
    build_compatible_profiles,
    check_compatibility,
    deformation_constant,
    excluding_pressure_constant,
    integrate_deformation,
    reconstruct_fields,
)
from gasmoments.lagrangian import (
    MaterialVolume,
    advect,
    boundary_pressure_flux,
)
from gasmoments.momenta import Quadratic, g_phi, g_phi_rate, virial_residual
from gasmoments.solver import SolverConfig, cell_centered_grid, run
from readers import interior_integral
from residuals import pde_residual

P3 = GasParameters(n=3, gamma=5.0 / 3.0)
P14 = GasParameters(n=3, gamma=1.4)


def report(capfd, name: str, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def gauss_pair():
    return build_compatible_profiles(GaussianShape(), P3)


@pytest.fixture(scope="module")
def gauss_ode(gauss_pair):
    return deformation_constant(gauss_pair, P3)


@pytest.fixture(scope="module")
def gauss_sol(gauss_ode):
    return integrate_deformation(gauss_ode, 5.2, 1e-10)


def test_01_virial_identity(capfd, gauss_pair, gauss_sol):
    grid = RadialGrid.uniform(120.0 * gauss_pair.scale, 10001)
    snap = reconstruct_fields(gauss_sol, gauss_pair, 1.0, P3, grid=grid)
    res = virial_residual(snap, P3)
    report(capfd, "01 virial identity", res < 1e-6, f"normalized residual {res:.3e} < 1e-06")


def test_02_momentum_rate(capfd, gauss_pair, gauss_sol):
    grid = RadialGrid.uniform(40.0, 8001)
    w = Quadratic()
    dt = 1e-3

    def g(t):
        snap = reconstruct_fields(gauss_sol, gauss_pair, t, P3, grid=grid)
        return g_phi(snap, w, P3)

    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        fd = (g(t + dt) - g(t - dt)) / (2.0 * dt)
        snap = reconstruct_fields(gauss_sol, gauss_pair, t, P3, grid=grid)
        rate = g_phi_rate(snap, w, P3)
        worst = max(worst, abs(fd - rate) / abs(rate))
    report(capfd, "02 momentum rate", worst < 1e-4, f"max relative FD mismatch {worst:.3e} < 1e-04")


def test_03_second_derivative_bounds(capfd):
    # gamma = 1.4 keeps n(gamma-1) = 1.2 < 2, so the two energy bounds are
    # genuinely distinct; at gamma = 5/3 they coincide and the check is empty
    pair = build_compatible_profiles(GaussianShape(), P14)
    sol = integrate_deformation(deformation_constant(pair, P14), 5.2, 1e-10)
    grid = RadialGrid.uniform(60.0, 12001)
    dt = 1e-3

    def g(t):
        snap = reconstruct_fields(sol, pair, t, P14, grid=grid)
        return g_phi(snap, Quadratic(), P14)

    slack = 1e-3
    ok = True
    margin = math.inf
    for t in (0.05, 0.5, 1.0, 2.0, 3.5, 5.0):
        gpp = (g(t + dt) - 2.0 * g(t) + g(t - dt)) / dt**2
        snap = reconstruct_fields(sol, pair, t, P14, grid=grid)
        E = conserved(snap, P14).e_total
        lo = P14.n * (P14.gamma - 1.0) * E
        hi = 2.0 * E
        ok = ok and lo * (1.0 - slack) <= gpp <= hi * (1.0 + slack)
        margin = min(margin, (gpp - lo) / E, (hi - gpp) / E)
    report(capfd, "03 second-derivative bounds", ok, f"min bound margin {margin:.3e} E over t in [0, 5]")


def test_04_zero_forcing_analytic(capfd):
    # K = 0 collapses the deformation equation to a' = -a^2, a(t) = 1/(1+t)
    sol = integrate_deformation(DeformationODE(K=0.0, m_exp=4.0, a0=1.0), 10.0, 1e-10)
    err = max(abs(sol.a_at(float(t)) - 1.0 / (1.0 + t)) for t in np.linspace(0.0, 10.0, 101))
    report(capfd, "04 zero-forcing analytic case", err < 1e-8, f"max |a - 1/(1+t)| = {err:.3e} < 1e-08")


def test_05_long_time_decay(capfd):
    sol = integrate_deformation(DeformationODE(K=1.0, m_exp=4.0, a0=0.0), 1.0e4, 1e-10)
    ta = np.array([t * sol.a_at(float(t)) for t in np.geomspace(1e3, 1e4, 30)])
    in_band = bool(np.all((ta >= 0.9) & (ta <= 1.1)))

    # exact oracle: from rest, a' = -a^2 + e^(-4b), b' = a is the Ermakov-Pinney
    # equation, solved by e^(2b) = 1 + t^2 and a = t / (1 + t^2)
    a, b = 10.0 / 101.0, 0.5 * math.log(101.0)
    rel_a = abs(sol.a_at(10.0) - a) / abs(a)
    rel_b = abs(sol.b_at(10.0) - b) / abs(b)
    ok = in_band and rel_a < 1e-6 and rel_b < 1e-6
    report(
        capfd,
        "05 long-time decay",
        ok,
        f"t*a in [{ta.min():.6f}, {ta.max():.6f}], closed-form agreement rel ({rel_a:.2e}, {rel_b:.2e})",
    )


def test_06_compatibility_constant(capfd, gauss_pair, gauss_ode, gauss_sol):
    res = check_compatibility(gauss_pair, P3)
    grid = RadialGrid.uniform(40.0, 8001)
    dt = 1e-3
    g = [
        g_phi(reconstruct_fields(gauss_sol, gauss_pair, t, P3, grid=grid), Quadratic(), P3)
        for t in (0.0, dt, 2.0 * dt)
    ]
    # G' = 2 a G gives a(dt) ~ (G(2dt) - G(0)) / (4 dt G(dt)); with a(0) = 0
    # and a''(0) = 0 the slope a(dt)/dt recovers a'(0) = K to O(dt^2)
    k_fd = (g[2] - g[0]) / (4.0 * dt * g[1]) / dt
    rel = abs(k_fd - gauss_ode.K) / gauss_ode.K
    ok = res < 1e-6 and rel < 1e-4
    report(capfd, "06 compatibility constant", ok, f"profile residual {res:.3e}, K mismatch rel {rel:.3e}")


def test_07_reconstruction_residual_order(capfd, gauss_pair, gauss_sol):
    reports = {}
    for num, dt in ((801, 0.01), (1601, 0.005)):
        grid = RadialGrid.uniform(4.0, num)
        times = 0.5 + dt * np.arange(-2, 3)
        series = [reconstruct_fields(gauss_sol, gauss_pair, float(t), P3, grid=grid) for t in times]
        reports[num] = pde_residual(series, P3)
    rc = reports[801].continuity / reports[1601].continuity
    rp = reports[801].pressure / reports[1601].pressure
    ok = 3.0 <= rc <= 5.0 and 3.0 <= rp <= 5.0
    report(capfd, "07 residual order", ok, f"halving ratios continuity {rc:.2f}, pressure {rp:.2f} in [3, 5]")


def test_08_solver_convergence(capfd):
    pair = build_balanced_profiles(GaussianShape(), P3)
    sol = integrate_deformation(deformation_constant(pair, P3), 0.6, 1e-10)
    t_end = 0.5
    errs, drifts = [], []
    for cells in (100, 200, 400):
        grid = cell_centered_grid(8.0, cells)
        r = grid.r
        snap = FlowSnapshot(grid, pair.eval_rho0(r), np.zeros(cells), pair.eval_p0(r), t=0.0)
        result = run(snap, t_end, SolverConfig(cfl=0.45, flux="rusanov"), P3)
        exact = reconstruct_fields(sol, pair, t_end, P3, grid=grid)
        edges = np.arange(cells + 1) * (8.0 / cells)
        vol = (edges[1:] ** 3 - edges[:-1] ** 3) / 3.0
        errs.append(float(np.sum(vol * np.abs(result.final_state.rho - exact.rho))))
        log = result.log
        drifts.append(abs(log["mass"][-1] + log["mass_out"][-1] - log["mass"][0]) / log["mass"][0])
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = errs[0] > errs[1] > errs[2] and min(orders) >= 0.8 and max(drifts) < 1e-10
    report(
        capfd,
        "08 solver convergence",
        ok,
        f"L1 orders {orders[0]:.2f}/{orders[1]:.2f} >= 0.8, mass drift {max(drifts):.2e} < 1e-10",
    )


def test_09_nonexistence_certificate(capfd):
    one = ConstEnvelope(1.0)
    slow = DecayClassSpec(
        class_tag="K_NS0",
        alpha=(-3.0, -4.0, -5.5, -3.5, -3.0),
        M_v=one,
        M_Dv=one,
        M_rho=one,
        M_p=one,
        M_theta=one,
        R0=1.0,
        epsilon=0.5,
    )
    certs = [
        contradiction_time(slow, 1.0, 1.0, 0.0, 1.0, 100.0, P3, scan_points=pts) for pts in (400, 801)
    ]
    found = all(c.contradiction and c.t_star is not None and math.isfinite(c.t_star) for c in certs)
    stable = found and abs(certs[0].t_star - certs[1].t_star) / certs[1].t_star <= 1e-4
    fast = dataclasses.replace(slow, M_v=PowerEnvelope(4.1, 3.1), M_rho=PowerEnvelope(1.0, 3.0))
    cert_f = contradiction_time(fast, 1.0, 1.0, 0.0, 1.0, 1.0e6, P3)
    ok = found and stable and not cert_f.contradiction and cert_f.t_star is None
    report(
        capfd,
        "09 nonexistence certificate",
        ok,
        f"t* = {certs[0].t_star:.6f} stable under refinement, growing envelopes -> {cert_f.verdict}",
    )


def test_10_material_boundary(capfd):
    # advected sphere must scale by e^b, the exact material stretch
    ode = DeformationODE(K=1.0, m_exp=4.0, a0=0.0)
    sol = integrate_deformation(ode, 1.2, 1e-10)
    vol = MaterialVolume.sphere_surface(np.zeros(3), 0.8)
    for _ in range(1000):
        vol = advect(vol, lambda t, x: sol.a_at(t) * np.asarray(x, dtype=float), 1e-3)
    radii = np.linalg.norm(vol.points, axis=-1)
    target = 0.8 * math.exp(sol.b_at(1.0))
    rel_adv = float(np.max(np.abs(radii - target))) / target

    # constant pressure on an interval, probe outside: the two endpoint
    # contributions cancel exactly
    seg = MaterialVolume.interval(1.0, 2.0)
    flux1 = boundary_pressure_flux(seg, lambda x: np.full(x.shape[:-1], 5.0), np.array([0.0]))

    # sphere flux vs divergence-theorem quadrature of the same integrand
    e1 = np.array([1.0, 0.3, -0.2])
    x0 = np.array([2.5, 0.0, 0.0])

    def pressure(x):
        x = np.asarray(x, dtype=float)
        return 3.0 + 0.5 * (x @ e1) + 0.2 * np.sum(x * x, axis=-1)

    def divergence(x):
        x = np.asarray(x, dtype=float)
        u = x - x0
        dist = np.linalg.norm(u, axis=-1)
        grad = 0.5 * e1 + 0.4 * x
        return np.sum(grad * u, axis=-1) / dist + pressure(x) * 2.0 / dist

    sphere = MaterialVolume.sphere_surface(np.zeros(3), 1.0)
    flux3 = boundary_pressure_flux(sphere, pressure, x0)
    oracle = interior_integral(sphere, divergence)
    rel3 = abs(flux3 - oracle) / abs(oracle)
    ok = rel_adv <= 1e-6 and flux1 == 0.0 and rel3 <= 0.02
    report(
        capfd,
        "10 material boundary",
        ok,
        f"advection rel {rel_adv:.2e} <= 1e-06, interval flux {flux1!r}, sphere vs oracle rel {rel3:.2e}",
    )


def test_11_route_coincidence(capfd, gauss_pair, gauss_ode):
    # weighted momentum under r^(2-n): the r^(n-1) area factor cancels to r
    r = gauss_pair.grid.r
    w = trapezoid_weights(r)
    g0 = sphere_area(P3.n) * float(w @ (gauss_pair.rho0 * r))
    ode2 = excluding_pressure_constant(float(gauss_pair.p0[0]), g0, P3)
    matched = dataclasses.replace(ode2, K=gauss_ode.K)
    sol_a = integrate_deformation(gauss_ode, 3.0, 1e-9)
    sol_b = integrate_deformation(matched, 3.0, 1e-9)
    ok = (
        np.array_equal(sol_a.t_grid, sol_b.t_grid)
        and np.array_equal(sol_a.a_samples, sol_b.a_samples)
        and np.array_equal(sol_a.b_samples, sol_b.b_samples)
    )
    report(capfd, "11 route coincidence", ok, "matched constants give bit-identical trajectories")
