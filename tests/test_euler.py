"""Gas-dynamics contracts: state maps, fluxes, and the exact Riemann solution.

The star-pressure oracle is an independent bisection on the standard pressure
function; the wave-structure oracle is an integral conservation balance of the
sampled solution.  The reference statistics' row blocks are checked bitwise
against the one-shot sample they replace.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fipm.basis import gauss_rule
from fipm.errors import VacuumError
from fipm.euler import (
    REFERENCE_BLOCK,
    REFERENCE_NODES,
    EulerEntropy,
    UncertainShockIC,
    exact_riemann,
    reference_statistics,
)
from fipm.solver import rusanov

GAMMA = 1.4
SOD_L = np.array([1.0, 0.0, 1.0])  # primitive (rho, v, p)
SOD_R = np.array([0.125, 0.0, 0.1])
MODEL = EulerEntropy(GAMMA)


def sod_ic(x0, sigma):
    """The Sod data SOD_L | SOD_R with the interface at x0 + sigma * xi."""
    return UncertainShockIC(SOD_L[0], SOD_L[2], SOD_R[0], SOD_R[2], x0, sigma)


def primitive_from_conserved(u, gamma=GAMMA):
    """(rho, m, E_t) -> (rho, v, p), the inverse of EulerEntropy.conserved."""
    u = np.asarray(u, dtype=float)
    p = (gamma - 1.0) * (u[..., 2] - 0.5 * u[..., 1] ** 2 / u[..., 0])
    return np.stack([u[..., 0], u[..., 1] / u[..., 0], p], axis=-1)


def side_pressure_fn(p, rho_k, p_k, gamma):
    """Independent implementation of the one-sided pressure function."""
    c = np.sqrt(gamma * p_k / rho_k)
    if p > p_k:
        a = 2.0 / ((gamma + 1) * rho_k)
        b = (gamma - 1) / (gamma + 1) * p_k
        return (p - p_k) * np.sqrt(a / (p + b))
    return 2 * c / (gamma - 1) * ((p / p_k) ** ((gamma - 1) / (2 * gamma)) - 1)


def star_pressure_bisect(prim_l, prim_r, gamma):
    """Bisection oracle for the star pressure."""

    def f(p):
        return (
            side_pressure_fn(p, prim_l[0], prim_l[2], gamma)
            + side_pressure_fn(p, prim_r[0], prim_r[2], gamma)
            + (prim_r[1] - prim_l[1])
        )

    lo, hi = 1e-12, 10.0
    while f(hi) < 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestStateMaps:
    def test_pressure_hand_value(self):
        # at rest the momentum flux is the pressure, 0.4 * 2.5
        assert MODEL.flux(np.array([1.0, 0.0, 2.5]))[1] == pytest.approx(1.0, abs=1e-15)

    def test_sod_conserved_states(self):
        assert MODEL.conserved(SOD_L) == pytest.approx([1.0, 0.0, 2.5], abs=1e-15)
        assert MODEL.conserved(SOD_R) == pytest.approx([0.125, 0.0, 0.25], abs=1e-15)

    @given(
        rho=st.floats(1e-3, 1e3),
        v=st.floats(-100.0, 100.0),
        p=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_primitive_round_trip(self, rho, v, p):
        w = np.array([rho, v, p])
        u = MODEL.conserved(w)
        assert MODEL.admissible(u)
        # recovery of p from E_t - m^2/(2 rho) cancels digits at high Mach
        assert primitive_from_conserved(u) == pytest.approx(w, rel=1e-7, abs=1e-9)

    def test_flux_hand_value(self):
        # u = (1, 2, 5): v = 2, p = 0.4 * (5 - 2) = 1.2
        assert MODEL.flux(np.array([1.0, 2.0, 5.0])) == pytest.approx(
            [2.0, 5.2, 12.4], abs=1e-14
        )

    def test_wavespeeds_of_sod_states(self):
        assert MODEL.max_speed(MODEL.conserved(SOD_L)) == pytest.approx(
            1.1832159566199232, abs=1e-14
        )
        assert MODEL.max_speed(MODEL.conserved(SOD_R)) == pytest.approx(
            1.0583005244258363, abs=1e-14
        )

    def test_admissibility(self):
        assert MODEL.admissible(np.array([1.0, 0.0, 2.5]))
        assert not MODEL.admissible(np.array([-1.0, 0.0, 2.5]))
        assert not MODEL.admissible(np.array([1.0, 3.0, 2.5]))  # e_int = 2.5 - 4.5 < 0
        assert not MODEL.admissible(np.array([0.0, 0.0, 1.0]))
        assert not MODEL.admissible(np.array([np.nan, 0.0, 1.0]))
        flags = MODEL.admissible(np.array([[1.0, 0.0, 2.5], [1.0, 0.0, -1.0]]))
        assert flags.tolist() == [True, False]


class TestEulerModel:
    @pytest.mark.parametrize("gamma", [1.0, 0.5, -1.4])
    def test_gamma_at_most_one_rejected(self, gamma):
        with pytest.raises(ValueError, match=f"gamma must exceed 1, got {gamma}"):
            EulerEntropy(gamma)

    def test_march_maps_use_the_model_gamma(self):
        """Flux and wave speed against the primitive-variable formulas at gamma = 5/3."""
        gamma = 5 / 3
        rho, v, p = np.array([[0.7, 1.1], [0.3, -0.4], [1.2, 0.6]])
        e_t = p / (gamma - 1.0) + 0.5 * rho * v**2
        u = np.stack([rho, rho * v, e_t], axis=-1)
        model = EulerEntropy(gamma)
        expected = np.stack([rho * v, rho * v**2 + p, v * (e_t + p)], axis=-1)
        np.testing.assert_allclose(model.flux(u), expected, rtol=1e-14)
        speed = np.abs(v) + np.sqrt(gamma * p / rho)
        np.testing.assert_allclose(model.max_speed(u), speed, rtol=1e-14)
        assert model.admissible(u).tolist() == [True, True]
        # nan density or momentum, zero density at rest and moving, e_int = 1.5 - 2 < 0
        bad = [[np.nan, 0.0, 1.0], [1.0, np.nan, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0],
               [1.0, 2.0, 1.5]]
        assert not np.any(model.admissible(np.array(bad)))


class TestNumericalFlux:
    """The Rusanov flux of the moment solver on Euler states."""

    def test_consistency(self):
        u = MODEL.conserved(np.array([0.7, 0.3, 1.2]))
        assert rusanov(u, u, MODEL) == pytest.approx(MODEL.flux(u), abs=1e-14)

    def test_hand_value_sod_interface(self):
        u_l = MODEL.conserved(SOD_L)
        u_r = MODEL.conserved(SOD_R)
        s = 1.1832159566199232  # the larger of the two sound speeds
        expected = 0.5 * (MODEL.flux(u_l) + MODEL.flux(u_r)) - 0.5 * s * (u_r - u_l)
        assert rusanov(u_l, u_r, EulerEntropy()) == pytest.approx(expected, abs=1e-14)

    def test_batched(self):
        rng = np.random.default_rng(2)
        w = np.abs(rng.normal(size=(6, 3))) + 0.1
        u = MODEL.conserved(w)
        out = rusanov(u[:-1], u[1:], EulerEntropy())
        for j in range(5):
            assert out[j] == pytest.approx(rusanov(u[j], u[j + 1], EulerEntropy()), abs=1e-14)


#: Sod (rarefaction, shock), Toro's 123 problem (two rarefactions) and the
#: collision of Toro's test 5 (two shocks)
WAVE_CASES = {
    "sod": (SOD_L, SOD_R),
    "123": (np.array([1.0, -2.0, 0.4]), np.array([1.0, 2.0, 0.4])),
    "two-shocks": (np.array([5.99924, 19.5975, 460.894]), np.array([5.99242, -6.19633, 46.0950])),
}


def side_wave(sol, prim, sign):
    """(is_shock, head, tail) of the wave on one side (sign +1 left, -1 right),
    by the shock-speed and characteristic formulas of Toro, sections 4.4-4.5."""
    rho, v, p = prim
    c = np.sqrt(GAMMA * p / rho)
    ratio = sol.p_star / p
    if ratio > 1.0:
        speed = v - sign * c * np.sqrt(
            (GAMMA + 1.0) / (2.0 * GAMMA) * ratio + (GAMMA - 1.0) / (2.0 * GAMMA)
        )
        return True, speed, speed
    c_star = c * ratio ** ((GAMMA - 1.0) / (2.0 * GAMMA))
    return False, v - sign * c, sol.v_star - sign * c_star


class TestExactRiemann:
    @pytest.mark.parametrize("case", WAVE_CASES)
    def test_shock_edge_star_state_at_the_speed_data_one_ulp_ahead(self, case):
        prim_l, prim_r = WAVE_CASES[case]
        sol = exact_riemann(prim_l, prim_r, MODEL)
        shocks = 0
        for prim, sign in ((prim_l, 1.0), (prim_r, -1.0)):
            is_shock, speed, _ = side_wave(sol, prim, sign)
            if not is_shock:
                continue
            shocks += 1
            at, ahead = sol.sample(np.array([speed, np.nextafter(speed, -sign * np.inf)]))
            assert np.array_equal(ahead, prim)
            assert at[1] == sol.v_star and at[2] == sol.p_star
            # the density behind it satisfies the Rankine-Hugoniot mass balance
            mass_jump = at[0] * sol.v_star - prim[0] * prim[1]
            assert speed * (at[0] - prim[0]) == pytest.approx(mass_jump, rel=1e-12)
        assert shocks == {"sod": 1, "123": 0, "two-shocks": 2}[case]

    @pytest.mark.parametrize("case", WAVE_CASES)
    def test_fan_keeps_entropy_and_riemann_invariant(self, case):
        """Inside a fan p / rho^gamma and v + sign 2c/(gamma-1) keep their data
        values (sign +1 left, -1 right); the fan meets the data at its head."""
        prim_l, prim_r = WAVE_CASES[case]
        sol = exact_riemann(prim_l, prim_r, MODEL)
        fans = 0
        for prim, sign in ((prim_l, 1.0), (prim_r, -1.0)):
            is_shock, head, tail = side_wave(sol, prim, sign)
            if is_shock:
                continue
            fans += 1
            rho, v, p = sol.sample(np.linspace(head, tail, 203)[:-1]).T
            c_k = np.sqrt(GAMMA * prim[2] / prim[0])
            invariant = prim[1] + sign * 2.0 * c_k / (GAMMA - 1.0)
            c = np.sqrt(GAMMA * p / rho)
            assert p / rho**GAMMA == pytest.approx(prim[2] / prim[0] ** GAMMA, rel=1e-12)
            assert v + sign * 2.0 * c / (GAMMA - 1.0) == pytest.approx(invariant, rel=1e-12)
            assert np.array_equal(sol.sample(np.nextafter(head, -sign * np.inf)), prim)
            assert sol.sample(head) == pytest.approx(prim, rel=1e-12, abs=1e-15)
        assert fans == {"sod": 1, "123": 2, "two-shocks": 0}[case]

    def test_nan_coordinate_gives_a_nan_row(self):
        s = np.full((50, 4), np.nan)
        s[:, 1] = np.linspace(-2.0, 2.0, 50)
        w = exact_riemann(SOD_L, SOD_R, MODEL).sample(s)
        assert np.all(np.isnan(np.delete(w, 1, axis=1)))
        assert np.all(np.isfinite(w[:, 1]))

    def test_sod_star_state_frozen(self):
        sol = exact_riemann(SOD_L, SOD_R, MODEL)
        # classical published values for the Sod tube
        assert sol.p_star == pytest.approx(0.30313, rel=1e-4)
        assert sol.v_star == pytest.approx(0.92745, rel=1e-4)

    def test_star_pressure_against_bisection_oracle(self):
        cases = [
            (SOD_L, SOD_R),
            (np.array([1.0, 0.0, 1.0]), np.array([0.8, 0.0, 0.8])),
            (np.array([1.0, -0.5, 1.0]), np.array([1.0, 0.5, 1.0])),  # two rarefactions
            (np.array([1.0, 0.5, 1.0]), np.array([1.0, -0.5, 1.0])),  # two shocks
            (np.array([5.99924, 19.5975, 460.894]), np.array([5.99242, -6.19633, 46.0950])),
        ]
        for prim_l, prim_r in cases:
            sol = exact_riemann(prim_l, prim_r, MODEL)
            assert sol.p_star == pytest.approx(
                star_pressure_bisect(prim_l, prim_r, GAMMA), rel=1e-10
            )

    @pytest.mark.parametrize("case", WAVE_CASES)
    def test_star_pressure_at_five_thirds_against_bisection_oracle(self, case):
        prim_l, prim_r = WAVE_CASES[case]
        sol = exact_riemann(prim_l, prim_r, EulerEntropy(5 / 3))
        oracle = star_pressure_bisect(prim_l, prim_r, 5 / 3)
        assert sol.p_star == pytest.approx(oracle, rel=1e-10)

    def test_sod_star_densities(self):
        sol = exact_riemann(SOD_L, SOD_R, MODEL)
        eps = 1e-9
        left_of_contact = sol.sample(np.array([sol.v_star - eps]))[0]
        right_of_contact = sol.sample(np.array([sol.v_star + eps]))[0]
        assert left_of_contact[0] == pytest.approx(0.42632, rel=1e-4)
        assert right_of_contact[0] == pytest.approx(0.26557, rel=1e-4)
        # velocity and pressure are continuous across the contact
        assert left_of_contact[1] == pytest.approx(sol.v_star, abs=1e-7)
        assert right_of_contact[2] == pytest.approx(sol.p_star, abs=1e-7)

    def test_far_field_states(self):
        sol = exact_riemann(SOD_L, SOD_R, MODEL)
        assert sol.sample(np.array([-10.0]))[0] == pytest.approx(SOD_L, abs=1e-14)
        assert sol.sample(np.array([10.0]))[0] == pytest.approx(SOD_R, abs=1e-14)

    def test_integral_conservation_of_sampled_solution(self):
        # d/dt int u dx = f(u_L) - f(u_R) over a domain containing all waves
        t = 0.2
        xs = np.linspace(-1.0, 1.0, 400_001)
        sol = exact_riemann(SOD_L, SOD_R, MODEL)
        states = sol.sample_conserved(xs / t)
        integral = np.trapezoid(states, xs, axis=0)
        u_l = MODEL.conserved(SOD_L)
        u_r = MODEL.conserved(SOD_R)
        expected = u_l + u_r + t * (MODEL.flux(u_l) - MODEL.flux(u_r))
        assert integral == pytest.approx(expected, abs=5e-4)

    def test_symmetric_problem_is_mirror_symmetric(self):
        prim_l = np.array([1.0, 0.5, 1.0])
        prim_r = np.array([1.0, -0.5, 1.0])
        sol = exact_riemann(prim_l, prim_r, MODEL)
        assert sol.v_star == pytest.approx(0.0, abs=1e-12)
        s = np.linspace(-2, 2, 101)
        w = sol.sample(s)
        assert w[:, 0] == pytest.approx(w[::-1, 0], abs=1e-10)
        assert w[:, 1] == pytest.approx(-w[::-1, 1], abs=1e-10)

    def test_vacuum_detection(self):
        with pytest.raises(VacuumError):
            exact_riemann(np.array([1.0, -10.0, 1.0]), np.array([1.0, 10.0, 1.0]), MODEL)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            exact_riemann(np.array([-1.0, 0.0, 1.0]), SOD_R, MODEL)


def one_shot_reference(xs, t, x0, sigma, prim_l, prim_r, model=MODEL):
    """reference_statistics as one (len(xs), REFERENCE_NODES, 3) sample: the oracle of its blocks."""
    sol = exact_riemann(prim_l, prim_r, model)
    rule = gauss_rule(REFERENCE_NODES)
    shifts = x0 + sigma * rule.nodes
    if t > 0:
        states = sol.sample_conserved((xs[:, None] - shifts[None, :]) / t)
    else:
        left = model.conserved(prim_l)
        right = model.conserved(prim_r)
        states = np.where((xs[:, None] < shifts[None, :])[..., None], left, right)
    mean = np.einsum("r,xrk->xk", rule.weights, states)
    second = np.einsum("r,xrk->xk", rule.weights, states**2)
    return mean, np.maximum(second - mean**2, 0.0)


class TestReferenceStatistics:
    def test_deterministic_interface_has_no_variance(self):
        xs = np.linspace(0.0, 1.0, 101)
        mean, var = reference_statistics(xs, 0.14, sod_ic(0.5, 0.0), MODEL)
        assert np.max(var) == pytest.approx(0.0, abs=1e-12)
        sol = exact_riemann(SOD_L, SOD_R, MODEL)
        expected = sol.sample_conserved((xs - 0.5) / 0.14)
        assert mean == pytest.approx(expected, abs=1e-12)

    def test_initial_time_matches_bernoulli_mixture(self):
        xs = np.linspace(0.0, 1.0, 201)
        x0, sigma = 0.5, 0.05
        mean, var = reference_statistics(xs, 0.0, sod_ic(x0, sigma), MODEL)
        u_l = MODEL.conserved(SOD_L)
        u_r = MODEL.conserved(SOD_R)
        xi_star = np.clip((xs - x0) / sigma, -1.0, 1.0)
        p_left = (1.0 - xi_star) / 2.0
        mean_exact = p_left[:, None] * u_l + (1 - p_left)[:, None] * u_r
        var_exact = (p_left * (1 - p_left))[:, None] * (u_l - u_r) ** 2
        # the 100-point Gauss rule resolves the indicator to ~1% of the jump;
        # the momentum jump is zero, so normalize it away
        scale = np.where(np.abs(u_l - u_r) > 0, np.abs(u_l - u_r), 1.0)
        assert np.max(np.abs(mean - mean_exact) / scale) < 0.02
        assert np.max(np.abs(var - var_exact) / scale**2) < 0.02

    def test_variance_confined_to_uncertainty_cone(self):
        xs = np.linspace(0.0, 1.0, 401)
        mean, var = reference_statistics(xs, 0.14, sod_ic(0.5, 0.05), MODEL)
        sol = exact_riemann(SOD_L, SOD_R, MODEL)
        # fastest waves: rarefaction head (left), shock (right)
        c_l = np.sqrt(GAMMA * SOD_L[2] / SOD_L[0])
        lo = 0.5 - 0.05 - c_l * 0.14 - 1e-9
        hi = 0.5 + 0.05 + 2.0 * 0.14  # shock speed < 2
        outside = (xs < lo) | (xs > hi)
        assert np.max(var[outside]) == pytest.approx(0.0, abs=1e-12)
        assert np.max(var) > 1e-3

    @pytest.mark.parametrize("t", [0.0, 0.14])
    def test_far_field_rows_are_the_data_at_five_thirds(self, t):
        """Beyond the fastest waves (left head speed sqrt(5/3) < 1.3, shock speed < 2)
        every node samples one data state, conserved at the model's gamma."""
        model = EulerEntropy(5 / 3)
        xs = np.array([0.05, 0.2, 0.85, 1.0])
        mean, var = reference_statistics(xs, t, sod_ic(0.5, 0.05), model)
        data = model.conserved(np.array([SOD_L, SOD_L, SOD_R, SOD_R]))
        assert data[0, 2] == 1.0 / (5 / 3 - 1.0)
        assert mean == pytest.approx(data, rel=1e-15, abs=0)
        # the 100 Gauss weights sum to 1 - 4e-16, so the variance keeps a rounding residue
        assert var == pytest.approx(np.zeros_like(var), abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.14])
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize(
        "n_x", [0, 1, REFERENCE_BLOCK - 1, REFERENCE_BLOCK, REFERENCE_BLOCK + 1, 401]
    )
    def test_blocks_match_the_one_shot_sample_bitwise(self, n_x, sigma, t):
        xs = (np.arange(n_x) + 0.5) / max(n_x, 1)
        mean, var = reference_statistics(xs, t, sod_ic(0.5, sigma), MODEL)
        want_mean, want_var = one_shot_reference(xs, t, 0.5, sigma, SOD_L, SOD_R)
        assert mean.shape == var.shape == (n_x, 3)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(var, want_var)

    @pytest.mark.parametrize("t", [0.0, 0.14])
    def test_traced_peak_does_not_grow_with_the_grid(self, t):
        """The bound is half of one (n_x, REFERENCE_NODES, 3) float sample, 2.29 MiB at
        2000 cells: the one-shot sample and its temporaries peaked at 13.7 (t > 0) and
        9.4 MiB (t = 0), the blocks at about 0.4 MiB (the outputs and one block's sample)."""
        n_x = 2000
        xs = (np.arange(n_x) + 0.5) / n_x
        reference_statistics(xs[:1], t, sod_ic(0.5, 0.05), MODEL)  # keep one-time setup out of the trace
        tracemalloc.start()
        try:
            reference_statistics(xs, t, sod_ic(0.5, 0.05), MODEL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n_x * REFERENCE_NODES * 3 * 8
