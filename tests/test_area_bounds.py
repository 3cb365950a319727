import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from thinpart import DomainError
from thinpart.area_bounds import (
    MARGULIS_EPSILON_LOWER,
    BandEstimate,
    ProjectionReport,
    annulus_band_bound,
    crossing_chain_value,
    crossing_lower_bound,
    margulis_area_bound,
    parallel_disk_area,
    projection_contraction_check,
    simplified_crossing_constant,
)


def test_parallel_disk_values():
    assert parallel_disk_area(0.0) == 0.0
    assert parallel_disk_area(2.0) == pytest.approx(17.355387381771437, rel=1e-12)
    with pytest.raises(DomainError):
        parallel_disk_area(-0.1)


def test_parallel_disk_against_quadrature():
    # Oracle: area of the disk r <= R in the metric sinh^2 r dtheta^2 + dr^2.
    for R in (0.5, 2.0, 5.0):
        oracle, err = quad(lambda r: 2.0 * math.pi * math.sinh(r), 0.0, R,
                           epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        assert parallel_disk_area(R) == pytest.approx(oracle, rel=1e-10)


def test_parallel_disk_below_boundary_area_scale():
    for R in np.linspace(0.1, 8.0, 40):
        assert parallel_disk_area(R) < 2.0 * math.pi * math.sinh(R) * math.cosh(R)


def test_projection_contraction():
    rep = projection_contraction_check(0.01, np.linspace(0.05, 3.0, 50))
    assert rep.contraction
    assert rep.max_singular_value == pytest.approx(1.0, abs=1e-12)
    z_dir, theta_dir, r_dir = rep.per_direction_max
    assert z_dir == 0.0
    assert theta_dir == pytest.approx(1.0, abs=1e-12)
    assert r_dir == pytest.approx(1.0, abs=1e-12)


def test_projection_contraction_far_and_near_the_core():
    # Stretches are ratios of lengths: cosh(400)^2 overflows a float, but
    # cosh(400) and sinh(400) do not, and sinh(1e-200) does not underflow
    # to 0 the way its square does.  Every singular value is exactly 0 or 1.
    for radii in ([400.0], [710.0], [1e-200], np.linspace(0.05, 3.0, 50)):
        rep = projection_contraction_check(0.01, radii)
        assert rep == ProjectionReport(1.0, (0.0, 1.0, 1.0), len(radii))
    # From r = 710.48 sinh r overflows: the first such radius is named by
    # its index.
    with pytest.raises(DomainError, match=r"^radius grid entry 1 = 800\.0 overflows sinh r$"):
        projection_contraction_check(0.01, [1.0, 800.0, 900.0])


def test_band_bound_example():
    e = BandEstimate(rho1=3.0, rho2=4.0, systole_bound=1.0, tube_radius=10.0)
    bound, intermediate = annulus_band_bound(e)
    assert intermediate == pytest.approx(1.5682990150322249e-3, rel=1e-12)
    assert bound == pytest.approx(intermediate, rel=1e-12)
    zero = annulus_band_bound(BandEstimate(2.0, 2.0, 0.5, 10.0))[0]
    assert zero == 0.0


def test_band_bound_two_forms_agree_randomized():
    # The bound is the product form 2 s0 cosh((rho1+rho2)/2)
    # sinh((rho2-rho1)/2) / sinh RL, evaluated in this order bit for bit,
    # returned twice, and equal to the sinh-difference form
    # (s0 / sinh RL)(sinh rho2 - sinh rho1) where that form does not cancel.
    rng = np.random.RandomState(77)
    for _ in range(10000):
        RL = float(rng.uniform(1.0, 12.0))
        rho1 = float(rng.uniform(0.0, RL - 0.02))
        rho2 = float(rng.uniform(rho1 + 0.01, RL))
        s0 = float(rng.uniform(0.05, 1.0))
        bound, intermediate = annulus_band_bound(BandEstimate(rho1, rho2, s0, RL))
        assert bound == (2.0 * s0 / math.sinh(RL) * math.cosh(0.5 * (rho1 + rho2))
                         * math.sinh(0.5 * (rho2 - rho1)))
        assert intermediate == bound
        difference = s0 / math.sinh(RL) * (math.sinh(rho2) - math.sinh(rho1))
        assert abs(bound - difference) <= 1e-12 * bound


def test_band_bound_does_not_cancel_for_close_radii():
    # sinh rho2 - sinh rho1 keeps 9 of 16 digits at rho2 - rho1 = 1e-7; the
    # product form keeps them all: cosh(3) * 1e-7 / sinh(30).
    bound, intermediate = annulus_band_bound(BandEstimate(3.0, 3.0000001, 1.0, 30.0))
    exact = math.cosh(3.00000005) * 2.0 * math.sinh(0.5e-7) / math.sinh(30.0)
    assert bound == intermediate == pytest.approx(exact, rel=1e-15)


def test_band_bound_matches_exact_curve_integral():
    # A closed curve running straight in the z direction on a rectangular
    # boundary lattice: z' constant, theta' = 0, unit speed at r = RL.
    # The swept band has exact area integral(cosh r * |z'|) and the
    # intermediate bound is attained up to tanh(RL).
    RL, rho1, rho2, s0 = 10.0, 3.0, 4.0, 1.0
    zprime = 1.0 / math.cosh(RL)  # unit speed: cosh(RL) z' = 1
    exact, _ = quad(lambda r: s0 * math.cosh(r) * zprime, rho1, rho2,
                    epsabs=1e-14, epsrel=1e-14)
    _, intermediate = annulus_band_bound(BandEstimate(rho1, rho2, s0, RL))
    assert exact == pytest.approx(intermediate, rel=1e-8)


def test_band_estimate_validation():
    with pytest.raises(DomainError):
        BandEstimate(2.0, 1.0, 0.5, 10.0)
    with pytest.raises(DomainError):
        BandEstimate(1.0, 2.0, 1.5, 10.0)
    with pytest.raises(DomainError):
        BandEstimate(1.0, 2.0, 0.5, 1.5)


def test_crossing_chain_example():
    # R = 5, RL = 10, s0 = 1, kappa'' = 1.
    cb = crossing_lower_bound(5.0, 10.0, 1.0)
    assert cb.chain == pytest.approx(2.5622258012358252e-3, rel=1e-12)
    assert cb.kappa2 == 1.0
    assert cb.simplified == pytest.approx(
        cb.kappa3 * math.exp(5.0 - 10.0), rel=1e-12
    )
    # The chain degenerates at the extension level R = 3/2.
    assert crossing_chain_value(1.5, 10.0, 1.0) == 0.0


def test_crossing_chain_dominates_simplified_form():
    for RL in (4.0, 7.0, 12.0):
        for R in np.linspace(3.0, RL, 25):
            cb = crossing_lower_bound(float(R), RL, 1.0)
            assert cb.chain >= cb.simplified * (1.0 - 1e-12)


def test_crossing_monotone_in_R():
    RL = 9.0
    vals = [crossing_lower_bound(float(R), RL, 0.7).chain
            for R in np.linspace(3.0, RL, 30)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_crossing_domain_errors():
    with pytest.raises(DomainError):
        crossing_lower_bound(2.0, 10.0, 1.0)
    with pytest.raises(DomainError):
        crossing_lower_bound(5.0, 4.0, 1.0)
    with pytest.raises(DomainError):
        crossing_lower_bound(5.0, 10.0, 2.0)


def test_nonfinite_inputs_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="must be finite"):
            crossing_lower_bound(bad, bad, 1.0)
        with pytest.raises(DomainError, match="must be finite"):
            simplified_crossing_constant(bad)
        with pytest.raises(DomainError):
            projection_contraction_check(0.01, [0.5, bad])
        with pytest.raises(DomainError, match="must be finite"):
            projection_contraction_check(bad, [0.5])
    with pytest.raises(DomainError):
        simplified_crossing_constant(0.0)


def test_crossing_chain_does_not_cancel_near_the_extension_level():
    # cosh R - cosh(3/2) is read as 2 sinh((R + 3/2)/2) sinh((R - 3/2)/2):
    # at R = 3/2 + 1e-9 it is sinh(3/2) 1e-9 to every digit.
    chain = crossing_chain_value(1.5 + 1e-9, 10.0, 1.0)
    exact = math.pi / 8.0 / math.cosh(10.0) * math.sinh(1.5) * ((1.5 + 1e-9) - 1.5)
    assert chain == pytest.approx(exact, rel=1e-8)
    assert crossing_chain_value(1.5 - 1e-9, 10.0, 1.0) == pytest.approx(-exact, rel=1e-8)


@pytest.mark.parametrize("call, message", [
    (lambda: parallel_disk_area(1e300), "R = 1e+300 overflows the disk area"),
    (lambda: parallel_disk_area(710.5), "R = 710.5 overflows the disk area"),
    (lambda: margulis_area_bound(1e300), "eps = 1e+300 overflows the disk area"),
    (lambda: margulis_area_bound(710.5), "eps = 710.5 overflows the disk area"),
    (lambda: annulus_band_bound(BandEstimate(1.0, 2.0, 1.0, 710.5)),
     "tube_radius = 710.5 overflows the band bound"),
    (lambda: annulus_band_bound(BandEstimate(0.0, 0.0, 1.0, 0.0)),
     "tube_radius = 0.0 overflows the band bound"),
    (lambda: crossing_lower_bound(3.0, 710.5, 1.0), "tube_radius = 710.5 overflows cosh RL"),
    (lambda: crossing_lower_bound(5.0, 10.0, 1.0, kappa2=5e-324),
     "kappa2 = 5e-324 overflows the crossing chain"),
    (lambda: crossing_chain_value(1500.0, 10.0, 1.0), "R = 1500.0 overflows the crossing chain"),
    (lambda: simplified_crossing_constant(5e-324), "kappa2 = 5e-324 overflows kappa'''"),
], ids=["disk-1e300", "disk-710.5", "margulis-1e300", "margulis-710.5", "band-RL-710.5",
        "band-RL-0", "crossing-RL", "crossing-kappa2", "chain-R", "kappa3"])
def test_a_bound_that_overflows_names_its_argument(call, message):
    # Every bound returns a finite float or raises this DomainError: never
    # an infinity, NaN or an OverflowError.
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_bounds_just_inside_the_float_range_are_finite():
    assert math.isfinite(parallel_disk_area(707.0))
    bound, _ = annulus_band_bound(BandEstimate(1.0, 2.0, 1.0, 710.0))
    assert 0.0 < bound < 1e-300
    assert math.isfinite(crossing_lower_bound(5.0, 10.0, 1.0, kappa2=1e-300).chain)


def test_crossing_below_parallel_disk_with_defaults():
    # With the default constants the transverse-crossing bound is the
    # stronger (smaller) one at equal R.
    for RL in (6.0, 10.0):
        for R in np.linspace(3.0, RL, 12):
            cb = crossing_lower_bound(float(R), RL, 1.0)
            assert cb.chain <= parallel_disk_area(float(R))
            assert cb.simplified <= parallel_disk_area(float(R))


def test_kappa2_override():
    base = crossing_lower_bound(5.0, 10.0, 1.0)
    halved = crossing_lower_bound(5.0, 10.0, 1.0, kappa2=2.0)
    assert halved.chain == pytest.approx(base.chain / 2.0, rel=1e-12)
    assert simplified_crossing_constant(2.0) == pytest.approx(
        simplified_crossing_constant() / 2.0, rel=1e-12
    )


def test_margulis_bound():
    assert margulis_area_bound(0.0) == 0.0
    assert margulis_area_bound(MARGULIS_EPSILON_LOWER) == pytest.approx(
        0.03401010401083358, rel=1e-12
    )
    assert margulis_area_bound(0.2) == pytest.approx(
        0.12608314406854076, rel=1e-12
    )
    assert MARGULIS_EPSILON_LOWER == 0.104
    with pytest.raises(DomainError):
        margulis_area_bound(-0.2)
