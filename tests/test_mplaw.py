import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq

import tensormp as t
from tensormp import mplaw
from tensormp.claims import CLAIMS, mp_cdf_closed_form
from tensormp.mplaw import (
    MPLaw,
    _integrand_theta,
    _theta_of_x,
    cdf,
    law_table_csv,
)
from tensormp.simulation import SpectrumSample


def _sample(nonzero, zeros=0):
    return SpectrumSample(
        nonzero_eigenvalues=np.asarray(nonzero, dtype=float),
        zero_multiplicity=zeros,
        trace_moments=(),
        seed=0,
        dims=(0, 0, 0),
    )


def quad_cdf(x, c, tol=1e-10):
    """Reference CDF by adaptive quadrature in theta, atom included."""
    law = MPLaw(c)
    if x < 0.0:
        return 0.0
    if x <= law.a:
        return law.atom
    theta_hi = float(_theta_of_x(law, np.array([x]))[0])
    val, err = integrate.quad(
        lambda th: float(_integrand_theta(law, np.array([th]))[0]),
        0.0,
        theta_hi,
        epsabs=tol,
        epsrel=tol,
        limit=200,
    )
    assert err <= 50 * tol
    return min(1.0, law.atom + val)


def test_law_parameters():
    law = MPLaw(0.25)
    assert law.a == pytest.approx(0.25)
    assert law.b == pytest.approx(2.25)
    assert law.atom == 0.75
    assert MPLaw(1.0).atom == 0.0
    assert MPLaw(4.0).atom == 0.0
    with pytest.raises(ValueError):
        MPLaw(0.0)
    with pytest.raises(ValueError):
        MPLaw(-1.0)


def test_density_values():
    # at c = 1 the density at x = 2 is 1/(2 pi)
    assert t.density(2.0, 1.0) == pytest.approx(1 / (2 * math.pi), abs=1e-15)
    assert t.density(2, 1.0) == t.density(2.0, 1.0) and t.cdf(2, 1.0) == t.cdf(2.0, 1.0)
    law = MPLaw(0.5)
    assert t.density(law.a - 1e-9, 0.5) == 0.0
    assert t.density(law.b + 1e-9, 0.5) == 0.0
    assert t.density(0.0, 0.25) == 0.0  # the atom is not part of the density
    mid = (law.a + law.b) / 2
    assert t.density(mid, 0.5) > 0


def test_cdf_values():
    # at c = 1: F(2) = 1/2 + 1/pi (integral of the quarter-circle half)
    assert t.cdf(2.0, 1.0) == pytest.approx(0.5 + 1 / math.pi, abs=1e-9)
    assert t.cdf(0.0, 0.25) == pytest.approx(0.75, abs=1e-12)
    assert t.cdf(-1.0, 0.25) == 0.0
    for c in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0):
        law = MPLaw(c)
        assert t.cdf(law.b + 1.0, c) == pytest.approx(1.0, abs=1e-8)
        assert t.cdf(law.b, c) - t.cdf(law.a, c) == pytest.approx(min(1.0, c), abs=1e-8)


def test_cdf_is_finite_at_the_largest_c():
    # at c = 1e308 the support is narrower than one ulp of b, so F steps from 0 to 1
    law = MPLaw(1e308)
    assert t.cdf(1.0, 1e308) == 0.0 and t.cdf(law.b, 1e308) == 1.0


def test_cdf_monotone():
    for c in (0.5, 1.0, 2.0):
        law = MPLaw(c)
        xs = np.linspace(-0.5, law.b + 0.5, 60)
        vals = [t.cdf(x, c) for x in xs]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_continuous_cdf_matches_scalar_cdf():
    # the Gauss-Legendre path, vector and scalar, against adaptive quad;
    # near c = 1 the density's 1/x varies on a theta scale of sqrt(a/(b - a))
    for c in (0.25, 0.9999, 1.0, 1.0001, 3.0):
        law = MPLaw(c)
        xs = np.linspace(law.a, law.b, 41)
        vec = cdf(xs, c)
        for x, v in zip(xs, vec):
            want = quad_cdf(x, c)
            assert v == pytest.approx(want, abs=1e-9)
            assert t.cdf(x, c) == pytest.approx(want, abs=1e-9)


# F(a + u (b - a)) at u = 1e-8, 1e-4, 0.01, 0.3, 0.7, 0.999 to 20 digits: mpmath
# tanh-sinh at 45 digits, once in theta and once in x, the two within 1e-40
CDF_REFERENCE = {
    0.9999: (1.8511587548881838301e-4, 0.012781626197763704356, 0.12715508069811194137,
             0.66076291269702670412, 0.9227295738832486307, 0.99998657551955956715),
    1 - 1e-6: (1.2782468637279045798e-4, 0.012732676879442578209, 0.12711186487553147428,
               0.66074611877065567665, 0.92272574864961501661, 0.99998657485498938308),
    1.0: (1.2732395426130967884e-4, 0.012732183237577625423, 0.12711142843046180461,
          0.66074594914354514634, 0.92272571001245437311, 0.99998657484827680315),
    1.0001: (8.5127858919812545827e-5, 0.012682899408130968646, 0.12706779184017111671,
             0.66072898729185591662, 0.92272184645423420294, 0.99998657417704439153),
    4.0: (6.7906105535716483945e-12, 6.7871496678031704593e-6, 0.0064628892741775781026,
          0.45573129913260833731, 0.86611283798094524108, 0.99997613465583430244),
}


@pytest.mark.parametrize("c", CDF_REFERENCE)
def test_cdf_matches_high_precision_reference(c):
    # near c = 1 one Gauss-Legendre segment from theta = 0 was off by 4e-5
    law = MPLaw(c)
    xs = np.array([law.a + u * law.width for u in (1e-8, 1e-4, 0.01, 0.3, 0.7, 0.999)])
    assert np.abs(cdf(xs, c) - CDF_REFERENCE[c]).max() <= 1e-14


@pytest.mark.parametrize("c", CDF_REFERENCE)
def test_closed_form_cdf_matches_high_precision_reference(c):
    # the oracle of the "law cdf" claim; its arcsin terms cancel at the edges,
    # so it is held away from them, as the claim's grid is
    law = MPLaw(c)
    xs = np.array([law.a + u * law.width for u in (1e-4, 0.01, 0.3, 0.7, 0.999)])
    assert np.abs(mp_cdf_closed_form(xs, c) - CDF_REFERENCE[c][1:]).max() <= 1e-14


def test_law_cdf_claim_catches_a_scaled_cdf(monkeypatch):
    claim = CLAIMS["law cdf equals closed form"]
    assert claim.run(1) is None
    monkeypatch.setattr(mplaw, "cdf", lambda xs, c, cdf=cdf: cdf(xs, c) * (1.0 + 1e-6))
    assert claim.run(1).startswith("c=0.0001 ")


def test_quadrature_zeroth_moment_is_continuous_mass():
    # c from 1e-8 to 1e300, c near 1 included
    assert CLAIMS["law mass"].run(1) is None


def test_ks_quantile_construction():
    # points placed at the (j + 1/2)/N quantiles of the continuous part
    # have sup deviation 1/(2N); the ks routine must not exceed it by much
    c = 0.5
    law = MPLaw(c)
    N = 200
    zeros = round(N * law.atom / (1 - law.atom))  # atom carried by zeros
    qs = law.atom + (1 - law.atom) * (np.arange(N) + 0.5) / N
    pts = np.array(
        [brentq(lambda x, q=q: t.cdf(x, c) - q, law.a - 1e-12, law.b + 1e-12) for q in qs]
    )
    ks = t.ks_distance(_sample(np.sort(pts), zeros=zeros), c)
    assert ks <= 1 / (2 * N) + 1e-3


def test_ks_pure_atom():
    # empirical law all at zero against c = 0.25: gap is the continuous mass
    # at 0+, i.e. 1 - 0.75 = 0.25
    ks = t.ks_distance(_sample([], zeros=10), 0.25)
    assert ks == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("c", [0.25, 0.5])
def test_ks_reads_the_capped_law_above_the_support(c):
    # zeros carry the atom 1 - c and the rest sits at 1.5 b, where the law
    # is exactly 1: the one gap is c, just below 1.5 b
    nonzero = round(4 * c)
    ks = t.ks_distance(_sample(np.full(nonzero, 1.5 * MPLaw(c).b), zeros=4 - nonzero), c)
    assert ks == c


def test_ks_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="empty sample"):
        t.ks_distance(_sample([], zeros=0), 0.5)


def test_ks_detects_shift():
    c = 0.5
    law = MPLaw(c)
    pts = np.full(50, law.b + 1.0)  # all mass above the support
    ks = t.ks_distance(_sample(pts), c)
    assert ks == pytest.approx(1.0, abs=1e-9)


def test_law_table_csv_contains_atom_row():
    law = MPLaw(0.25)
    xs = np.array([0.0, 1.0, law.b + 0.1])
    text = law_table_csv(0.25, xs)
    lines = text.strip().split("\n")
    assert lines[0] == "x,pdf,cdf"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(0.75, abs=1e-10)
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(1.0, abs=1e-8)


def test_law_table_adds_the_atom_row_itself():
    # the x = 0 row is the table's own whenever c < 1, and absent from c = 1 up
    first = law_table_csv(0.25, [1.0, 2.0]).splitlines()[1]
    assert first == "0.0,0.0,0.75"
    assert [row.split(",")[0] for row in law_table_csv(1.0, [1.0, 2.0]).splitlines()[1:]] == [
        "1.0", "2.0"
    ]


def test_cdf_and_density_keep_the_shape_of_their_input():
    # a number gives a float, an array an array of its shape with the values
    # of the single points
    for f in (t.cdf, t.density):
        assert type(f(1, 0.5)) is float and type(f(np.float64(1.0), 0.5)) is float
        for xs in (np.linspace(-0.5, 3.5, 7), np.linspace(-0.5, 3.5, 12).reshape(3, 4)):
            got = f(xs, 0.5)
            assert isinstance(got, np.ndarray) and got.shape == xs.shape
            assert got.ravel().tolist() == [f(x, 0.5) for x in xs.ravel().tolist()]


@pytest.mark.parametrize("c", [1e-8, 0.25, 1.0, 4.0, 1e8])
def test_law_table_rows_equal_scalar_density_and_cdf(c):
    # one vectorised density and CDF serve the table and the scalar calls;
    # the square root is taken inside the support only, so nothing warns.
    # Each CDF value is integrated from theta = 0 on its own, so the table
    # and the scalar call agree to the last digit.
    law = MPLaw(c)
    xs = np.unique(np.concatenate([np.linspace(-1.0, 1.1 * law.b, 41), [0.0, law.a, law.b]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = np.array([line.split(",") for line in law_table_csv(c, xs).splitlines()[1:]])
        pdf = [t.density(x, c) for x in xs.tolist()]
        cdf = [t.cdf(x, c) for x in xs.tolist()]
    assert rows[:, 0].tolist() == [repr(x) for x in xs.tolist()]
    assert rows[:, 1].tolist() == [repr(v) for v in pdf]
    assert rows[:, 2].tolist() == [repr(v) for v in cdf]
    assert rows[-1, 2] == "1.0" and rows[0, 2] == "0.0"
