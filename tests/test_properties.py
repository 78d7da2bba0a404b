"""Property-based checks of the algebraic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfilt import (PrivacySpec, RationalFilter, TransferMatrix,
                    brute_force_sensitivity, freq_response, kappa,
                    mimo_bounds, q_function, q_inverse, trapezoid_mean,
                    zfe_general_lower_bound, zfe_mse_diag_bound)

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=50)
def test_q_round_trip(delta):
    assert abs(q_function(q_inverse(delta)) - delta) < 1e-10


@given(st.floats(min_value=0.01, max_value=20.0),
       st.floats(min_value=1e-4, max_value=0.5))
@settings(max_examples=50)
def test_kappa_dominates_half_delta_value(eps, delta):
    spec = PrivacySpec(epsilon=eps, delta=delta, k=(1.0,))
    assert kappa(spec) >= 1.0 / np.sqrt(2.0 * eps) * (1 - 1e-12)


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1,
                max_size=4),
       st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=30)
def test_simo_brute_force_homogeneity(taps, c):
    taps = np.asarray(taps)
    if np.all(np.abs(taps) < 1e-6):
        taps = taps + 1.0
    G = TransferMatrix([[RationalFilter(taps)]])
    base = brute_force_sensitivity(G, (1.0,), T=6)
    scaled = brute_force_sensitivity(G, (c,), T=6)
    assert abs(scaled - c * base) <= 1e-9 * max(1.0, scaled)


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_bound_ordering_random_fir(p, m, seed):
    rng = np.random.default_rng(seed)
    rows = [[RationalFilter(rng.normal(size=int(rng.integers(1, 4))))
             for _ in range(m)] for _ in range(p)]
    F = TransferMatrix(rows)
    k = rng.uniform(0.5, 2.0, m)
    priv = PrivacySpec(epsilon=1.0, delta=0.1, k=tuple(k))
    Fg = freq_response(F, 64)
    nuclear = zfe_general_lower_bound(Fg, priv)
    diag = zfe_mse_diag_bound(Fg, priv)
    assert nuclear <= diag * (1 + 1e-10)
    lower, upper = mimo_bounds(F, k)
    assert lower <= upper * (1 + 1e-12)


@given(st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-10, max_value=10),
       st.integers(min_value=8, max_value=64))
@settings(max_examples=30)
def test_trapezoid_mean_affine(a, b, n):
    x = np.linspace(0, 1, n + 1)
    vals = a * x + b
    # exact for affine integrands
    want = a * 0.5 + b
    assert abs(trapezoid_mean(vals) - want) < 1e-12 * max(1, abs(want))
