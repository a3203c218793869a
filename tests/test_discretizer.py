import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ps2c import discretizer
from ps2c.dataset import LabeledDataset, znormalize
from ps2c.discretizer import (
    SaxParams,
    _paa_many,
    compute_breakpoints,
    discretize,
    dump_text,
    paa,
    paa_length,
    sax,
    sax_text,
)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _quantile_oracle(p: float) -> float:
    # bisection on the erf-based CDF; independent of the code under test
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_breakpoints_alpha2():
    assert np.allclose(compute_breakpoints(2), [0.0], atol=1e-12)


def test_breakpoints_alpha4():
    assert np.allclose(compute_breakpoints(4), [-0.6745, 0.0, 0.6745], atol=1e-4)


def test_breakpoints_alpha3():
    assert np.allclose(compute_breakpoints(3), [-0.4307, 0.4307], atol=1e-4)


@pytest.mark.parametrize("alpha", range(2, 27))
def test_breakpoints_match_cdf_inversion_oracle(alpha):
    betas = compute_breakpoints(alpha)
    oracle = [_quantile_oracle(i / alpha) for i in range(1, alpha)]
    assert np.allclose(betas, oracle, atol=1e-9)
    assert np.all(np.diff(betas) > 0)
    # equal-area quantiles are symmetric about zero
    assert np.allclose(betas, -betas[::-1], atol=1e-9)


def test_breakpoints_alpha_out_of_range():
    for alpha in (1, 27, 0):
        with pytest.raises(ValueError):
            compute_breakpoints(alpha)


def test_paa_exact_division():
    assert np.allclose(paa([0, 2, 4, 6, 8, 10], 2), [1.0, 5.0, 9.0])


def test_paa_length_follows_half_away_rounding():
    assert paa_length(286, 7) == 41  # 286/7 = 40.857 rounds up
    assert paa_length(10, 4) == 3  # 2.5 rounds away from zero
    assert paa_length(6, 4) == 2  # 1.5 rounds away from zero
    assert paa_length(7, 3) == 2  # 2.33 rounds down
    assert paa_length(3, 3) == 1


def test_paa_long_remainder_folds_into_last_segment():
    # 286 = 41 segments of 7 only if 41*7=287 > 286: final segment is short
    series = np.arange(286, dtype=float)
    out = paa(series, 7)
    assert out.size == 41
    assert out[-1] == np.mean(series[280:])  # 6 trailing observations
    assert out[0] == np.mean(series[:7])


def test_paa_trailing_observations_folded():
    # p=round(10/4)=3 segments but 3*4 > 10: last segment covers [8, 10)
    out = paa(np.arange(10, dtype=float), 4)
    assert out.size == 3
    assert out[-1] == np.mean([8.0, 9.0])
    # p*omega < n case: n=7, omega=3 -> p=2, last segment covers [3, 7)
    out2 = paa(np.arange(7, dtype=float), 3)
    assert out2.size == 2
    assert out2[-1] == np.mean([3.0, 4.0, 5.0, 6.0])


def test_paa_single_segment():
    assert np.allclose(paa([1.0, 1.0, 1.0], 3), [1.0])


def test_paa_rejects_short_series():
    with pytest.raises(ValueError, match="series length 2 is shorter than omega 3"):
        paa([1.0, 2.0], 3)
    ds = LabeledDataset((np.arange(5.0), np.arange(2.0)), ("x", "y"))
    with pytest.raises(ValueError, match="series length 2 is shorter than omega 3"):
        discretize(ds, SaxParams(4, 3))


def _paa_reference(series, omega):
    # PAA one series at a time, as it was before the batched PAA
    values = np.asarray(series, dtype=np.float64)
    n = values.size
    p = paa_length(n, omega)
    if p * omega == n:
        return values.reshape(p, omega).mean(axis=1)
    out = np.empty(p)
    if p > 1:
        out[: p - 1] = values[: (p - 1) * omega].reshape(p - 1, omega).mean(axis=1)
    out[p - 1] = values[(p - 1) * omega :].mean()
    return out


@pytest.mark.parametrize("omega", range(1, 11))
def test_paa_matches_reference_bitwise_at_every_length(omega):
    # every length from omega to 40, so every round-half length (2n/omega
    # odd) and both short and long final windows; omega >= 8 sums pairwise
    rng = np.random.default_rng(omega)
    for n in range(omega, 41):
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        assert paa(x, omega).tobytes() == _paa_reference(x, omega).tobytes()
        y = np.repeat(x, 2)  # y[::2] is x as a strided view, which the reshape reads in place
        assert paa(y[::2], omega).tobytes() == _paa_reference(y[::2].copy(), omega).tobytes()


@given(
    st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40), min_size=1, max_size=8
    ),
    st.integers(1, 7),
)
@settings(max_examples=150, deadline=None)
def test_batched_paa_and_discretize_match_per_series(rows, omega):
    series = [np.array(r) for r in rows if len(r) >= omega]
    if not series:
        return
    values, sizes = _paa_many(series, omega)
    assert sizes.tolist() == [paa_length(x.size, omega) for x in series]
    for x, part in zip(series, np.split(values, np.cumsum(sizes)[:-1])):
        assert part.tobytes() == _paa_reference(x, omega).tobytes()

    series = [x for x in series if x.size >= 2]
    if not series:
        return
    ds = LabeledDataset(tuple(series), tuple("ab"[i % 2] for i in range(len(series))))
    for alpha in (2, 5, 26):
        params = SaxParams(alpha, omega)
        codes = discretize(ds, params).codes
        for x, c in zip(series, codes):
            assert c.tobytes() == sax(x, params).tobytes()
            expected = np.searchsorted(compute_breakpoints(alpha), _paa_reference(x, omega), side="right")
            assert c.tobytes() == expected.astype(np.uint8).tobytes()


def test_discretize_shares_paa_across_alphas():
    rng = np.random.default_rng(2)
    ds = LabeledDataset(tuple(rng.normal(size=n) for n in (30, 41, 37)), ("x", "y", "x"))
    with mock.patch.object(discretizer, "_paa_many", wraps=_paa_many) as spy:
        for alpha in (2, 3, 8):
            for omega in (2, 3):
                discretize(ds, SaxParams(alpha, omega))
    assert [call.args[1] for call in spy.call_args_list] == [2, 3]


def test_sax_constant_zero_is_all_c():
    codes = sax(np.zeros(12), SaxParams(4, 3))
    assert sax_text(codes) == "cccc"


def test_sax_boundary_right_half_open():
    # paa values [-2, 0, 2] with alpha=2: 0 sits on the breakpoint and
    # maps right, giving 'b'
    codes = sax(np.array([-2.0, 0.0, 2.0]), SaxParams(2, 1))
    assert sax_text(codes) == "abb"


def test_sax_whole_series_window_gives_single_symbol():
    codes = sax(znormalize(np.arange(9.0)), SaxParams(2, 9))
    assert len(codes) == 1


@given(
    st.lists(st.floats(-3, 3), min_size=4, max_size=40),
    st.integers(2, 8),
    st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_sax_shape_and_range(values, alpha, omega):
    values = np.array(values)
    if values.size < omega:
        return
    codes = sax(values, SaxParams(alpha, omega))
    assert codes.size == paa_length(values.size, omega)
    assert codes.min() >= 0 and codes.max() < alpha


@given(st.integers(2, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_sax_monotone_in_value(alpha, data):
    v1 = data.draw(st.floats(-4, 4))
    v2 = data.draw(st.floats(-4, 4))
    lo, hi = sorted((v1, v2))
    params = SaxParams(alpha, 1)
    s_lo = sax(np.array([lo, lo]), params)[0]
    s_hi = sax(np.array([hi, hi]), params)[0]
    assert s_lo <= s_hi


def test_symbol_histogram_uniform_under_unit_window():
    rng = np.random.default_rng(42)
    n = 60_000
    for alpha in (2, 5, 8):
        codes = sax(rng.normal(size=n), SaxParams(alpha, 1))
        counts = np.bincount(codes, minlength=alpha)
        expect = n / alpha
        sigma = math.sqrt(n * (1 / alpha) * (1 - 1 / alpha))
        assert np.all(np.abs(counts - expect) < 3 * sigma)


def test_discretize_alignment_and_dump():
    ds = LabeledDataset(
        (np.zeros(8), znormalize(np.arange(8.0))), ("x", "y")
    )
    d = discretize(ds, SaxParams(2, 4))
    assert d.n_instances == 2
    assert sax_text(d.codes[0]) == "bb"  # 0 sits on the lone breakpoint and maps right
    text = dump_text(d, ds.labels)
    lines = text.splitlines()
    assert lines[0].startswith("x\t")
    assert lines[1].startswith("y\t")


def test_params_validation():
    for alpha, omega in ((1, 2), (27, 2), (3, 0)):
        with pytest.raises(ValueError):
            SaxParams(alpha, omega)
