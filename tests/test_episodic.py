"""Model-layer tests: index decomposition, estimation, weights, downsampling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import epimon as em
from epimon.episodic import json_numbers
from epimon.errors import InsufficientDataError, InvalidDataError

from conftest import make_params, make_reference


# ---------------------------------------------------------------------------
# decompose_index
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "t,T,k,tau",
    [
        (5, 3, 1, 2),
        (3, 3, 0, 3),  # boundary step belongs to the finished episode
        (1, 1, 0, 1),
        (40, 40, 0, 40),
        (41, 40, 1, 1),
    ],
)
def test_decompose_examples(t, T, k, tau):
    dec = em.decompose_index(t, T)
    assert (dec.k, dec.tau) == (k, tau)


@given(st.integers(1, 10**6), st.integers(1, 500))
def test_decompose_roundtrip(t, T):
    dec = em.decompose_index(t, T)
    assert dec.t == dec.k * dec.T + dec.tau
    assert 1 <= dec.tau <= T
    assert (dec.tau == T) == (t % T == 0)


@pytest.mark.parametrize("t,T", [(0, 3), (-1, 3), (3, 0), (3, -2)])
def test_decompose_rejects_nonpositive(t, T):
    with pytest.raises(ValueError):
        em.decompose_index(t, T)


# ---------------------------------------------------------------------------
# downsample
# ---------------------------------------------------------------------------


def test_downsample_block_means():
    assert em.downsample([1, 3, 5, 7], 2).tolist() == [2, 6]


def test_downsample_identity():
    x = np.arange(9.0)
    assert em.downsample(x, 1).tolist() == x.tolist()


def test_downsample_arithmetic_series():
    out = em.downsample(np.arange(1.0, 1001.0), 25)
    assert out.size == 40
    assert out[0] == 13.0  # mean of 1..25


def test_downsample_rejects_nondivisor():
    with pytest.raises(ValueError):
        em.downsample([1, 2, 3], 2)


def test_downsample_averages_each_row_along_the_last_axis():
    raw = np.random.default_rng(4).normal(size=(5, 24))
    rows = em.downsample(raw, 8)
    assert rows.shape == (5, 3)
    for row, out in zip(raw, rows):
        assert np.array_equal(em.downsample(row, 8), out)
    ref = em.ReferenceDataset.from_raw(raw, 8)
    assert np.array_equal(ref.episodes, rows) and ref.downsample_factor == 8
    with pytest.raises(ValueError):
        em.downsample(3.0, 1)


# ---------------------------------------------------------------------------
# estimate_params
# ---------------------------------------------------------------------------


def test_estimate_two_episode_toy():
    # Hand-computable 2x2: rank-deficient sample covariance triggers the ridge.
    ref = em.ReferenceDataset(np.array([[0.0, 0.0], [2.0, 2.0]]))
    params = em.estimate_params(ref)
    assert params.mu0.tolist() == [1.0, 1.0]
    assert params.regularized and params.ridge > 0
    expected = np.array([[2.0, 2.0], [2.0, 2.0]]) + params.ridge * np.eye(2)
    np.testing.assert_allclose(params.sigma0, expected, rtol=1e-12)


def test_estimate_single_episode_error():
    with pytest.raises(InsufficientDataError):
        em.estimate_params(em.ReferenceDataset(np.ones((1, 4))))


def test_estimate_rejects_nonfinite():
    with pytest.raises(InvalidDataError):
        em.ReferenceDataset(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_estimate_monte_carlo_recovers_truth():
    # N=10000 draws from a known model: estimates within 5 estimator-sigmas,
    # where the mean estimator has sd sqrt(S_jj/N) and the covariance
    # estimator has variance (S_ii S_jj + S_ij^2)/(N-1).
    params = make_params(T=5, seed=1, condition=20)
    N = 10000
    ref = make_reference(params, N, seed=42)
    est = em.estimate_params(ref)
    mu_sd = np.sqrt(np.diag(params.sigma0) / N)
    assert np.all(np.abs(est.mu0 - params.mu0) <= 5 * mu_sd)
    S = params.sigma0
    cov_sd = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / (N - 1))
    assert np.all(np.abs(est.sigma0 - S) <= 5 * cov_sd)


def test_estimate_permutation_invariant():
    params = make_params(T=4, seed=2)
    ref = make_reference(params, 50, seed=9)
    perm = np.random.default_rng(0).permutation(50)
    a = em.estimate_params(ref)
    b = em.estimate_params(em.ReferenceDataset(ref.episodes[perm]))
    np.testing.assert_allclose(a.mu0, b.mu0, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.sigma0, b.sigma0, rtol=1e-10, atol=1e-12)


def test_estimate_shift_property_bitwise():
    # Dyadic data make x + c exact, so the column means shift by exactly c,
    # the deviations are bit-identical, and sigma0 is bit-identical too.
    rng = np.random.default_rng(5)
    X = rng.integers(0, 256, size=(64, 4)).astype(float) / 16.0
    c = 32.0
    a = em.estimate_params(em.ReferenceDataset(X))
    b = em.estimate_params(em.ReferenceDataset(X + c))
    assert np.array_equal(b.mu0, a.mu0 + c)
    assert np.array_equal(b.sigma0, a.sigma0)


# ---------------------------------------------------------------------------
# EpisodeParams invariants
# ---------------------------------------------------------------------------


def test_params_rejects_asymmetric():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(InvalidDataError):
        em.EpisodeParams(np.zeros(2), bad)


def test_params_rejects_indefinite():
    # A zero diagonal entry is not positive definite either, so every
    # accepted sigma0 has the positive variances ``step_std`` divides by.
    for sigma0 in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(InvalidDataError):
            em.EpisodeParams(np.zeros(2), np.array(sigma0))


def test_params_inverse_identity_bound(small_params):
    T = small_params.T
    resid = np.abs(small_params.sigma0 @ small_params.sigma0_inv - np.eye(T)).max()
    assert resid <= 1e-6
    for tau in range(1, T + 1):
        block = small_params.sigma0[:tau, :tau]
        resid = np.abs(block @ small_params.tail_inverse(tau) - np.eye(tau)).max()
        assert resid <= 1e-6


def test_params_factor_sigma0_once_and_no_tau_block(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    params = make_params(T=9, seed=21, condition=1e3)
    assert calls == [(9, 9)]
    for tau in range(1, 10):
        params.tail_inverse(tau)
        params.tail_weights(tau)
    assert calls == [(9, 9)]


@pytest.mark.parametrize("condition", [1e2, 1e4, 1e6, 1e8])
def test_tail_inverse_agrees_with_direct_inverses(condition):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    eps = np.finfo(float).eps
    for seed in range(5):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 31))
        params = em.EpisodeParams(
            np.zeros(T), em.random_spd(T, rng, condition=condition)
        )
        for tau in range(1, T + 1):
            block = params.sigma0[:tau, :tau]
            inv = params.tail_inverse(tau)
            assert params.tail_inverse(tau) is inv  # cached
            with pytest.raises(ValueError):
                inv[0, 0] = 0.0
            # an inverse is accurate to about eps * cond relative to its size
            references = (
                np.linalg.inv(block),
                scipy_linalg.cho_solve((np.linalg.cholesky(block), True), np.eye(tau)),
            )
            for ref in references:
                tol = 100 * eps * np.linalg.cond(block) * np.abs(ref).max()
                assert np.abs(inv - ref).max() <= tol


def test_params_rejects_a_nan_inverse(monkeypatch):
    sigma = make_params(T=5, seed=22).sigma0
    monkeypatch.setattr(np.linalg, "inv", lambda a: np.full(np.shape(a), np.nan))
    with pytest.raises(InvalidDataError, match="identity check"):
        em.EpisodeParams(np.zeros(5), sigma)


def test_tail_inverse_rejects_a_nan_factor_inverse():
    params = make_params(T=5, seed=23)
    params._chol_inv = np.full((5, 5), np.nan)
    with pytest.raises(InvalidDataError, match="3x3 covariance block"):
        params.tail_inverse(3)


def test_params_immutable(small_params):
    with pytest.raises(ValueError):
        small_params.mu0[0] = 99.0


# ---------------------------------------------------------------------------
# window_weights
# ---------------------------------------------------------------------------


def test_weights_identity_covariance():
    params = em.EpisodeParams(np.zeros(3), np.eye(3))
    assert em.window_weights(params, 7).tolist() == [1.0] * 7


def test_weights_diagonal_by_hand():
    params = em.EpisodeParams(np.zeros(2), np.diag([1.0, 4.0]))
    np.testing.assert_allclose(
        em.window_weights(params, 4), [1.0, 0.25, 1.0, 0.25]
    )


def test_weights_single_episode_equals_full(small_params):
    np.testing.assert_array_equal(
        em.window_weights(small_params, small_params.T), small_params.full_weights
    )


@pytest.mark.parametrize("n_factor", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_weights_match_explicit_block_matrix(n_factor):
    # Independent oracle: build the full block-diagonal window covariance
    # explicitly and invert it; the blockwise weights must agree to 1e-8.
    params = make_params(T=6, seed=11, condition=100)
    T = params.T
    n = max(1, int(round(n_factor * T)))
    dec = em.decompose_index(n, T)
    full = np.zeros((n, n))
    for k in range(dec.k):
        full[k * T : (k + 1) * T, k * T : (k + 1) * T] = params.sigma0
    full[dec.k * T :, dec.k * T :] = params.sigma0[: dec.tau, : dec.tau]
    oracle = np.linalg.solve(full, np.ones(n))
    np.testing.assert_allclose(em.window_weights(params, n), oracle, atol=1e-8)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_params_json_roundtrip(tmp_path, small_params):
    path = tmp_path / "params.json"
    import json

    path.write_text(json.dumps(em.params_to_dict(small_params)))
    loaded = em.load_params_json(path)
    np.testing.assert_array_equal(loaded.mu0, small_params.mu0)
    np.testing.assert_array_equal(loaded.sigma0, small_params.sigma0)
    assert loaded.downsample_factor == small_params.downsample_factor


@pytest.mark.parametrize("key, value", [
    ("T", lambda T: float(T)), ("d", lambda d: d + 0.7), ("d", lambda d: True),
], ids=["float-T", "fraction-d", "bool-d"])
def test_params_from_dict_rejects_non_integer_fields(small_params, key, value):
    # int() would truncate "d": 2.7 to 2, a model other than the one written.
    data = em.params_to_dict(small_params)
    data[key] = value(data[key])
    with pytest.raises(ValueError, match=f"params {key} must be an integer"):
        em.params_from_dict(data)


@pytest.mark.parametrize("value", ["0.5", True, float("nan")])
def test_params_from_dict_rejects_a_non_numeric_lambda(small_params, value):
    data = {**em.params_to_dict(small_params), "lambda": value}
    with pytest.raises(ValueError, match="params lambda must be a finite number"):
        em.params_from_dict(data)


def test_params_from_dict_rejects_a_negative_lambda_and_unknown_keys(small_params):
    data = em.params_to_dict(small_params)
    assert em.params_from_dict({**data, "lambda": 0.0}).ridge == 0.0
    with pytest.raises(InvalidDataError, match="lambda must not be negative"):
        em.params_from_dict({**data, "lambda": -3.0})
    with pytest.raises(InvalidDataError, match="unknown keys: Sigma0, sigma_0"):
        em.params_from_dict({**data, "sigma_0": 1.0, "Sigma0": 2.0})


@pytest.mark.parametrize("key", ["mu0", "sigma0"])
@pytest.mark.parametrize("value", ["1.5", True, None, float("nan"), 10**400],
                         ids=["string", "true", "null", "nan", "huge"])
def test_params_from_dict_rejects_a_non_numeric_entry(small_params, key, value):
    # np.asarray(dtype=float) would read "1.5" as 1.5 and true as 1.0, and
    # raise OverflowError on 10**400.
    data = em.params_to_dict(small_params)
    (data[key] if key == "mu0" else data[key][0])[0] = value
    lists = "a list of " if key == "mu0" else "a list of lists of "
    with pytest.raises(InvalidDataError, match=f"params {key} must be {lists}numbers"):
        em.params_from_dict(data)


def test_json_numbers_reads_integers_and_floats_alike():
    assert json_numbers([1, 2.5, -3], "x").tolist() == [1.0, 2.5, -3.0]
    assert json_numbers([[1, 0], [0, 2.0]], "x", ndim=2).tolist() == [[1, 0], [0, 2]]


def test_reference_csv_reader(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("h1,h2\n1.0,2.0\n3.0,4.0\n")
    ref = em.load_reference_csv(path, skip_header=True)
    assert ref.episodes.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_reference_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(InvalidDataError, match="line 2"):
        em.load_reference_csv(path)
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InvalidDataError, match="line 2"):
        em.load_reference_csv(path)
    path.write_text("1.0,2.0\n3.0,nan\n")
    with pytest.raises(InvalidDataError, match="line 2"):
        em.load_reference_csv(path)


def _float_per_token(text, skip_header=False):
    lines = text.splitlines()[int(skip_header):]
    return np.array([[float(tok) for tok in line.split(",")] for line in lines if line.strip()])


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_reference_csv_values_are_float_per_token(tmp_path, newline):
    # The file is read in one numpy call; every value must be the one that
    # float() gives its token, bit for bit, shortest spellings included.
    rng = np.random.default_rng(90)
    values = rng.standard_normal((50, 7)) * 10.0 ** rng.integers(-30, 30, size=(50, 7))
    lines = [",".join(f"{x:.17g}" for x in values[0]), ",".join(repr(float(x)) for x in values[1])]
    lines += [",".join(f"{x:.6g}" for x in row) for row in values[2:]]
    text = newline.join(["a,b,c,d,e,f,g", *lines, ""])
    path = tmp_path / "ref.csv"
    path.write_bytes(text.encode())
    ref = em.load_reference_csv(path, skip_header=True)
    want = _float_per_token(text, skip_header=True)
    assert ref.episodes.shape == want.shape
    assert ref.episodes.tobytes() == want.tobytes()


@pytest.mark.parametrize("text, rows", [
    ("1_0,2\n3,4.5\n", [[10.0, 2.0], [3.0, 4.5]]),  # a float() spelling
    ("1,2\n  \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),  # a whitespace-only line
    ("\n1,2\n\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),  # blank lines
])
def test_reference_csv_reads_what_float_accepts(tmp_path, text, rows):
    path = tmp_path / "ref.csv"
    path.write_text(text)
    assert em.load_reference_csv(path).episodes.tolist() == rows


@pytest.mark.parametrize("text, skip_header, message", [
    ("1.0,2.0\n3.0,oops\n", False,
     "line 2: could not convert string to float: 'oops'"),
    ("1.0,2.0\n  \n3.0\n", False, "line 3: expected 2 values, got 1"),
    ("1_0,2.0\n3.0,inf\n", False, "line 2: non-finite value"),
    ("1.0,nan\n", False, "line 1: non-finite value"),
    ("", False, "no episodes found"),
    ("\n\n", False, "no episodes found"),
    ("h1,h2\n", True, "no episodes found"),
])
def test_reference_csv_errors_name_the_line(tmp_path, text, skip_header, message):
    path = tmp_path / "ref.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data"
        with pytest.raises(InvalidDataError) as info:
            em.load_reference_csv(path, skip_header=skip_header)
    assert str(info.value) == f"{path}: {message}"
