"""Episodic-signal data model.

An episodic signal is a scalar time-series whose consecutive length-T blocks
(episodes) are independent and identically distributed, while the samples
inside an episode may be arbitrarily correlated and non-stationary. Under the
null model the signal is fully described by the per-episode mean vector mu0
and covariance matrix sigma0, estimated from a reference dataset of recorded
episodes. The covariance of a longer stretch of signal is block-diagonal with
sigma0 blocks, the last block cropped when the stretch ends mid-episode, so
everything the tests need reduces to sigma0, its inverse, and the inverses of
its upper-left tau x tau blocks. All of those inverses come from one Cholesky
factor L of sigma0, with numpy alone: the leading tau x tau block of L is the
factor of sigma0's leading block, and the leading block of L^-1 is its
inverse, so each block's inverse is that block of L^-1 times its transpose.

This module provides:

* ``decompose_index`` -- split a 1-based global step into (episode, offset).
* ``downsample`` -- replace each block of d raw samples by its mean.
* ``ReferenceDataset`` / ``estimate_params`` -- recorded episodes and the
  (mu0, sigma0) estimate with ridge regularization when the sample covariance
  is not positive definite.
* ``EpisodeParams`` -- the null model, with its Cholesky factor, that
  factor's inverse, the inverse of sigma0 and the per-step deviations
  computed once, and lazily-built tau-block inverses and count tables.
* ``window_weights`` -- the covariance weights 1' Sigma^-1 of an n-step
  window, built blockwise without materializing the n x n matrix.
* CSV / JSON readers and writers for the two file formats this module owns,
  and the checks and the atomic writer that every file format shares.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidDataError

PARAMS_FORMAT_VERSION = 1

# Regularization ladder for ill-conditioned covariance estimates:
# lambda = RIDGE_FLOOR * trace/T, escalating x10 up to RIDGE_CAP * trace/T.
RIDGE_FLOOR = 1e-8
RIDGE_CAP = 1e-2

# Construction-time invariants of EpisodeParams.
SYMMETRY_RTOL = 1e-9
INVERSE_IDENTITY_TOL = 1e-6

CountTable = namedtuple("CountTable", "offset scale length")


@dataclass(frozen=True)
class IndexDecomposition:
    """1-based global step t split as t = k*T + tau with tau in [1, T]."""

    t: int
    T: int
    k: int
    tau: int


def decompose_index(t: int, T: int) -> IndexDecomposition:
    """Split global step ``t`` into completed episodes ``k`` and offset ``tau``.

    ``tau`` is the position within the current episode, taking the value T
    (not 0) at episode boundaries, so t = k*T + tau always holds with
    1 <= tau <= T.
    """
    t = int(t)
    T = int(T)
    if t < 1 or T < 1:
        raise ValueError(f"t and T must be positive, got t={t}, T={T}")
    k = (t - 1) // T
    tau = t - k * T
    return IndexDecomposition(t=t, T=T, k=k, tau=tau)


def downsample(values: np.ndarray, factor: int) -> np.ndarray:
    """Replace each consecutive block of ``factor`` samples along the last
    axis by its mean: one rule for a raw stream and for reference rows.

    ``ReferenceDataset.from_raw`` calls it on reference rows, and ``epimon
    monitor`` (``cli.cmd_monitor``) on each block of the raw stream."""
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"downsample factor must be positive, got {factor}")
    values = np.asarray(values, dtype=float)
    if values.ndim < 1:
        raise ValueError("downsample expects samples along a last axis")
    if values.shape[-1] % factor != 0:
        raise ValueError(
            f"downsample factor {factor} does not divide length {values.shape[-1]}"
        )
    if factor == 1:
        return values.copy()
    return values.reshape(*values.shape[:-1], -1, factor).mean(axis=-1)


class EpisodeParams:
    """Null model of one episode: mean vector and positive-definite covariance.

    Instances are immutable after construction and safe to share across
    threads; the lazy caches, per tau block and per window shape, are
    compute-then-publish and idempotent (duplicate computation under a race
    is harmless).

    Parameters
    ----------
    mu0 : array of shape (T,)
        Expected value of each within-episode step.
    sigma0 : array of shape (T, T)
        Per-episode covariance. Must be symmetric to ``SYMMETRY_RTOL``
        (relative to its largest entry) and positive definite. The one
        Cholesky factorization is performed at construction, with the
        inverse of the factor; the inverse of sigma0 and every tau-block
        inverse are products of that factor inverse's leading blocks, each
        verified against the identity in max-norm when it is built. Its
        diagonal is then positive, as is ``step_std`` = sqrt(diag(sigma0)).
    downsample_factor : int
        Raw-steps-per-sample factor applied before estimation; recorded so
        detection times can be reported in raw units as well.
    regularized, ridge :
        Whether a ridge was added by :func:`estimate_params` and its value.
    """

    def __init__(
        self,
        mu0: np.ndarray,
        sigma0: np.ndarray,
        downsample_factor: int = 1,
        regularized: bool = False,
        ridge: float = 0.0,
    ):
        mu0 = np.array(mu0, dtype=float)
        sigma0 = np.array(sigma0, dtype=float)
        if mu0.ndim != 1 or mu0.size < 1:
            raise ValueError("mu0 must be a non-empty 1-D vector")
        T = mu0.size
        if sigma0.shape != (T, T):
            raise ValueError(f"sigma0 must be {T}x{T}, got {sigma0.shape}")
        if int(downsample_factor) < 1:
            raise ValueError("downsample_factor must be positive")
        if not np.all(np.isfinite(mu0)) or not np.all(np.isfinite(sigma0)):
            raise InvalidDataError("parameters contain non-finite entries")

        scale = np.abs(sigma0).max()
        if scale > 0 and np.abs(sigma0 - sigma0.T).max() > SYMMETRY_RTOL * scale:
            raise InvalidDataError("sigma0 is not symmetric within tolerance")
        sigma0 = 0.5 * (sigma0 + sigma0.T)

        try:
            chol = np.linalg.cholesky(sigma0)
        except np.linalg.LinAlgError as exc:
            raise InvalidDataError("sigma0 is not positive definite") from exc
        chol_inv = np.tril(np.linalg.inv(chol))
        inv = _inverse_from_factor(
            sigma0, chol_inv,
            "sigma0 is too ill-conditioned: inverse fails the identity check",
        )

        for arr in (mu0, sigma0, chol, chol_inv):
            arr.setflags(write=False)
        self.mu0 = mu0
        self.sigma0 = sigma0
        self.sigma0_inv = inv
        self.step_std = _readonly(np.sqrt(np.diag(sigma0)))
        self.cholesky_lower = chol
        self._chol_inv = chol_inv
        self.downsample_factor = int(downsample_factor)
        self.regularized = bool(regularized)
        self.ridge = float(ridge)
        self._tail_inv: dict[int, np.ndarray] = {T: inv}
        self._tail_weights: dict[int, np.ndarray] = {T: _readonly(inv.sum(axis=0))}
        self._count_scaling: dict[tuple, CountTable] = {}

    @property
    def T(self) -> int:
        return self.mu0.size

    @property
    def full_weights(self) -> np.ndarray:
        """Weights 1' sigma0^-1 of one complete episode."""
        return self._tail_weights[self.T]

    @property
    def mean_step_std(self) -> float:
        """sqrt(trace(sigma0)/T) -- the sigma unit used by CLI scenarios."""
        return float(np.sqrt(np.trace(self.sigma0) / self.T))

    def tail_inverse(self, tau: int) -> np.ndarray:
        """Inverse of the upper-left tau x tau covariance block (cached)."""
        tau = int(tau)
        if not 1 <= tau <= self.T:
            raise ValueError(f"tau must be in [1, {self.T}], got {tau}")
        cached = self._tail_inv.get(tau)
        if cached is None:
            cached = _inverse_from_factor(
                self.sigma0[:tau, :tau], self._chol_inv[:tau, :tau],
                f"{tau}x{tau} covariance block fails the inverse identity check",
            )
            self._tail_inv[tau] = cached
        return cached

    def tail_weights(self, tau: int) -> np.ndarray:
        """Weights 1' Sigma_tau^-1 of a partial episode of tau steps (cached)."""
        tau = int(tau)
        cached = self._tail_weights.get(tau)
        if cached is None:
            cached = _readonly(self.tail_inverse(tau).sum(axis=0))
            self._tail_weights[tau] = cached
        return cached

    def count_scaling(self, K: tuple[int, ...], tau: int) -> CountTable:
        """Count table of windows of K >= 1 whole episodes plus a tau-step
        tail, one row per count of the tuple ``K`` (cached per tuple,
        read-only). In the window of count K, offset j occurs c_j = K +
        [j < tau] times: the (H, T) rows ``offset`` = c * mu0 and ``scale``
        = 1 / sqrt(c), so the scaled mean deviation of per-offset sums s is
        (s - offset) * scale, and the (H,) window ``length`` n = K*T + tau."""
        tau = int(tau)
        cached = self._count_scaling.get((K, tau))
        if cached is None:
            if min(K) < 1 or not 1 <= tau <= self.T:
                raise ValueError(
                    f"need K >= 1 and tau in [1, {self.T}], got K={K}, tau={tau}"
                )
            wholes = np.array(K)
            counts = np.zeros((wholes.size, self.T))
            counts += wholes[:, np.newaxis]
            counts[:, :tau] += 1.0
            cached = CountTable(
                _readonly(counts * self.mu0), _readonly(1.0 / np.sqrt(counts)),
                _readonly(wholes * self.T + tau),
            )
            self._count_scaling[K, tau] = cached
        return cached


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _inverse_from_factor(
    sigma: np.ndarray, chol_inv: np.ndarray, message: str
) -> np.ndarray:
    """The inverse ``chol_inv.T @ chol_inv`` of ``sigma``, given the inverse
    of its lower Cholesky factor: symmetrised and read-only. Raises
    :class:`InvalidDataError` with ``message`` unless ``sigma @ inverse``
    is within ``INVERSE_IDENTITY_TOL`` of the identity in max-norm; a NaN
    residual fails too."""
    inv = chol_inv.T @ chol_inv
    inv = 0.5 * (inv + inv.T)
    residual = np.abs(sigma @ inv - np.eye(len(sigma))).max()
    if not residual <= INVERSE_IDENTITY_TOL:
        raise InvalidDataError(message)
    return _readonly(inv)


def window_weights(params: EpisodeParams, n: int) -> np.ndarray:
    """Covariance weights 1' Sigma^-1 of an n-step window.

    The window covariance Sigma is block-diagonal with sigma0 blocks (last
    block cropped), so the weight vector is K repetitions of the full-episode
    weights followed by the tau0-block weights. The n x n matrix is never
    materialized.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"window length must be positive, got {n}")
    T = params.T
    dec = decompose_index(n, T)
    w = np.empty(n)
    if dec.k:
        w[: dec.k * T] = np.tile(params.full_weights, dec.k)
    w[dec.k * T :] = params.tail_weights(dec.tau)
    return w


@dataclass(frozen=True)
class ReferenceDataset:
    """Recorded episodes of the trusted signal, one per row, post-downsampling."""

    episodes: np.ndarray
    downsample_factor: int = 1

    def __post_init__(self):
        episodes = np.asarray(self.episodes, dtype=float)
        if episodes.ndim != 2 or episodes.shape[0] < 1 or episodes.shape[1] < 1:
            raise ValueError("episodes must be a non-empty N x T matrix")
        if int(self.downsample_factor) < 1:
            raise ValueError("downsample_factor must be positive")
        if not np.all(np.isfinite(episodes)):
            raise InvalidDataError("reference episodes contain non-finite values")
        episodes = episodes.copy()
        episodes.setflags(write=False)
        object.__setattr__(self, "episodes", episodes)
        object.__setattr__(self, "downsample_factor", int(self.downsample_factor))

    @property
    def num_episodes(self) -> int:
        return self.episodes.shape[0]

    @property
    def episode_length(self) -> int:
        return self.episodes.shape[1]

    @classmethod
    def from_raw(cls, raw: np.ndarray, downsample_factor: int) -> "ReferenceDataset":
        """Downsample raw episodes (rows) by ``downsample_factor`` and wrap."""
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 2:
            raise ValueError("raw episodes must be a 2-D matrix")
        return cls(downsample(raw, downsample_factor), int(downsample_factor))


def estimate_params(ref: ReferenceDataset) -> EpisodeParams:
    """Estimate (mu0, sigma0) from reference episodes.

    mu0 is the per-step sample mean; sigma0 is the unbiased sample covariance
    (denominator N-1). If the estimate fails the positive-definiteness or
    inverse-identity checks, a ridge lambda*I is added, starting at
    ``RIDGE_FLOOR * trace/T`` and escalating x10 up to ``RIDGE_CAP * trace/T``
    before giving up. The result records whether a ridge was applied.
    """
    N = ref.num_episodes
    if N < 2:
        raise InsufficientDataError(
            f"covariance estimation requires at least 2 episodes, got {N}"
        )
    X = ref.episodes
    T = ref.episode_length
    mu0 = X.mean(axis=0)
    sigma = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))

    scale = float(np.trace(sigma)) / T
    ladder = [0.0]
    lam = RIDGE_FLOOR * scale
    while lam <= RIDGE_CAP * scale * (1 + 1e-12) and lam > 0:
        ladder.append(lam)
        lam *= 10.0
    last_error: Exception | None = None
    for lam in ladder:
        candidate = sigma if lam == 0.0 else sigma + lam * np.eye(T)
        try:
            return EpisodeParams(
                mu0,
                candidate,
                downsample_factor=ref.downsample_factor,
                regularized=lam > 0.0,
                ridge=lam,
            )
        except InvalidDataError as exc:
            last_error = exc
    raise InvalidDataError(
        "sample covariance is not positive definite even after ridge "
        f"regularization up to {RIDGE_CAP:g}*trace/T"
    ) from last_error


# ---------------------------------------------------------------------------
# File formats owned by this module
# ---------------------------------------------------------------------------


def load_reference_csv(
    path, downsample_factor: int = 1, skip_header: bool = False
) -> ReferenceDataset:
    """Read a reference dataset: CSV, one episode per row, no header by default.

    One ``np.loadtxt`` call reads a well-formed file. It accepts a subset of
    what ``float()`` does, with the same values, so anything it rejects, a
    non-finite value or an empty result is read again line by line: that
    read accepts every ``float()`` spelling (``1_0``, say) and skips blank
    lines, and its errors name the line at fault.
    """
    with open(path, newline="") as fh:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "no data"
                raw = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                 skiprows=int(skip_header))
        except ValueError:
            raw = None
        if raw is None or raw.size == 0 or not np.isfinite(raw).all():
            fh.seek(0)
            raw = _read_csv_lines(fh, path, skip_header)
    return ReferenceDataset.from_raw(raw, downsample_factor)


def _read_csv_lines(fh, path, skip_header: bool) -> np.ndarray:
    """The reference CSV in ``fh`` read one line at a time with ``float()``;
    :class:`InvalidDataError` names the first line that does not parse, is
    not finite or has a different number of values from the first."""
    rows: list[list[float]] = []
    expected: int | None = None
    for lineno, line in enumerate(fh, start=1):
        if lineno == 1 and skip_header:
            continue
        stripped = line.strip()
        if not stripped:
            continue
        try:
            values = [float(tok) for tok in stripped.split(",")]
        except ValueError as exc:
            raise InvalidDataError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise InvalidDataError(f"{path}: line {lineno}: non-finite value")
        if expected is None:
            expected = len(values)
        elif len(values) != expected:
            raise InvalidDataError(
                f"{path}: line {lineno}: expected {expected} values, "
                f"got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise InvalidDataError(f"{path}: no episodes found")
    return np.asarray(rows)


def params_to_dict(params: EpisodeParams) -> dict:
    return {
        "format_version": PARAMS_FORMAT_VERSION,
        "T": params.T,
        "d": params.downsample_factor,
        "mu0": params.mu0.tolist(),
        "sigma0": params.sigma0.tolist(),
        "regularized": params.regularized,
        "lambda": params.ridge,
    }


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (text if a ``str``, else bytes) to ``path`` through a
    temporary file in the same directory, renamed into place, so a reader
    sees the old file or the whole new one; on failure the temporary file
    is removed and ``path`` is untouched. The file gets the mode
    ``open(path, "w")`` gives a new file: 0666 less the process umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".epimon-tmp-{secrets.token_hex(8)}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sibling_path(path, name, what: str) -> str:
    """Path of the file ``name`` in the directory of the file ``path``.
    ``name`` must be a bare file name, else :class:`ValueError` naming
    ``what``: a file may name a sibling, never a path elsewhere."""
    if (
        not isinstance(name, str)
        or name in ("", ".", "..")
        or os.path.basename(name) != name
    ):
        raise ValueError(f"{what} {name!r} is not a bare file name")
    return os.path.join(os.path.dirname(os.fspath(path)), name)


def check_format_version(data, expected: int, what: str, keys, hint="",
                         known=None) -> None:
    """Raise :class:`InvalidDataError` unless ``data`` is a :func:`json_object`
    holding ``keys``, and no key outside ``known`` when that is given, with
    ``format_version`` ``expected``, checked first, as another version may
    have other keys; ``hint`` ends its message."""
    if isinstance(data, dict) and data.get("format_version") != expected:
        raise InvalidDataError(
            f"{what} file has format_version {data.get('format_version')!r}, "
            f"this version reads {expected}{hint}"
        )
    json_object(data, what, keys, known)


def json_object(data, what: str, keys, known=None) -> None:
    """Raise :class:`InvalidDataError` naming ``what`` and the keys at
    fault unless ``data`` is a JSON object holding every key of ``keys``
    and, when ``known`` is given, no key outside it."""
    if not isinstance(data, dict):
        raise InvalidDataError(f"{what} is not a JSON object")
    unknown = [] if known is None else sorted(set(data) - set(known))
    if unknown:
        raise InvalidDataError(f"{what} has unknown keys: {', '.join(unknown)}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise InvalidDataError(f"{what} is missing keys: {', '.join(missing)}")


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer, else :class:`ValueError` naming
    ``what``: a float is not truncated, and a bool is not an integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number, else
    :class:`ValueError` naming ``what``: a bool or a string is not a
    number, and NaN, infinities and integers beyond float range are not
    finite."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def json_numbers(values, what: str, ndim: int = 1) -> np.ndarray:
    """``values`` as a float array if it is a JSON array of finite numbers,
    nested ``ndim`` deep and not ragged, else :class:`InvalidDataError`
    naming ``what``. As in :func:`json_number`, a bool or a string is not a
    number, and NaN, infinities and integers beyond float range are not
    finite."""
    array = np.array(values, dtype=object)
    if array.ndim == ndim and {int, float}.issuperset(map(type, array.flat)):
        with contextlib.suppress(OverflowError):
            numbers = array.astype(float)
            if np.isfinite(numbers).all():
                return numbers
    lists = "a list of " + "lists of " * (ndim - 1)
    raise InvalidDataError(f"{what} must be {lists}numbers")


def params_from_dict(data: dict) -> EpisodeParams:
    """Params from the JSON object :func:`params_to_dict` writes; a key it
    does not write and a negative ``lambda`` (a ridge is never negative)
    raise :class:`InvalidDataError`."""
    keys = ("T", "d", "mu0", "sigma0")
    known = ("format_version", *keys, "regularized", "lambda")
    check_format_version(data, PARAMS_FORMAT_VERSION, "params", keys, known=known)
    mu0 = json_numbers(data["mu0"], "params mu0")
    if mu0.size != json_int(data["T"], "params T"):
        raise InvalidDataError("params file: mu0 length does not match T")
    regularized = data.get("regularized", False)
    if not isinstance(regularized, bool):  # bool("false") is True
        raise ValueError(
            f"params regularized must be true or false, got {regularized!r}"
        )
    ridge = json_number(data.get("lambda", 0.0), "params lambda")
    if ridge < 0.0:
        raise InvalidDataError(f"params lambda must not be negative, got {ridge!r}")
    return EpisodeParams(
        mu0,
        json_numbers(data["sigma0"], "params sigma0", ndim=2),
        downsample_factor=json_int(data["d"], "params d"),
        regularized=regularized,
        ridge=ridge,
    )


def load_params_json(path) -> EpisodeParams:
    with open(path) as fh:
        return params_from_dict(json.load(fh))
