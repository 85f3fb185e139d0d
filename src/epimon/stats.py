"""Test statistics over signal windows.

Six statistics are supported, all sharing one orientation -- a LOWER value is
stronger evidence of degradation -- so a single threshold shape (reject iff
s < kappa) serves every test:

* ``mean``       -- plain average of the window.
* ``udt``        -- covariance-weighted mean W.x with W = 1' Sigma^-1, the
                    optimal statistic for a uniform mean drop.
* ``pdt:p``      -- sum of the m = ceil(p*T) smallest per-offset aggregates of
                    Sigma^-1 (x - mu), targeting degradation confined to a
                    fraction p of the within-episode offsets.
* ``hotelling``  -- negated two-sided quadratic in the per-offset deviations
                    (sign-blind baseline).
* ``cusum:k``    -- negated lower-sided cumulative sum of per-step normalized
                    deviations with reference value k, restarted at the window
                    start.
* ``mixed:a+b``  -- minimum of the component statistics' bootstrap p-values, a
                    value in (0, 1].

Windows always start at an episode boundary: a window of n = K*T + tau steps
covers K whole episodes followed by the first tau steps of the next one. The
block structure of the window covariance means every statistic decomposes
into per-episode pieces plus a tau-block tail term; ``BatchEvaluator``
exploits that to evaluate thousands of resampled windows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .episodic import EpisodeParams, decompose_index, window_weights
from .errors import DegenerateVarianceError, InvalidDataError, NotTunedError

_VALID_NAMES = ("mean", "udt", "pdt", "hotelling", "cusum", "mixed")

# Chunk size (rows) for batch paths that must materialize gathered episodes.
_BATCH_CHUNK = 4096


def ceil_fraction(x: float) -> int:
    """ceil(x) robust to binary-float artifacts (0.9*40 -> 36, not 37)."""
    return int(math.ceil(x - 1e-9))


@dataclass(frozen=True)
class StatisticKind:
    """One of the supported test statistics, with its parameters.

    Use the classmethod constructors or :func:`parse_statistic`; the config
    spelling (``"pdt:0.9"``, ``"mixed:mean+pdt:0.9"``) is available as
    ``.spec`` and used as the storage key everywhere.
    """

    name: str
    p: float | None = None
    k_ref: float | None = None
    components: tuple["StatisticKind", ...] = field(default=())

    def __post_init__(self):
        if self.name not in _VALID_NAMES:
            raise ValueError(f"unknown statistic {self.name!r}")
        if self.name == "pdt":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise ValueError(f"pdt fraction must be in (0, 1], got {self.p}")
        if self.name == "cusum":
            if self.k_ref is None or not np.isfinite(self.k_ref):
                raise ValueError("cusum requires a finite reference value")
        if self.name == "mixed":
            if len(self.components) < 2:
                raise ValueError("mixed requires at least 2 components")
            if any(c.name == "mixed" for c in self.components):
                raise ValueError("mixed components cannot be mixed themselves")
        elif self.components:
            raise ValueError(f"{self.name} takes no components")

    @classmethod
    def mean(cls) -> "StatisticKind":
        return cls("mean")

    @classmethod
    def udt(cls) -> "StatisticKind":
        return cls("udt")

    @classmethod
    def pdt(cls, p: float) -> "StatisticKind":
        return cls("pdt", p=float(p))

    @classmethod
    def hotelling(cls) -> "StatisticKind":
        return cls("hotelling")

    @classmethod
    def cusum(cls, k_ref: float = 0.5) -> "StatisticKind":
        return cls("cusum", k_ref=float(k_ref))

    @classmethod
    def mixed(cls, *components: "StatisticKind") -> "StatisticKind":
        return cls("mixed", components=tuple(components))

    @property
    def spec(self) -> str:
        """Canonical config spelling; also the bootstrap-store key."""
        if self.name == "pdt":
            return f"pdt:{self.p:g}"
        if self.name == "cusum":
            return f"cusum:{self.k_ref:g}"
        if self.name == "mixed":
            return "mixed:" + "+".join(c.spec for c in self.components)
        return self.name

    def __str__(self) -> str:
        return self.spec


def parse_statistic(text: str) -> StatisticKind:
    """Parse a config statistic name.

    Accepted forms: ``mean``, ``udt``, ``pdt:0.9``, ``hotelling``,
    ``cusum:0.5``, ``mixed:mean+hotelling+pdt:0.9``, plus the presets
    ``mdt`` (= mixed:mean+hotelling+pdt:0.9) and bare ``mixed``
    (= mixed:mean+pdt:0.9).
    """
    text = text.strip().lower()
    if text == "mdt":
        return MDT_PRESET
    if text == "mixed":
        return MIXED_MEAN_PDT_PRESET
    head, sep, rest = text.partition(":")
    if head == "mean":
        _require_no_arg(text, sep)
        return StatisticKind.mean()
    if head == "udt":
        _require_no_arg(text, sep)
        return StatisticKind.udt()
    if head == "hotelling":
        _require_no_arg(text, sep)
        return StatisticKind.hotelling()
    if head == "pdt":
        return StatisticKind.pdt(_parse_float(text, rest))
    if head == "cusum":
        return StatisticKind.cusum(_parse_float(text, rest) if sep else 0.5)
    if head == "mixed":
        parts = [p for p in rest.split("+") if p]
        return StatisticKind.mixed(*(parse_statistic(p) for p in parts))
    raise ValueError(f"unknown statistic {text!r}")


def _require_no_arg(text: str, sep: str) -> None:
    if sep:
        raise ValueError(f"statistic {text!r} takes no parameter")


def _parse_float(text: str, token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ValueError(f"bad parameter in statistic {text!r}") from exc


MDT_PRESET = StatisticKind.mixed(
    StatisticKind.mean(), StatisticKind.hotelling(), StatisticKind.pdt(0.9)
)
MIXED_MEAN_PDT_PRESET = StatisticKind.mixed(
    StatisticKind.mean(), StatisticKind.pdt(0.9)
)


@dataclass(frozen=True)
class SignalWindow:
    """A contiguous slice of the monitored stream, starting at an episode
    boundary: K whole episodes plus a partial tail of tau steps (oldest
    first). NaN/inf samples are rejected at construction."""

    values: np.ndarray
    params: EpisodeParams

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("window values must be a non-empty 1-D vector")
        if not np.all(np.isfinite(values)):
            raise InvalidDataError("window contains non-finite samples")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def whole_episodes(self) -> int:
        return decompose_index(self.n, self.params.T).k

    @property
    def phase(self) -> int:
        """Within-episode position of the last sample."""
        return decompose_index(self.n, self.params.T).tau


# ---------------------------------------------------------------------------
# Scalar evaluation
# ---------------------------------------------------------------------------


def statistic_value(kind: StatisticKind, window: SignalWindow, store=None) -> float:
    """Evaluate one statistic on one window. Lower = more degraded.

    ``store`` is only consulted for mixed statistics, whose value is the
    minimum of the component p-values against the store's per-length bootstrap
    distributions; a missing store raises :class:`NotTunedError`.
    """
    values = window.values
    params = window.params
    if kind.name == "mean":
        return float(values.mean())
    if kind.name == "udt":
        return float(window_weights(params, values.size) @ values)
    if kind.name == "pdt":
        offset_sums, present = _pdt_offset_sums(values, params)
        return _smallest_sum(offset_sums, _pdt_m(kind.p, params.T, present))
    if kind.name == "hotelling":
        return _hotelling_value(values, params)
    if kind.name == "cusum":
        return _cusum_value(values, params, kind.k_ref)
    if kind.name == "mixed":
        if store is None:
            raise NotTunedError("mixed statistic requires a bootstrap store")
        ps = [
            _store_pvalue(store, comp, window)
            for comp in kind.components
        ]
        return min(ps)
    raise ValueError(f"unknown statistic {kind.name!r}")


def _store_pvalue(store, kind: StatisticKind, window: SignalWindow) -> float:
    dist = store.values_for(kind, window.n)
    y = statistic_value(kind, window, store)
    count = int(np.searchsorted(dist, y, side="right"))
    return (1 + count) / (1 + dist.size)


def _pdt_m(p: float, T: int, present: int) -> int:
    return min(ceil_fraction(p * T), present)


def _pdt_offset_sums(values: np.ndarray, params: EpisodeParams):
    """Per-offset sums of Sigma^-1 (x - mu) over the window.

    Whole episodes use sigma0^-1; the tail uses the tau-block inverse. For
    windows shorter than one episode only the first tau offsets exist.
    """
    T = params.T
    dec = decompose_index(values.size, T)
    K, tau = dec.k, dec.tau
    tail = values[K * T :]
    tail_part = params.tail_inverse(tau) @ (tail - params.mu0[:tau])
    if K == 0:
        return tail_part, tau
    body = values[: K * T].reshape(K, T)
    sums = ((body - params.mu0) @ params.sigma0_inv).sum(axis=0)
    sums[:tau] += tail_part
    return sums, T


def _smallest_sum(offset_sums: np.ndarray, m: int) -> float:
    if m >= offset_sums.size:
        return float(offset_sums.sum())
    return float(np.partition(offset_sums, m - 1)[:m].sum())


def _hotelling_value(values: np.ndarray, params: EpisodeParams) -> float:
    T = params.T
    dec = decompose_index(values.size, T)
    K, tau = dec.k, dec.tau
    tail = values[K * T :]
    if K == 0:
        delta = tail - params.mu0[:tau]
        q = float(delta @ params.tail_inverse(tau) @ delta)
        return -q
    sums = values[: K * T].reshape(K, T).sum(axis=0)
    counts = np.full(T, float(K))
    sums = sums.copy()
    sums[:tau] += tail
    counts[:tau] += 1.0
    delta = sums / counts - params.mu0
    g = delta * np.sqrt(counts)
    return -float(g @ params.sigma0_inv @ g)


def _cusum_drift(values: np.ndarray, params: EpisodeParams, k_ref: float):
    std = params.step_std
    if std.min() <= 0.0:
        raise DegenerateVarianceError("cusum requires positive per-step std")
    T = params.T
    n = values.shape[-1]
    dec = decompose_index(n, T)
    reps = dec.k + (1 if dec.tau else 0)
    mu_rep = np.tile(params.mu0, reps)[:n]
    std_rep = np.tile(std, reps)[:n]
    return (mu_rep - values) / std_rep - k_ref


def _cusum_value(values: np.ndarray, params: EpisodeParams, k_ref: float) -> float:
    # C_t = max(0, C_{t-1} + a_t) solved in closed form: C_n = P_n - min(0, min P).
    prefix = np.cumsum(_cusum_drift(values, params, k_ref))
    c_final = prefix[-1] - min(0.0, float(prefix.min()))
    return -float(c_final)


# ---------------------------------------------------------------------------
# Batch evaluation over windows assembled from episode rows
# ---------------------------------------------------------------------------


class BatchEvaluator:
    """Vectorized statistic evaluation for windows built from episode rows.

    A window is described by K whole-episode row indices plus one tail row
    cropped to its first tau samples -- exactly the shape produced by the
    bootstrap resampler and by the BFAR simulation. Per-episode pieces
    (row sums, weighted sums, solved deviations) are precomputed once per
    (episodes, params) pair, so evaluating B windows costs O(B*K) gathers
    instead of O(B*n) arithmetic for the linear statistics.

    :meth:`offset_values` evaluates one set of windows at several offsets
    tau at once. The K whole episodes are the same at every offset, so the
    whole-episode part of the statistic -- the summed row sums (``mean``),
    ``udt`` weights or ``Sigma^-1 (x - mu)`` rows (``pdt``), the summed
    episodes (``hotelling``), or the concatenated episodes (``cusum``) -- is
    built once per chunk of ``_BATCH_CHUNK`` windows. Each offset then adds
    its tau-step tail to a copy of that part and finishes with the same
    per-row operations a single offset uses, so every row of the result is
    bitwise the one-offset :meth:`values` call at that offset.
    """

    def __init__(self, episodes: np.ndarray, params: EpisodeParams):
        episodes = np.asarray(episodes, dtype=float)
        if episodes.ndim != 2 or episodes.shape[1] != params.T:
            raise ValueError("episodes must be an N x T matrix matching params")
        self.episodes = episodes
        self.params = params
        self._row_csums = np.cumsum(episodes, axis=1)
        # Per-episode rows each statistic gathers for its whole episodes:
        # summed over them, except cusum, which concatenates them.
        self._pieces = {
            "mean": episodes.sum(axis=1),
            "udt": episodes @ params.full_weights,
            "pdt": (episodes - params.mu0) @ params.sigma0_inv,
            "hotelling": episodes,
            "cusum": episodes,
        }
        self._udt_tail: dict[int, np.ndarray] = {}
        self._pdt_tail: dict[int, np.ndarray] = {}

    def _udt_tail_for(self, tau: int) -> np.ndarray:
        cached = self._udt_tail.get(tau)
        if cached is None:
            cached = self.episodes[:, :tau] @ self.params.tail_weights(tau)
            self._udt_tail[tau] = cached
        return cached

    def _pdt_tail_for(self, tau: int) -> np.ndarray:
        cached = self._pdt_tail.get(tau)
        if cached is None:
            dev = self.episodes[:, :tau] - self.params.mu0[:tau]
            cached = dev @ self.params.tail_inverse(tau)
            self._pdt_tail[tau] = cached
        return cached

    def values(
        self,
        kind: StatisticKind,
        whole_idx: np.ndarray,
        tail_idx: np.ndarray,
        tau: int,
        store=None,
    ) -> np.ndarray:
        """Statistic values for R windows of length K*T + tau: the
        one-offset case of :meth:`offset_values`."""
        return self.offset_values(kind, whole_idx, tail_idx, (tau,), store)[0]

    def offset_values(
        self,
        kind: StatisticKind,
        whole_idx: np.ndarray,
        tail_idx: np.ndarray,
        taus,
        store=None,
    ) -> np.ndarray:
        """Statistic values of R windows at each offset: a (len(taus), R)
        array whose row i holds the windows of length K*T + taus[i].

        ``whole_idx`` is (R, K) row indices of the whole episodes (K may be
        0); ``tail_idx`` is (R,) row indices of the episode cropped to its
        first tau samples. ``store`` is only read by mixed statistics.
        """
        whole_idx = np.asarray(whole_idx)
        tail_idx = np.asarray(tail_idx)
        if whole_idx.ndim != 2 or whole_idx.shape[0] != tail_idx.shape[0]:
            raise ValueError("whole_idx must be (R, K) and tail_idx (R,)")
        taus = [int(tau) for tau in taus]
        T = self.params.T
        if not taus or not all(1 <= tau <= T for tau in taus):
            raise ValueError(f"tau must be in [1, {T}]")
        R, K = whole_idx.shape
        if kind.name == "mixed":
            component_values = [
                self.offset_values(comp, whole_idx, tail_idx, taus, store)
                for comp in kind.components
            ]
            lengths = [K * T + tau for tau in taus]
            return self.mixed_values(kind, lengths, component_values, store)
        piece = self._pieces[kind.name]
        out = np.empty((len(taus), R))
        for lo in range(0, R, _BATCH_CHUNK):
            rows = slice(lo, min(lo + _BATCH_CHUNK, R))
            whole = None
            if K:
                whole = piece[whole_idx[rows]]
                if kind.name == "cusum":
                    whole = whole.reshape(whole.shape[0], K * T)
                else:
                    whole = whole.sum(axis=1)
            for i, tau in enumerate(taus):
                out[i, rows] = self._finish(kind, whole, tail_idx[rows], K, tau)
        return out

    def _finish(self, kind, whole, tail_rows, K, tau):
        """One offset's values for a chunk of windows, given the chunk's
        whole-episode part (None when K == 0), which is left unchanged."""
        params = self.params
        T = params.T
        name = kind.name
        if name == "mean":
            out = self._row_csums[tail_rows, tau - 1]
            return (out + whole if K else out) / (K * T + tau)
        if name == "udt":
            out = self._udt_tail_for(tau)[tail_rows]
            return out + whole if K else out
        if name == "pdt":
            present = T if K else tau
            m = _pdt_m(kind.p, T, present)
            tail = self._pdt_tail_for(tau)[tail_rows]
            if K:
                sums = whole.copy()
                sums[:, :tau] += tail
            else:
                sums = tail
            if m >= present:
                return sums.sum(axis=1)
            return np.partition(sums, m - 1, axis=1)[:, :m].sum(axis=1)
        tail = self.episodes[tail_rows, :tau]
        if name == "hotelling":
            if not K:
                delta = tail - params.mu0[:tau]
                inv = params.tail_inverse(tau)
                return -np.einsum("ij,jk,ik->i", delta, inv, delta)
            counts = np.full(T, float(K))
            counts[:tau] += 1.0
            sums = whole.copy()
            sums[:, :tau] += tail
            delta = (sums / counts - params.mu0) * np.sqrt(counts)
            return -np.einsum("ij,jk,ik->i", delta, params.sigma0_inv, delta)
        windows = np.concatenate([whole, tail], axis=1) if K else tail
        prefix = np.cumsum(_cusum_drift(windows, params, kind.k_ref), axis=1)
        return -(prefix[:, -1] - np.minimum(0.0, prefix.min(axis=1)))

    def mixed_values(
        self, kind: StatisticKind, lengths, component_values, store
    ) -> np.ndarray:
        """A mixed statistic from its components' :meth:`offset_values` on
        the same windows: row i is the minimum over components of their
        p-values against the store's distributions at ``lengths[i]``."""
        if store is None:
            raise NotTunedError("mixed statistic requires a bootstrap store")
        out = np.empty_like(component_values[0])
        for i, n in enumerate(lengths):
            out[i] = np.minimum.reduce([
                bootstrap_pvalues(store.values_for(comp, n), vals[i])
                for comp, vals in zip(kind.components, component_values)
            ])
        return out


def bootstrap_pvalues(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """p = (1 + #{b : S_b <= y}) / (1 + B) of each y in ``values`` against
    the sorted bootstrap distribution S."""
    counts = np.searchsorted(sorted_values, values, side="right")
    return (1.0 + counts) / (1.0 + sorted_values.size)
