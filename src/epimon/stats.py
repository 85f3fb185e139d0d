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
block structure of the window covariance means every statistic is defined
once, in two parts: a *piece* of episode rows cropped to m samples
(:func:`episode_piece`, one formula for whole episodes, m = T, and tails,
m = tau), of which a window sums its K whole episodes' (:func:`whole_part`,
episode axis last; ``cusum`` keeps the last value and the minimum of its
drift prefix), and a *finish* (:func:`finish`) that combines it with the
tail's piece. Every caller runs these parts: :class:`BatchEvaluator` caches
the pieces of the reference rows for the bootstrap store and the BFAR replay
and sums whole parts over gathers of at most ``_GATHER_ITEMS`` pieces,
:func:`statistic_value` is a batch of one window, and the live monitor keeps
a ring of the pieces of its last episodes and their whole parts. The monitor
carries ``udt`` as a running sum and ``cusum`` as a chain of drift prefixes
instead, the same additions in the same order, so a cusum value is bitwise
the whole part and finish below.

A p-value is written once too: :func:`pvalue_grid` holds (1 + c) / (1 + B)
for every count c = 0..B of a row of B bootstrap values, and every p-value
(:func:`bootstrap_pvalues`, the live monitor's, BFAR's critical counts) is
its entry at a count. The mixed rule, the minimum of the components'
p-values, is written once: :func:`mixed_values`, the grid entry at the least
component count, taken only where store rows are resolved (the store
build, the BFAR replay and :func:`statistic_value`), each reading a mixed
kind's rows from ``BootstrapStore.component_rows``. The live monitor reads
a mixed p-value off a table of its row's p-values at every grid entry,
indexed by the least component count, which gives the same number bit for
bit (see :mod:`epimon.sequential`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .episodic import EpisodeParams, decompose_index
from .errors import InvalidDataError, NotTunedError

_VALID_NAMES = ("mean", "udt", "pdt", "hotelling", "cusum", "mixed")

# Tested windows per chunk of a batch path: a chunk holds its windows'
# values, tails and whole parts at once.
_BATCH_CHUNK = 4096
# Floats of gathered whole pieces (and of cusum's drift) per block of runs
# within a chunk: 4 MiB.
_GATHER_ITEMS = 1 << 19


def runs_per_chunk(episodes_per_run: int) -> int:
    """Runs of E tested episodes per chunk of a batch path, max(1,
    _BATCH_CHUNK // E): it bounds the chunk's tested windows, not the whole
    pieces it gathers, which :meth:`BatchEvaluator.offset_values` gathers
    a block of at most ``_GATHER_ITEMS`` floats at a time."""
    return max(1, _BATCH_CHUNK // episodes_per_run)


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
            return f"pdt:{_spell(self.p)}"
        if self.name == "cusum":
            return f"cusum:{_spell(self.k_ref)}"
        if self.name == "mixed":
            return "mixed:" + "+".join(c.spec for c in self.components)
        return self.name

    def __str__(self) -> str:
        return self.spec


def base_statistics(kinds) -> dict[str, StatisticKind]:
    """The non-mixed statistics that ``kinds`` evaluate, each once, by spec:
    every non-mixed kind and every mixed kind's components, in order."""
    bases: dict[str, StatisticKind] = {}
    for kind in kinds:
        for base in kind.components or (kind,):
            bases.setdefault(base.spec, base)
    return bases


def parse_statistic(text: str) -> StatisticKind:
    """Parse a config statistic name.

    Accepted forms: ``mean``, ``udt``, ``pdt:0.9``, ``hotelling``,
    ``cusum:0.5``, ``mixed:mean+hotelling+pdt:0.9``, plus the presets
    ``mdt`` (= mixed:mean+hotelling+pdt:0.9) and bare ``mixed``
    (= mixed:mean+pdt:0.9). A non-string raises :class:`ValueError`.
    Kinds are immutable, so each spelling is parsed once and its kind
    shared (a store load names one spec in every entry).
    """
    if not isinstance(text, str):
        raise ValueError(f"statistic must be a string, got {text!r}")
    return _parse_spelling(text)


@functools.lru_cache(maxsize=256)
def _parse_spelling(text: str) -> StatisticKind:
    """:func:`parse_statistic` of a string, memoized per spelling; a bad
    spelling raises each time, as errors are not cached."""
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


def _spell(x: float) -> str:
    """``x`` as ``:g`` (``0.9``) if that parses back to ``x``, else as repr."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(float(x))


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


def statistic_value(kind: StatisticKind, window: SignalWindow, store=None) -> float:
    """Evaluate one statistic on one window. Lower = more degraded.

    The window is a batch of one: its K whole episodes and its tail become
    the rows of a :class:`BatchEvaluator`, which evaluates a base statistic
    or each component of a mixed one. A mixed value is then
    :func:`mixed_values` against the component rows of ``store``
    (:meth:`~epimon.individual.BootstrapStore.component_rows`); a mixed
    kind without a store raises :class:`NotTunedError`.
    """
    if kind.components and store is None:
        raise NotTunedError("mixed statistic requires a bootstrap store")
    T = window.params.T
    dec = decompose_index(window.n, T)
    rows = np.zeros((dec.k + 1, T))
    rows.flat[: window.n] = window.values
    evaluator = BatchEvaluator(rows, window.params)
    whole_idx, tail_idx = np.arange(dec.k)[np.newaxis], np.array([dec.k])
    values = {b.spec: float(evaluator.values(b, whole_idx, tail_idx, dec.tau)[0])
              for b in kind.components or (kind,)}
    if kind.components:
        return float(mixed_values(store.component_rows(kind, window.n), values))
    return values[kind.spec]


# ---------------------------------------------------------------------------
# Per-episode pieces and the finish of each statistic
# ---------------------------------------------------------------------------


def episode_piece(name: str, rows: np.ndarray, params: EpisodeParams) -> np.ndarray:
    """Per-episode piece of the statistic family ``name`` for raw rows.

    ``rows`` is (R, m): episodes cropped to their first m samples, so whole
    episodes are the m = T case and one formula serves both. The piece is
    the row sum for ``mean``, ``rows @ 1' Sigma_m^-1`` for ``udt``,
    ``(rows - mu0) @ Sigma_m^-1`` for ``pdt``, the raw rows for
    ``hotelling``, and the per-step normalized deviations
    ``(mu0 - rows) / std`` for ``cusum``.
    """
    m = rows.shape[1]
    if name == "mean":
        return rows.sum(axis=1)
    if name == "udt":
        return rows @ params.tail_weights(m)
    if name == "pdt":
        return (rows - params.mu0[:m]) @ params.tail_inverse(m)
    if name == "cusum":
        return (params.mu0[:m] - rows) / params.step_std[:m]
    return rows


def whole_part(
    kind: StatisticKind, pieces: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Whole-episode part of windows from the pieces of their K whole
    episodes, oldest first along the last axis: (..., K) for ``mean`` and
    ``udt``, (..., T, K) for a row piece, as a batch's sliding view lays
    them out. The part is the sum over the episodes, except for ``cusum``,
    whose part is the last value and the minimum of the drift prefix
    P_j = sum_{i<=j} (piece_i - k_ref) over the K*T steps, on a new last
    axis of length 2 in place of the (T, K) axes. It is written to ``out``,
    a C-contiguous array of the part's shape, when one is given."""
    if kind.name == "cusum":
        steps = pieces.swapaxes(-1, -2)  # (..., K, T)
        drift = np.subtract(steps, kind.k_ref, out=np.empty(steps.shape))
        prefix = drift.reshape(steps.shape[:-2] + (-1,))
        np.cumsum(prefix, axis=-1, out=prefix)
        part = np.empty(steps.shape[:-2] + (2,)) if out is None else out
        part[..., 0] = prefix[..., -1]
        prefix.min(axis=-1, out=part[..., 1])
        return part
    return pieces.sum(axis=-1, out=out)


def finish(
    kind: StatisticKind,
    params: EpisodeParams,
    whole: np.ndarray | None,
    tail: np.ndarray,
    K: tuple[int, ...],
    tau: int,
) -> np.ndarray:
    """Values of R windows of K whole episodes plus a tau-step tail, from
    their :func:`whole_part` (None when K is (0,); left unchanged) and the
    tail :func:`episode_piece` of each window. ``K`` is a tuple: one count
    that every row shares, ``(h,)`` in a batch, or one per row of ``whole``
    with a one-row tail serving every row, as the live monitor finishes the
    stacked whole parts of all its horizons in one call. The monitor builds
    those whole parts once per family, shared by every ``pdt`` fraction,
    when the next episode starts.

    ``pdt`` takes its m smallest per-offset sums by partitioning its own
    copy in place: the sum of ``whole`` and ``tail`` is a new array, and the
    tail alone, which may be a caller's cached piece, is copied first. This
    saves the second copy ``np.partition`` makes; with the partition
    unchanged the values are bitwise the same. In a short-run probe on the
    benchmark's ``mdt_te4`` workload (4 and 6 alternating pairs of 8 s runs,
    2-vCPU host), ``np.partition``'s copy in its place read -3.9% and -4.1%
    on simulated blocks per second and +1.9% and +5.0% on tune time."""
    T = params.T
    name = kind.name
    if name == "mean":
        if whole is None:
            return tail / tau
        return (tail + whole) / params.count_scaling(K, tau).length
    if name == "udt":
        return tail if whole is None else tail + whole
    if name == "pdt":
        present = T if whole is not None else tau
        # At least one offset, also where p*T is within ceil_fraction's slack of 0.
        m = min(max(1, ceil_fraction(kind.p * T)), present)
        if whole is not None:
            sums = whole.copy()
            sums[:, :tau] += tail
        else:
            sums = tail
        if m >= present:
            return sums.sum(axis=1)
        if whole is None:
            sums = sums.copy()  # the caller's tail piece, perhaps cached
        sums.partition(m - 1, axis=1)
        return sums[:, :m].sum(axis=1)
    if name == "hotelling":
        # -delta' S^-1 delta per row as one matrix product (BLAS), with
        # delta the count-scaled deviation of the per-offset sums.
        if whole is not None:
            offset, scale, _ = params.count_scaling(K, tau)
            delta = whole - offset
            delta[:, :tau] += tail
            delta *= scale
            inv = params.sigma0_inv
        else:
            delta = tail - params.mu0[:tau]
            inv = params.tail_inverse(tau)
        return -((delta @ inv) * delta).sum(axis=1)
    # C_t = max(0, C_{t-1} + a_t) in closed form: C_n = P_n - min(0, min P).
    # The tail continues the whole part's prefix one addition at a time,
    # so P and its minimum are bitwise those of one cumsum over the window.
    # The drift gets a fresh row per window, since cumsum writes into it.
    rows = tail.shape[0] if whole is None else whole.shape[0]
    drift = np.subtract(tail, kind.k_ref, out=np.empty((rows, tau)))
    if whole is not None:
        drift[:, 0] += whole[:, 0]
    prefix = np.cumsum(drift, axis=1, out=drift)
    low = prefix.min(axis=1)
    if whole is not None:
        low = np.minimum(low, whole[:, 1])
    return -(prefix[:, -1] - np.minimum(0.0, low))


def mixed_values(components, values):
    """The mixed rule: the minimum over a mixed kind's components of their
    bootstrap p-values. ``components`` holds the (spec, sorted store row)
    pair of each component at one window length, every row of B values,
    and ``values[spec]`` its value or values on the windows. The grid is
    increasing, so the least p-value is the grid value of the least count."""
    counts = [rows.searchsorted(values[spec], side="right")
              for spec, rows in components]
    return pvalue_grid(components[0][1].size)[np.minimum.reduce(counts)]


def bootstrap_pvalues(sorted_values: np.ndarray, values):
    """p = (1 + #{b : S_b <= y}) / (1 + B) of each y in ``values`` (or of
    the single value y) against the sorted bootstrap distribution S: the
    :func:`pvalue_grid` entry at each count."""
    counts = sorted_values.searchsorted(values, side="right")
    return pvalue_grid(sorted_values.size)[counts]


@functools.lru_cache(maxsize=None)
def pvalue_grid(B: int) -> np.ndarray:
    """Every p-value a row of B bootstrap values gives, read-only: entry c
    is (1 + c) / (1 + B), the p-value of a value that c of them do not
    exceed, c = 0..B. The one place the rule is computed."""
    grid = (1.0 + np.arange(B + 1)) / (1.0 + B)
    grid.setflags(write=False)
    return grid


# ---------------------------------------------------------------------------
# Batch evaluation over windows assembled from episode rows
# ---------------------------------------------------------------------------


class BatchEvaluator:
    """Vectorized statistic evaluation for windows read off runs of
    episode rows.

    A run is one row of episode-row indices, a *stream*: the resampled runs
    of the BFAR replay, the bootstrap store's index table, or the rows of
    one window. A window of K whole episodes ending at column c of a run
    holds the whole episodes of columns c-K .. c-1 and the tail of column c,
    cropped to its first tau samples. The :func:`episode_piece` of every
    row is computed once per (family, m) and cached; :meth:`offset_values`
    gathers the whole-episode pieces of a block of runs at a time, sums
    every window's from a sliding view of that gather (:func:`whole_part`)
    and :func:`finish` turns them into values with each offset's tail. The
    bootstrap store, the BFAR replay and :func:`statistic_value` all
    evaluate through it; the live monitor keeps the same pieces in rings
    and runs the same :func:`whole_part` and :func:`finish`, but for ``udt``
    and ``cusum``, which it carries as running sums. It evaluates
    base statistics only, a pure function of (episodes, params).
    """

    def __init__(self, episodes: np.ndarray, params: EpisodeParams):
        episodes = np.asarray(episodes, dtype=float)
        if episodes.ndim != 2 or episodes.shape[1] != params.T:
            raise ValueError("episodes must be an N x T matrix matching params")
        self.episodes = episodes
        self.params = params
        self._pieces: dict[tuple[str, int], np.ndarray] = {}

    def _piece(self, name: str, m: int) -> np.ndarray:
        """Cached pieces of every row cropped to its first ``m`` samples;
        the whole episodes' are the m = T entry, which a tau = T tail shares.
        ``cusum``'s piece is elementwise, so its crops are views of the
        first m columns of the m = T entry, bitwise the same values."""
        cached = self._pieces.get((name, m))
        if cached is None:
            if name == "cusum" and m < self.params.T:
                cached = self._piece(name, self.params.T)[:, :m]
            else:
                cached = episode_piece(name, self.episodes[:, :m], self.params)
            self._pieces[(name, m)] = cached
        return cached

    def values(
        self,
        kind: StatisticKind,
        whole_idx: np.ndarray,
        tail_idx: np.ndarray,
        tau: int,
    ) -> np.ndarray:
        """Statistic values of R windows of length K*T + tau: ``whole_idx``
        is (R, K) row indices of the whole episodes (K may be 0) and
        ``tail_idx`` (R,) the row index of the episode cropped to its first
        tau samples. Each window is a run of K + 1 rows for
        :meth:`offset_values`."""
        whole_idx = np.asarray(whole_idx)
        tail_idx = np.asarray(tail_idx)
        if whole_idx.ndim != 2 or tail_idx.shape != whole_idx.shape[:1]:
            raise ValueError("whole_idx must be (R, K) and tail_idx (R,)")
        streams = np.concatenate([whole_idx, tail_idx[:, np.newaxis]], axis=1)
        horizons = (whole_idx.shape[1],)
        return self.offset_values(kind, streams, horizons, (tau,))[0, 0, :, 0]

    def offset_values(
        self,
        kind: StatisticKind,
        streams: np.ndarray,
        horizons,
        taus,
    ) -> np.ndarray:
        """Statistic values of every window of ``streams`` at each horizon
        and offset: an (H, F, R, E) array for H ``horizons``, F ``taus`` and
        the R runs of ``streams``, an (R, P + E) array of episode-row
        indices with P = max(horizons). Entry (i, j, r, e) is the window of
        horizons[i] whole episodes ending at column P + e of run r, its tail
        cropped to taus[j] samples: the last E columns are tested, the first
        P only looked back into. A horizon may be 0 (the tail alone).

        The runs are evaluated a chunk of :func:`runs_per_chunk` runs at a
        time. A chunk gathers the whole pieces of its columns a block of
        runs at a time, each gather, a (runs, P + E - 1, ...) array, at
        most ``_GATHER_ITEMS`` floats (for ``cusum``, its drift array too),
        and each horizon's whole parts are the sums of a sliding view of
        each block's gather. The chunk's windows are then finished with
        each offset's tail, once per (horizon, offset), the whole parts
        left unchanged, so every entry is bitwise a one-window, one-offset
        call. The pieces are computed once over the evaluator's rows, never
        over a subset, as a matrix product's rows can depend on how many
        rows it is given. A mixed kind raises
        :class:`ValueError`: evaluate its components and take
        :func:`mixed_values` against their store rows.
        """
        streams = np.asarray(streams)
        horizons = [int(h) for h in horizons]
        taus = [int(tau) for tau in taus]
        T = self.params.T
        if not horizons or min(horizons) < 0:
            raise ValueError("horizons must be non-negative")
        P = max(horizons)
        if streams.ndim != 2 or streams.shape[1] <= P:
            raise ValueError(f"streams must be (R, L) with L > {P}")
        if not taus or not all(1 <= tau <= T for tau in taus):
            raise ValueError(f"tau must be in [1, {T}]")
        if kind.components:
            raise ValueError(f"evaluate the components of the mixed {kind.spec}")
        R, E = streams.shape[0], streams.shape[1] - P
        name = kind.name
        piece = self._piece(name, T) if P else None
        tails = [self._piece(name, tau) for tau in taus]
        out = np.empty((len(horizons), len(taus), R, E))
        chunk = runs_per_chunk(E)
        for lo in range(0, R, chunk):
            runs = slice(lo, min(lo + chunk, R))
            n = runs.stop - lo
            tail_idx = streams[runs, P:].reshape(-1)
            wholes = [None] * len(horizons)
            if P:
                wholes = _whole_parts(kind, piece, streams[runs], horizons)
            for j, tau in enumerate(taus):
                tail = tails[j][tail_idx]
                for i, (h, whole) in enumerate(zip(horizons, wholes)):
                    y = finish(kind, self.params, whole, tail, (h,), tau)
                    out[i, j, runs] = y.reshape(n, E)
        return out


def _whole_parts(kind: StatisticKind, piece: np.ndarray, streams: np.ndarray,
                 horizons: list[int]) -> list:
    """The :func:`whole_part` of every window of ``streams``, (R, P + E)
    episode-row indices, at each horizon: (R * E, ...) arrays, None for
    horizon 0, from ``piece``, the whole episodes' pieces.

    The runs are gathered a block at a time, at most ``_GATHER_ITEMS``
    floats of pieces per block (and, for ``cusum``, of drift), and each
    block's whole parts are written straight into its rows of the chunk's
    arrays. A window's part reduces its own pieces only, so the blocking
    leaves every value bitwise the same."""
    R, P = streams.shape[0], max(horizons)
    E = streams.shape[1] - P
    # A run's gather holds P + E - 1 pieces of piece[0].size floats (1 or
    # T); cusum's drift at horizon P holds E * P, which is no fewer.
    per_run = (E * P if kind.name == "cusum" else P + E - 1) * piece[0].size
    block = max(1, _GATHER_ITEMS // per_run)
    shape = (R, E) + ((2,) if kind.name == "cusum" else piece.shape[1:])
    wholes = [np.empty(shape) if h else None for h in horizons]
    for lo in range(0, R, block):
        rows = slice(lo, lo + block)
        _block_whole_parts(kind, piece, streams[rows], horizons,
                           [w if w is None else w[rows] for w in wholes])
    return [w if w is None else w.reshape(R * E, *shape[2:]) for w in wholes]


def _block_whole_parts(kind: StatisticKind, piece: np.ndarray, streams: np.ndarray,
                       horizons: list[int], outs: list) -> None:
    """Write the whole parts of a block of runs at each horizon into
    ``outs``, (runs, E, ...) arrays, from one gather of their pieces, which
    is freed on return."""
    P = max(horizons)
    # windows[r, e, ..., :] are the P whole pieces before column P + e of
    # run r, oldest first; horizon h takes the last h.
    gathered = piece[streams[:, :-1]]
    windows = np.lib.stride_tricks.sliding_window_view(gathered, P, axis=1)
    for h, out in zip(horizons, outs):
        if h:
            whole_part(kind, windows[..., P - h :], out=out)
