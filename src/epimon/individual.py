"""Individual degradation test: bootstrap null distributions and the
threshold decision.

The null distribution of a statistic at window length n is estimated by
resampling: each repetition assembles a synthetic window of K whole episodes
drawn uniformly with replacement from the reference dataset plus one episode
cropped to its first tau0 samples, evaluates the statistic, and the sorted
values form the distribution. The test then compares the observed value y:

* p-value  p = (1 + #{b : S_b <= y}) / (1 + B), so p in [1/(B+1), 1];
* reject   y < kappa_alpha, with kappa_alpha the empirical alpha-quantile.

The quantile convention is the lower order statistic at 1-based index
max(1, ceil(alpha*B)), which keeps the realized false-alarm rate conservative.
The quantile rule is authoritative for `reject`; on ties it can disagree with
"p < alpha" by one rank (ties never reject).

Resample indices for repetition b derive from the (seed, "boot", b)
substream -- independent of the statistic kind and window length -- so every
statistic sees the same synthetic windows and windows of different lengths
are nested within a repetition. This makes the whole decision invariant to
monotone reparameterizations of a statistic, makes statistics that differ by
a constant produce identical decisions, and couples the stored distributions
across lengths the same way a live monitor's growing windows are coupled.

A :class:`BootstrapStore` therefore draws one (B, K_max+1) index table, at
the longest window length it needs, and slices its leading K+1 columns for
every (statistic, length) entry. Slicing is exact, not an approximation:
``Generator.integers`` produces its output values in order from the stream,
so the first K+1 values of a longer draw are the values a draw of length
K+1 returns.

Store file format (version 2). The store is a JSON object with
``format_version``, ``B``, ``seed`` and ``entries``; each entry has the
statistic spec ``kind``, the window length ``n`` and ``values``, the base64
of the entry's B sorted values as little-endian float64 (``'<f8'``) bytes.
Storing the bytes keeps every value bit-exact and costs far less to write
and read than decimal text. A reader accepts only this version.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .episodic import (
    EpisodeParams,
    ReferenceDataset,
    check_format_version,
    decompose_index,
)
from .errors import NotTunedError
from .rng import substream
from .stats import (
    BatchEvaluator,
    SignalWindow,
    StatisticKind,
    bootstrap_pvalues,
    mixed_values,
    parse_statistic,
    statistic_value,
)

STORE_FORMAT_VERSION = 2


def empirical_quantile_index(alpha: float, B: int) -> int:
    """1-based index of the empirical alpha-quantile: max(1, ceil(alpha*B)).

    ceil is evaluated with a small slack so binary-float artifacts such as
    0.05*2000 = 100.00000000000001 do not shift the rank.
    """
    return max(1, min(B, int(math.ceil(alpha * B - 1e-9))))


def threshold_decision(
    sorted_values: np.ndarray, y: float, alpha: float
) -> tuple[bool, float]:
    """Decision and p-value of a threshold test given the sorted null values."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    p = float(bootstrap_pvalues(sorted_values, y))
    kappa = sorted_values[empirical_quantile_index(alpha, sorted_values.size) - 1]
    return bool(y < kappa), p


def resample_indices(
    num_episodes: int, n: int, T: int, B: int, seed: int
) -> np.ndarray:
    """(B, K+1) episode-row indices for the synthetic windows of length n.

    Column layout: K whole episodes then the tail episode (cropped to tau0 by
    the caller). Repetition b draws the leading K+1 values of the
    (seed, "boot", b) substream, so windows of different lengths within the
    same repetition are nested -- shorter windows are prefixes of longer ones,
    the same way a monitor's windows grow along one stream. This couples the
    extreme tails of the stored distributions across window lengths, which
    keeps the family-wise probability of hitting the 1/(B+1) p-value floor
    governed by the number of horizons rather than the number of distinct
    lengths.

    Because the draw at length n is a prefix of the draw at any longer
    length, the columns ``[:, :k+1]`` of one table drawn at the longest
    length equal this function's result at every shorter length with K = k;
    :class:`BootstrapStore` relies on that to build each of its B generators
    once rather than once per entry.
    """
    dec = decompose_index(n, T)
    idx = np.empty((B, dec.k + 1), dtype=np.intp)
    for b in range(B):
        rng = substream(seed, "boot", b)
        idx[b] = rng.integers(0, num_episodes, size=dec.k + 1)
    return idx


def bootstrap_distribution(
    ref: ReferenceDataset,
    params: EpisodeParams,
    kind: StatisticKind,
    n: int,
    B: int,
    seed: int,
    evaluator: BatchEvaluator | None = None,
    store: "BootstrapStore | None" = None,
) -> np.ndarray:
    """Sorted bootstrap distribution of ``kind`` at window length ``n``.

    Mixed statistics are evaluated against ``store`` (component distributions
    at the same length, built on demand).
    """
    if B < 1 or n < 1:
        raise ValueError("B and n must be positive")
    if evaluator is None:
        evaluator = BatchEvaluator(ref.episodes, params)
    idx = resample_indices(ref.num_episodes, n, params.T, B, seed)
    dec = decompose_index(n, params.T)
    return _sorted(evaluator.values(kind, idx[:, : dec.k], idx[:, dec.k], dec.tau, store))


def _sorted(values: np.ndarray) -> np.ndarray:
    """Read-only sorted copy of ``values``: one store entry."""
    values = np.sort(values)
    values.setflags(write=False)
    return values


def _encode_values(values: np.ndarray) -> str:
    """base64 of ``values`` as little-endian float64 bytes."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode_values(text: str, B: int, key: tuple[str, int]) -> np.ndarray:
    """Read-only entry decoded from :func:`_encode_values` output; it must
    hold exactly B finite values in non-decreasing order."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * B:
        raise ValueError(
            f"store entry {key} holds {len(raw)} bytes, expected {8 * B} for B={B}"
        )
    values = np.frombuffer(raw, dtype="<f8")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"store entry {key} has non-finite values")
    if np.any(values[1:] < values[:-1]):
        raise ValueError(f"store entry {key} is not sorted")
    return values


class BootstrapStore:
    """Cached per-window-length bootstrap distributions of each statistic.

    Keys are (statistic spec, window length); each entry is a sorted vector of
    exactly B finite values, a deterministic function of (reference data, key,
    B, seed). A store built from a reference dataset fills entries lazily on
    demand (offline mode); :meth:`freeze` forbids further fills, which is the
    contract during live monitoring where every length must be precomputed.

    Every entry slices one shared (B, K_max+1) episode-index table (see
    :func:`resample_indices`). The table is drawn at the longest length
    needed so far and redrawn wider if a later entry needs a longer window;
    :meth:`freeze` drops it.

    :meth:`to_dict` writes store format version 2 (see the module
    docstring): ``format_version``, ``B``, ``seed`` and ``entries[].kind/n``
    as JSON, each entry's ``values`` as base64 of its sorted little-endian
    float64 bytes. :meth:`from_dict` rejects any other version and any
    entry that does not decode to B finite, non-decreasing values.
    """

    def __init__(
        self,
        params: EpisodeParams,
        B: int,
        seed: int,
        reference: ReferenceDataset | None = None,
        entries: dict[tuple[str, int], np.ndarray] | None = None,
        frozen: bool = False,
    ):
        if B < 1:
            raise ValueError("B must be positive")
        self.params = params
        self.B = int(B)
        self.seed = int(seed)
        self.reference = reference
        self.entries: dict[tuple[str, int], np.ndarray] = dict(entries or {})
        self.frozen = bool(frozen)
        self._evaluator: BatchEvaluator | None = None
        self._indices: np.ndarray | None = None

    def freeze(self) -> None:
        self.frozen = True
        self._indices = None

    def _index_table(self, n: int) -> np.ndarray:
        """The shared index table, at least as wide as length ``n`` needs."""
        k = decompose_index(n, self.params.T).k
        if self._indices is None or self._indices.shape[1] <= k:
            self._indices = resample_indices(
                self.reference.num_episodes, n, self.params.T, self.B, self.seed
            )
        return self._indices

    def _get_evaluator(self) -> BatchEvaluator:
        if self._evaluator is None:
            self._evaluator = BatchEvaluator(self.reference.episodes, self.params)
        return self._evaluator

    def values_for(self, kind: StatisticKind, n: int) -> np.ndarray:
        """Sorted distribution for (kind, n), building it if allowed."""
        key = (kind.spec, int(n))
        entry = self.entries.get(key)
        if entry is None:
            dec = decompose_index(int(n), self.params.T)
            self._build(kind, dec.k, [dec.tau])
            entry = self.entries[key]
        return entry

    def ensure(self, kinds, lengths) -> None:
        """Precompute all (kind, length) entries (tuning phase 1).

        The index table is drawn once, at the longest length, before any
        entry is built. Lengths with the same number K of whole episodes
        are built together, so each statistic's whole-episode part is
        computed once per K rather than once per length.
        """
        if lengths and self.reference is not None and not self.frozen:
            self._index_table(max(lengths))
        offsets: dict[int, list[int]] = {}
        for n in sorted(set(int(n) for n in lengths)):
            dec = decompose_index(n, self.params.T)
            offsets.setdefault(dec.k, []).append(dec.tau)
        for kind in kinds:
            for K, taus in offsets.items():
                self._build(kind, K, taus)

    def _build(self, kind: StatisticKind, K: int, taus) -> None:
        """Fill the missing entries of ``kind``, and of a mixed kind's
        components, at the lengths K*T + tau.

        A mixed kind's component values are computed once and serve both
        the component's own entry and the mixed p-values.
        """
        T = self.params.T
        specs = [comp.spec for comp in kind.components] + [kind.spec]
        missing = [
            (spec, K * T + tau)
            for tau in taus
            for spec in specs
            if (spec, K * T + tau) not in self.entries
        ]
        if not missing:
            return
        if self.frozen or self.reference is None:
            spec, n = missing[0]
            raise NotTunedError(
                f"no bootstrap distribution for {spec!r} at length {n}"
            )
        taus = sorted({n - K * T for _, n in missing})
        lengths = [K * T + tau for tau in taus]
        idx = self._index_table(lengths[-1])
        whole_idx, tail_idx = idx[:, :K], idx[:, K]
        evaluator = self._get_evaluator()

        def put(stat, values):
            for n, vals in zip(lengths, values):
                if (stat.spec, n) not in self.entries:
                    self.entries[(stat.spec, n)] = _sorted(vals)

        if kind.components:
            component_values = [
                evaluator.offset_values(comp, whole_idx, tail_idx, taus)
                for comp in kind.components
            ]
            for comp, values in zip(kind.components, component_values):
                put(comp, values)
            put(kind, mixed_values(kind, lengths, component_values, self))
        else:
            put(kind, evaluator.offset_values(kind, whole_idx, tail_idx, taus))

    def to_dict(self) -> dict:
        entries = [
            {"kind": spec, "n": n, "values": _encode_values(vals)}
            for (spec, n), vals in sorted(self.entries.items())
        ]
        return {
            "format_version": STORE_FORMAT_VERSION,
            "B": self.B,
            "seed": self.seed,
            "entries": entries,
        }

    @classmethod
    def from_dict(
        cls,
        data: dict,
        params: EpisodeParams,
        reference: ReferenceDataset | None = None,
    ) -> "BootstrapStore":
        check_format_version(
            data, STORE_FORMAT_VERSION, "store",
            "; re-run `epimon tune` to rebuild it",
        )
        B = int(data["B"])
        entries: dict[tuple[str, int], np.ndarray] = {}
        for item in data["entries"]:
            kind = parse_statistic(item["kind"])  # validates the spelling
            key = (kind.spec, int(item["n"]))
            entries[key] = _decode_values(item["values"], B, key)
        return cls(
            params,
            B,
            int(data["seed"]),
            reference=reference,
            entries=entries,
            frozen=reference is None,
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path, params: EpisodeParams) -> "BootstrapStore":
        with open(path) as fh:
            return cls.from_dict(json.load(fh), params)


def individual_test(
    window: SignalWindow,
    kind: StatisticKind,
    store: BootstrapStore,
    alpha: float,
) -> tuple[bool, float]:
    """Run one threshold test: returns (reject, p-value)."""
    dist = store.values_for(kind, window.n)
    y = statistic_value(kind, window, store)
    return threshold_decision(dist, y, alpha)
