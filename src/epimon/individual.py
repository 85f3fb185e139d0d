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

Resample indices come from one table drawn from the (seed, "boot")
substream, one row per repetition, drawn before any window is evaluated
and independent of the statistic kind and window length, so every
statistic sees the same synthetic windows and windows of different lengths
are nested within a repetition. This makes the whole decision invariant to
monotone reparameterizations of a statistic, makes statistics that differ by
a constant produce identical decisions, and couples the stored distributions
across lengths the same way a live monitor's growing windows are coupled.

A :class:`BootstrapStore` is filled one way, by
``BootstrapStore.ensure(ref, kinds, lengths)`` at tuning time. Each call
draws one (B, K_max+1) index table, at the longest of ``lengths``, and
slices its leading K+1 columns for every (statistic, length) entry.
Slicing is exact, not an approximation: ``Generator.integers`` produces its
output values in order from the stream, and the table is drawn one episode
position at a time (all B repetitions' first episode, then all their
second, ...), so the first (K+1)*B values of a longer draw are the values
a draw at K+1 returns.

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
    json_int,
)
from .errors import NotTunedError
from .rng import substream
from .stats import (
    BatchEvaluator,
    SignalWindow,
    StatisticKind,
    base_statistics,
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
    the caller). The table is the transpose of one (K+1, B) draw from the
    (seed, "boot") substream: row b is repetition b, and the draw fills one
    episode position for all B repetitions before the next. So the table at
    K+1 is the first (K+1)*B values of any longer draw, and windows of
    different lengths within the same repetition are nested -- shorter
    windows are prefixes of longer ones, the same way a monitor's windows
    grow along one stream. This couples the extreme tails of the stored
    distributions across window lengths, which keeps the family-wise
    probability of hitting the 1/(B+1) p-value floor governed by the number
    of horizons rather than the number of distinct lengths.

    Because the draw at length n is a prefix of the draw at any longer
    length, the columns ``[:, :k+1]`` of one table drawn at the longest
    length equal this function's result at every shorter length with K = k;
    :meth:`BootstrapStore.ensure` relies on that to draw one table per call
    rather than one per entry.
    """
    dec = decompose_index(n, T)
    rng = substream(seed, "boot")
    return rng.integers(0, num_episodes, size=(dec.k + 1, B)).T


def bootstrap_distribution(
    ref: ReferenceDataset,
    params: EpisodeParams,
    kind: StatisticKind,
    n: int,
    B: int,
    seed: int,
) -> np.ndarray:
    """Sorted bootstrap distribution of the base statistic ``kind`` at
    window length ``n``; a mixed one's entries are built only by
    :meth:`BootstrapStore.ensure`."""
    if B < 1 or n < 1:
        raise ValueError("B and n must be positive")
    evaluator = BatchEvaluator(ref.episodes, params)
    idx = resample_indices(ref.num_episodes, n, params.T, B, seed)
    dec = decompose_index(n, params.T)
    return _sorted(evaluator.values(kind, idx[:, : dec.k], idx[:, dec.k], dec.tau))


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
    """Per-window-length bootstrap distributions of each statistic.

    Keys are (statistic spec, window length); each entry is a sorted vector of
    exactly B finite values, a deterministic function of (reference data, key,
    B, seed). :meth:`ensure` is the one way to fill a store: it builds every
    entry a plan needs from the reference data at tuning time. Everything
    else only reads: :meth:`values_for` raises :class:`NotTunedError` for a
    missing entry, so live monitoring never waits on bootstrap work.

    :meth:`to_dict` writes store format version 2 (see the module
    docstring): ``format_version``, ``B``, ``seed`` and ``entries[].kind/n``
    as JSON, each entry's ``values`` as base64 of its sorted little-endian
    float64 bytes. :meth:`from_dict` rejects any other version, a ``B``,
    ``seed`` or entry ``n`` that is not a JSON integer, any entry that
    does not decode to B finite, non-decreasing values, and two entries
    that parse to one (spec, n) key.
    """

    def __init__(
        self,
        params: EpisodeParams,
        B: int,
        seed: int,
        entries: dict[tuple[str, int], np.ndarray] | None = None,
    ):
        if B < 1:
            raise ValueError("B must be positive")
        self.params = params
        self.B = int(B)
        self.seed = int(seed)
        self.entries: dict[tuple[str, int], np.ndarray] = dict(entries or {})

    def values_for(self, kind: StatisticKind, n: int) -> np.ndarray:
        """Sorted distribution for (kind, n)."""
        entry = self.entries.get((kind.spec, int(n)))
        if entry is None:
            raise NotTunedError(
                f"no bootstrap distribution for {kind.spec!r} at length {n}"
            )
        return entry

    def component_rows(self, kind: StatisticKind, n: int) -> list:
        """(spec, sorted row) of each component of a mixed ``kind`` at n."""
        return [(c.spec, self.values_for(c, n)) for c in kind.components]

    def ensure(self, ref: ReferenceDataset, kinds, lengths) -> None:
        """Build the entries of ``kinds``, and of every mixed kind's
        components, at each of ``lengths`` from the reference data ``ref``.

        One index table is drawn, at the longest length, and every entry
        slices it. Lengths with the same number K of whole episodes are
        built together: each distinct base statistic (a kind of the list or
        a mixed kind's component) is evaluated once per K and its entries
        are put; each mixed kind's entries are then
        :func:`~epimon.stats.mixed_values` against their component_rows.
        """
        lengths = sorted({int(n) for n in lengths})
        if not lengths:
            return
        T = self.params.T
        idx = resample_indices(ref.num_episodes, lengths[-1], T, self.B, self.seed)
        evaluator = BatchEvaluator(ref.episodes, self.params)
        kinds = list(kinds)  # read twice, so a generator must not run dry
        bases = base_statistics(kinds)
        mixed = [kind for kind in kinds if kind.components]
        offsets: dict[int, list[int]] = {}
        for n in lengths:
            dec = decompose_index(n, T)
            offsets.setdefault(dec.k, []).append(dec.tau)
        for K, taus in offsets.items():
            ns = [K * T + tau for tau in taus]
            runs = idx[:, : K + 1]  # one window each: K whole episodes, a tail
            values = {
                spec: evaluator.offset_values(base, runs, (K,), taus)[0, :, :, 0]
                for spec, base in bases.items()
            }
            for spec, rows in values.items():
                for n, row in zip(ns, rows):
                    self.entries[(spec, n)] = _sorted(row)
            for i, n in enumerate(ns):
                at = {spec: vals[i] for spec, vals in values.items()}
                for kind in mixed:
                    rows = self.component_rows(kind, n)
                    self.entries[(kind.spec, n)] = _sorted(mixed_values(rows, at))

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
    def from_dict(cls, data: dict, params: EpisodeParams) -> "BootstrapStore":
        check_format_version(
            data, STORE_FORMAT_VERSION, "store",
            "; re-run `epimon tune` to rebuild it",
        )
        B = json_int(data["B"], "store B")
        seed = json_int(data["seed"], "store seed")
        entries: dict[tuple[str, int], np.ndarray] = {}
        for item in data["entries"]:
            kind = parse_statistic(item["kind"])  # validates the spelling
            key = (kind.spec, json_int(item["n"], "store entry n"))
            if key in entries:
                raise ValueError(f"store has two entries for {key}")
            entries[key] = _decode_values(item["values"], B, key)
        return cls(params, B, seed, entries=entries)

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
