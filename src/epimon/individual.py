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

A :class:`BootstrapStore` starts empty: ``BootstrapStore.ensure(ref,
kinds, lengths)`` builds its rows at tuning time, ``BootstrapStore.load``
restores them from a store file, and ``entries`` is a read-only view of
them. Each ``ensure`` call draws one (B, K_max+1) index table, at the
longest of ``lengths``, and slices its leading K+1 columns for every
(statistic, length) entry.
Slicing is exact, not an approximation: ``Generator.integers`` produces its
output values in order from the stream, and the table is drawn one episode
position at a time (all B repetitions' first episode, then all their
second, ...), so the first (K+1)*B values of a longer draw are the values
a draw at K+1 returns.

Store file format (version 3). A store is two files. The index, at the
path the store is saved to (``<out>.store.json`` for ``epimon tune``), is a
JSON object with ``format_version``, ``B``, ``seed``, ``rows_file``,
``rows_sha256`` and ``entries``; each entry has the statistic spec
``kind``, the window length ``n`` and ``row``. The rows file, a sibling
named by ``rows_file`` (``<out>.store.npy``), is one ``.npy`` array of
little-endian float64 (``'<f8'``), shape (entries, B), whose row ``row``
holds the entry's B sorted values; ``rows_sha256`` is the sha256 of its
bytes. Storing the bytes keeps every value bit-exact, and loading them
decodes nothing: the rows are parsed once, checked by one vectorised pass
and shared read-only by every entry. A reader accepts only this version.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from types import MappingProxyType

import numpy as np

from .episodic import (
    EpisodeParams,
    ReferenceDataset,
    check_format_version,
    decompose_index,
    json_int,
    json_object,
    sibling_path,
    write_atomic,
)
from .errors import InvalidDataError, NotTunedError
from .rng import substream
from .stats import (
    BatchEvaluator,
    SignalWindow,
    StatisticKind,
    base_statistics,
    bootstrap_pvalues,
    ceil_fraction,
    mixed_values,
    parse_statistic,
    statistic_value,
)

STORE_FORMAT_VERSION = 3


def empirical_quantile_index(alpha: float, B: int) -> int:
    """1-based index of the empirical alpha-quantile: ceil(alpha*B) in
    [1, B], with :func:`~epimon.stats.ceil_fraction`'s slack, so binary-float
    artifacts such as 0.05*2000 = 100.00000000000001 do not shift the rank.
    """
    return max(1, min(B, ceil_fraction(alpha * B)))


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


class BootstrapStore:
    """Per-window-length bootstrap distributions of each statistic.

    Keys are (statistic spec, window length); each entry is a sorted vector of
    exactly B finite values, a deterministic function of (reference data, key,
    B, seed). A new store is empty; :meth:`ensure` is the one code that
    builds entries, every entry a plan needs from the reference data at
    tuning time, and :meth:`load` restores a saved store's entries after
    checking them. ``entries`` is a read-only mapping over them. Everything
    else only reads: :meth:`values_for` raises :class:`NotTunedError` for a
    missing entry, so live monitoring never waits on bootstrap work.

    :meth:`save` writes store format version 3 (see the module docstring):
    the rows file, then the index, each atomically, so an index never names
    rows that are not on disk. :meth:`load` rejects any other version, a
    ``B``, ``seed``, entry ``n`` or entry ``row`` that is not a JSON
    integer, a ``rows_file`` that is not a bare file name, rows whose
    sha256 differs from ``rows_sha256``, a rows file that is not a plain
    ``'<f8'`` ``.npy`` array of shape (entries, B) (pickled data is never
    loaded), a row with a non-finite value or out of order, an entry
    ``row`` out of range or used twice, and two entries that parse to one
    (spec, n) key.
    """

    def __init__(self, params: EpisodeParams, B: int, seed: int):
        if B < 1:
            raise ValueError("B must be positive")
        self.params = params
        self.B = int(B)
        self.seed = int(seed)
        self._entries: dict[tuple[str, int], np.ndarray] = {}

    @property
    def entries(self) -> MappingProxyType:
        """Read-only view of the (spec, n) -> sorted row mapping."""
        return MappingProxyType(self._entries)

    def values_for(self, kind: StatisticKind, n: int) -> np.ndarray:
        """Sorted distribution of B values for (kind, n), as :meth:`ensure`
        built it or :meth:`load` restored it."""
        entry = self._entries.get((kind.spec, int(n)))
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
                    self._entries[(spec, n)] = _sorted(row)
            for i, n in enumerate(ns):
                at = {spec: vals[i] for spec, vals in values.items()}
                for kind in mixed:
                    rows = self.component_rows(kind, n)
                    self._entries[(kind.spec, n)] = _sorted(mixed_values(rows, at))

    def save(self, path) -> None:
        """Write the store as format version 3: the rows file, named after
        ``path`` with its extension replaced by ``.npy``, then the index at
        ``path``."""
        path = os.fspath(path)
        rows_file = os.path.splitext(os.path.basename(path))[0] + ".npy"
        if rows_file == os.path.basename(path):
            raise ValueError(f"store index {path!r} would overwrite its rows file")
        keys = sorted(self._entries)
        rows = np.array([self._entries[key] for key in keys], dtype="<f8")
        with io.BytesIO() as buf:
            np.save(buf, rows.reshape(len(keys), self.B), allow_pickle=False)
            raw = buf.getvalue()
        index = {
            "format_version": STORE_FORMAT_VERSION,
            "B": self.B,
            "seed": self.seed,
            "rows_file": rows_file,
            "rows_sha256": hashlib.sha256(raw).hexdigest(),
            "entries": [
                {"kind": spec, "n": n, "row": row}
                for row, (spec, n) in enumerate(keys)
            ],
        }
        write_atomic(sibling_path(path, rows_file, "rows_file"), raw)
        write_atomic(path, json.dumps(index, indent=2) + "\n")

    @classmethod
    def load(cls, path, params: EpisodeParams) -> "BootstrapStore":
        """Read a store written by :meth:`save`; every check runs here, so
        a bad store fails at load (:class:`ValueError`)."""
        with open(path) as fh:
            data = json.load(fh)
        check_format_version(
            data, STORE_FORMAT_VERSION, "store",
            ("B", "seed", "rows_file", "rows_sha256", "entries"),
            "; re-run `epimon tune` to rebuild it",
        )
        B = json_int(data["B"], "store B")
        seed = json_int(data["seed"], "store seed")
        items = data["entries"]
        if not isinstance(items, list):
            raise InvalidDataError(
                f"store entries must be a list, got {type(items).__name__}"
            )
        rows_path = sibling_path(path, data["rows_file"], "rows_file")
        with open(rows_path, "rb") as fh:
            raw = fh.read()
        if hashlib.sha256(raw).hexdigest() != data["rows_sha256"]:
            raise InvalidDataError(
                f"store rows file {rows_path!r} does not match the index's "
                "rows_sha256"
            )
        rows = np.load(io.BytesIO(raw), allow_pickle=False)
        del raw
        if not isinstance(rows, np.ndarray):
            raise InvalidDataError(f"store rows file {rows_path!r} is not one array")
        if rows.dtype != np.dtype("<f8") or rows.shape != (len(items), B):
            raise InvalidDataError(
                f"store rows are {rows.dtype.str!r} of shape {rows.shape}, "
                f"expected '<f8' of shape {(len(items), B)}"
            )
        if not np.isfinite(rows).all():
            raise InvalidDataError("store rows have non-finite values")
        unsorted = np.flatnonzero((rows[:, 1:] < rows[:, :-1]).any(axis=1))
        if unsorted.size:
            raise InvalidDataError(f"store row {unsorted[0]} is not sorted")
        rows.setflags(write=False)
        store = cls(params, B, seed)
        entries = store._entries
        used: set[int] = set()
        for i, item in enumerate(items):
            json_object(item, f"store entry {i}", ("kind", "n", "row"))
            kind = parse_statistic(item["kind"])  # validates the spelling
            key = (kind.spec, json_int(item["n"], "store entry n"))
            row = json_int(item["row"], "store entry row")
            if not 0 <= row < len(rows):
                raise InvalidDataError(
                    f"store entry {key} has row {row}, not in [0, {len(rows)})"
                )
            if row in used:
                raise InvalidDataError(f"store row {row} is used by two entries")
            if key in entries:
                raise ValueError(f"store has two entries for {key}")
            used.add(row)
            entries[key] = rows[row]
        return store


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
