"""Bootstrap distribution and threshold-test behavior."""

import hashlib
import io
import json
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epimon as em
from epimon import individual, stats
from epimon.errors import InvalidDataError, NotTunedError
from epimon.stats import mixed_values

from conftest import make_params, make_reference

MEAN = em.StatisticKind.mean()
UDT = em.StatisticKind.udt()


def test_degenerate_single_episode_reference():
    params = make_params(T=3, seed=1)
    ref = em.ReferenceDataset(params.mu0[None, :] + 1.0)
    dist = em.bootstrap_distribution(ref, params, MEAN, n=5, B=4, seed=0)
    assert np.all(dist == dist[0])  # only one possible window


def test_bootstrap_deterministic():
    params = make_params(T=4, seed=2)
    ref = make_reference(params, 30, seed=5)
    a = em.bootstrap_distribution(ref, params, UDT, n=10, B=64, seed=9)
    b = em.bootstrap_distribution(ref, params, UDT, n=10, B=64, seed=9)
    assert np.array_equal(a, b)
    c = em.bootstrap_distribution(ref, params, UDT, n=10, B=64, seed=10)
    assert not np.array_equal(a, c)


def test_bootstrap_resampling_identity_for_mean():
    # With n = T each window is a single resampled episode, so the bootstrap
    # mean converges to the mean of per-episode means.
    params = make_params(T=5, seed=3)
    ref = make_reference(params, 80, seed=6)
    B = 10000
    dist = em.bootstrap_distribution(ref, params, MEAN, n=params.T, B=B, seed=1)
    episode_means = ref.episodes.mean(axis=1)
    se = episode_means.std(ddof=1) / np.sqrt(B)
    assert abs(dist.mean() - episode_means.mean()) <= 3 * se


def test_bootstrap_is_sorted_and_finite():
    params = make_params(T=4, seed=4)
    ref = make_reference(params, 20, seed=7)
    dist = em.bootstrap_distribution(ref, params, MEAN, n=9, B=100, seed=2)
    assert dist.size == 100
    assert np.all(np.isfinite(dist))
    assert np.all(np.diff(dist) >= 0)


def test_pvalue_floor_and_ceiling():
    params = make_params(T=3, seed=5)
    ref = make_reference(params, 40, seed=8)
    store = em.BootstrapStore(params, B=200, seed=3)
    store.ensure(ref, [MEAN], [params.T])
    low = em.SignalWindow(params.mu0 - 100 * params.step_std, params)
    reject, p = em.individual_test(low, MEAN, store, alpha=0.05)
    assert p == pytest.approx(1 / 201)
    assert reject
    high = em.SignalWindow(params.mu0 + 100 * params.step_std, params)
    reject, p = em.individual_test(high, MEAN, store, alpha=0.05)
    assert p == 1.0
    assert not reject


def test_individual_calibration_under_h0():
    # 5000 fresh null windows at alpha = 0.05 must reject at a rate in
    # [0.04, 0.06].
    params = make_params(T=6, seed=6, condition=20)
    ref = make_reference(params, 2000, seed=9)
    store = em.BootstrapStore(params, B=2000, seed=4)
    trials = 5000
    K = 2
    store.ensure(ref, [MEAN], [K * params.T])
    fresh = em.generate_episodes(
        em.Scenario(params=params, kind="h0", seed=123), trials * K
    ).reshape(trials, K * params.T)
    rejected = 0
    for row in fresh:
        reject, _ = em.individual_test(
            em.SignalWindow(row, params), MEAN, store, alpha=0.05
        )
        rejected += reject
    assert 0.04 <= rejected / trials <= 0.06


def test_alpha_validation():
    params = make_params(T=3, seed=7)
    ref = make_reference(params, 20, seed=10)
    store = em.BootstrapStore(params, B=50, seed=5)
    store.ensure(ref, [MEAN], [3])
    w = em.SignalWindow(np.zeros(3), params)
    for alpha in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            em.individual_test(w, MEAN, store, alpha=alpha)


def test_reject_monotone_in_alpha_and_rank():
    rng = np.random.default_rng(11)
    dist = np.sort(rng.standard_normal(500))
    ys = rng.standard_normal(50)
    for y in ys:
        r1, p1 = em.threshold_decision(dist, y, 0.02)
        r2, p2 = em.threshold_decision(dist, y, 0.10)
        assert p1 == p2  # p does not depend on alpha
        assert (not r1) or r2  # reject at alpha1 implies reject at alpha2 >= alpha1
    order = np.argsort(ys)
    ps = [em.threshold_decision(dist, y, 0.05)[1] for y in ys]
    assert np.all(np.diff(np.asarray(ps)[order]) >= 0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.01, 0.5),
    st.integers(10, 400),
    st.floats(-3, 3),
)
def test_quantile_pvalue_coherence(alpha, B, y):
    # The quantile rule is authoritative; it must agree with the p-value rule
    # "p < alpha*" where alpha* is alpha rounded to the store's resolution.
    rng = np.random.default_rng(B)
    dist = np.sort(rng.standard_normal(B))
    reject, p = em.threshold_decision(dist, y, alpha)
    idx = em.empirical_quantile_index(alpha, B)
    alpha_star = (idx + 0.5) / (B + 1)
    assert reject == (p < alpha_star)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.001, 1.0), st.floats(-5, 5), st.floats(0.01, 0.4))
def test_affine_invariance(scale, shift, alpha):
    # Rescaling a statistic by a*s + b (a > 0) on both the observation and
    # the bootstrap leaves the decision and the p-value unchanged.
    rng = np.random.default_rng(17)
    dist = np.sort(rng.standard_normal(300))
    y = rng.standard_normal()
    base = em.threshold_decision(dist, y, alpha)
    scaled = em.threshold_decision(
        np.sort(scale * dist + shift), scale * y + shift, alpha
    )
    assert base == scaled


def test_quantile_index_float_artifacts():
    assert em.empirical_quantile_index(0.05, 2000) == 100
    assert em.empirical_quantile_index(0.05, 1000) == 50
    assert em.empirical_quantile_index(0.001, 100) == 1  # max(1, ...)
    assert em.empirical_quantile_index(0.999, 10) == 10


def test_store_roundtrip(tmp_path):
    params = make_params(T=4, seed=8)
    ref = make_reference(params, 25, seed=11)
    store = em.BootstrapStore(params, B=120, seed=6)
    store.ensure(ref, [MEAN, em.MIXED_MEAN_PDT_PRESET], [6])
    path = tmp_path / "store.json"
    store.save(path)
    loaded = em.BootstrapStore.load(path, params)
    assert loaded.B == store.B and loaded.seed == store.seed
    assert (tmp_path / "store.npy").exists()
    for key, vals in store.entries.items():
        assert np.array_equal(loaded.entries[key], vals)  # exact float roundtrip
        assert not loaded.entries[key].flags.writeable
    with pytest.raises(ValueError, match="would overwrite its rows file"):
        store.save(tmp_path / "store.npy")
    # a store only reads: an entry that was never built raises
    with pytest.raises(NotTunedError, match="'mean' at length 7"):
        loaded.values_for(MEAN, 7)


def test_mixed_store_builds_components_first():
    params = make_params(T=3, seed=10)
    ref = make_reference(params, 20, seed=13)
    store = em.BootstrapStore(params, B=60, seed=8)
    store.ensure(ref, [em.MIXED_MEAN_PDT_PRESET], [5])
    assert ("mean", 5) in store.entries
    assert ("pdt:0.9", 5) in store.entries
    mixed = store.entries[(em.MIXED_MEAN_PDT_PRESET.spec, 5)]
    assert np.all((mixed >= 1 / 61) & (mixed <= 1.0))


STORE_KINDS = (
    UDT,
    em.parse_statistic("hotelling"),
    em.parse_statistic("cusum:0.5"),
    em.MIXED_MEAN_PDT_PRESET,
)
STORE_LENGTHS = [3, 4, 6, 8, 9, 12]  # T = 4: K = 0, 0, 1, 1, 2, 2


def _oracle_entries(ref, params, keys, B, seed):
    """Each distribution drawn on its own; a mixed one scores its own
    resample table's component values against the component oracles."""
    oracle = {
        (spec, n): em.bootstrap_distribution(
            ref, params, em.parse_statistic(spec), n, B, seed
        )
        for spec, n in keys
        if not spec.startswith("mixed")
    }
    evaluator = em.BatchEvaluator(ref.episodes, params)
    for spec, n in [key for key in keys if key[0].startswith("mixed")]:
        kind = em.parse_statistic(spec)
        idx = individual.resample_indices(ref.num_episodes, n, params.T, B, seed)
        dec = em.decompose_index(n, params.T)
        values = {
            c.spec: evaluator.values(c, idx[:, : dec.k], idx[:, dec.k], dec.tau)
            for c in kind.components
        }
        rows = [(c.spec, oracle[c.spec, n]) for c in kind.components]
        oracle[spec, n] = np.sort(mixed_values(rows, values))
    return oracle


def _fill_ensure_ascending(store, ref):
    store.ensure(ref, STORE_KINDS, STORE_LENGTHS)


def _fill_ensure_descending(store, ref):
    store.ensure(ref, STORE_KINDS, STORE_LENGTHS[::-1])


def _fill_ensure_twice(store, ref):
    store.ensure(ref, STORE_KINDS, STORE_LENGTHS)
    # K = 5, wider than the first call's table; 5 is a new length at K = 1
    store.ensure(ref, STORE_KINDS, [23, 5])


def _fill_ensure_from_generators(store, ref):
    store.ensure(ref, (k for k in STORE_KINDS), (n for n in STORE_LENGTHS))


@pytest.mark.parametrize(
    "fill", [_fill_ensure_ascending, _fill_ensure_descending, _fill_ensure_twice,
             _fill_ensure_from_generators]
)
def test_store_entries_equal_standalone_bootstrap(fill):
    params = make_params(T=4, seed=14)
    ref = make_reference(params, 30, seed=15)
    B, seed = 64, 21
    store = em.BootstrapStore(params, B=B, seed=seed)
    fill(store, ref)
    planned = {(kind.spec, n) for kind in STORE_KINDS for n in STORE_LENGTHS}
    assert planned <= store.entries.keys()
    oracle = _oracle_entries(ref, params, store.entries, B, seed)
    assert store.entries.keys() == oracle.keys()
    for key, entry in store.entries.items():
        assert np.array_equal(entry, oracle[key]), key


@pytest.mark.parametrize("num_episodes", [1, 7, 1000, 2**33])
def test_resample_indices_are_prefixes_of_longer_draws(num_episodes):
    T, B, seed = 5, 40, 3
    longest = individual.resample_indices(num_episodes, 9 * T, T, B, seed)
    assert longest.shape == (B, 9)
    for n in range(1, 9 * T):
        short = individual.resample_indices(num_episodes, n, T, B, seed)
        assert np.array_equal(short, longest[:, : short.shape[1]]), n


def test_store_rows_enter_only_through_ensure_and_load(tmp_path):
    # A store starts empty; the constructor takes no rows, and its entries
    # are a read-only view that no assignment, deletion or rebinding changes.
    params = make_params(T=4, seed=20)
    store = em.BootstrapStore(params, B=50, seed=3)
    assert len(store.entries) == 0
    store.ensure(make_reference(params, 15, seed=21), [MEAN], [5])
    row = store.entries[("mean", 5)]
    with pytest.raises(TypeError):
        em.BootstrapStore(params, 50, 3, entries={("mean", 5): row})
    with pytest.raises(TypeError):
        store.entries[("mean", 6)] = row
    with pytest.raises(TypeError):
        del store.entries[("mean", 5)]
    with pytest.raises(AttributeError):
        store.entries = {("mean", 5): row[::-1]}
    assert list(store.entries) == [("mean", 5)]
    store.save(tmp_path / "store.json")
    loaded = em.BootstrapStore.load(tmp_path / "store.json", params)
    with pytest.raises(TypeError):
        loaded.entries[("mean", 5)] = row[::-1]
    assert np.array_equal(loaded.entries[("mean", 5)], row)


def _edited_index(tmp_path, store, edit):
    """Save ``store`` and rewrite its index as ``edit(index)`` leaves it."""
    path = tmp_path / "store.json"
    store.save(path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("field, value", [
    ("B", lambda B: float(B)), ("seed", lambda seed: seed + 0.9),
    ("n", lambda n: n + 0.8), ("n", lambda n: True),
], ids=["float-B", "fraction-seed", "fraction-n", "bool-n"])
def test_store_from_dict_rejects_non_integer_fields(tmp_path, field, value):
    # int() would truncate each: "B": 50.0 to 50, "n": 5.8 to length 5.
    params = make_params(T=4, seed=20)
    store = em.BootstrapStore(params, B=50, seed=3)
    store.ensure(make_reference(params, 15, seed=21), [MEAN], [5])

    def edit(data):
        target = data["entries"][0] if field == "n" else data
        target[field] = value(target[field])

    what = "store entry n" if field == "n" else f"store {field}"
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        em.BootstrapStore.load(_edited_index(tmp_path, store, edit), params)


def test_store_from_dict_rejects_two_entries_for_one_key(tmp_path):
    # Each entry parses on its own; kept, the second would replace the first.
    params = make_params(T=4, seed=20)
    store = em.BootstrapStore(params, B=50, seed=3)
    store.ensure(make_reference(params, 15, seed=21), [em.StatisticKind.pdt(0.9)], [5, 6])

    def edit(data):
        data["entries"][1].update(kind="pdt:0.90", n=5)

    with pytest.raises(ValueError, match=r"two entries for \('pdt:0.9', 5\)"):
        em.BootstrapStore.load(_edited_index(tmp_path, store, edit), params)


def test_store_builds_each_generator_once_per_plan(monkeypatch):
    params = make_params(T=4, seed=16)
    ref = make_reference(params, 25, seed=17)
    plan = em.MonitorPlan(
        statistics=(UDT, em.parse_statistic("mdt")),
        horizons=(1, 3, 5),
        h_tilde=2,
        alpha0=0.1,
        B_inner=48,
        B_outer=10,
        seed=4,
        test_every=2,
    )
    calls = []
    real_substream = individual.substream

    def counting_substream(*args):
        calls.append(args)
        return real_substream(*args)

    monkeypatch.setattr(individual, "substream", counting_substream)
    store = em.BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, plan.window_lengths(params.T))
    assert calls == [(plan.seed, "boot")]
    assert len(store.entries) == 5 * len(plan.window_lengths(params.T))


def test_store_evaluates_each_component_once_per_whole_episode_count(monkeypatch):
    params = make_params(T=4, seed=18)
    ref = make_reference(params, 25, seed=19)
    calls = []
    real_offset_values = em.BatchEvaluator.offset_values

    def counting_offset_values(self, kind, streams, horizons, taus):
        calls.append((kind.spec, tuple(horizons), streams.shape[1], tuple(taus)))
        return real_offset_values(self, kind, streams, horizons, taus)

    monkeypatch.setattr(em.BatchEvaluator, "offset_values", counting_offset_values)
    plans = [
        (("mdt",), ("mean", "hotelling", "pdt:0.9")),
        # udt is a plan statistic and a mixed component: evaluated once
        (("udt", "mixed:mean+udt"), ("udt", "mean")),
    ]
    for specs, bases in plans:
        calls.clear()
        kinds = [em.parse_statistic(spec) for spec in specs]
        store = em.BootstrapStore(params, B=32, seed=6)
        store.ensure(ref, kinds, [6, 8, 14, 16])  # K = 1 and 3, offsets 2 and 4
        assert sorted(calls) == sorted(
            (spec, (K,), K + 1, (2, 4)) for spec in bases for K in (1, 3)
        ), specs
        mixed = [kind.spec for kind in kinds if kind.components]
        assert sorted(store.entries) == sorted(
            (spec, n) for spec in (*bases, *mixed) for n in (6, 8, 14, 16)
        )


def test_store_build_gathers_a_row_family_a_block_at_a_time():
    # hotelling at K = 30, T = 40, B = 2000: the whole pieces of the B
    # windows, (B, 30, T) floats, are over four times the gather budget,
    # and the build gathers them a block of runs at a time.
    params = make_params(T=40, seed=91, condition=40)
    ref = make_reference(params, 50, seed=92)
    K, B = 30, 2000
    gather_bytes = B * K * params.T * 8
    assert gather_bytes >= 4 * 8 * stats._GATHER_ITEMS
    store = em.BootstrapStore(params, B, 93)
    tracemalloc.start()
    try:
        store.ensure(ref, (em.StatisticKind.hotelling(),), (K * params.T + params.T,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < gather_bytes / 2, (peak, gather_bytes)


def _npy(rows, allow_pickle=False):
    """``np.save``'s bytes of ``rows``."""
    buf = io.BytesIO()
    np.save(buf, rows, allow_pickle=allow_pickle)
    return buf.getvalue()


@pytest.mark.parametrize("B, kinds, lengths", [
    (1, [MEAN, UDT], [3, 6]),
    (50, [MEAN], [5]),
    (50, [MEAN, UDT, em.MIXED_MEAN_PDT_PRESET], [1, 4, 6, 9]),
    (50, [], []),
], ids=["B-1", "one-entry", "many-entries", "no-entries"])
def test_saved_rows_file_is_np_save_of_the_stacked_rows(tmp_path, B, kinds, lengths):
    params = make_params(T=4, seed=8)
    store = em.BootstrapStore(params, B=B, seed=6)
    store.ensure(make_reference(params, 25, seed=11), kinds, lengths)
    store.save(tmp_path / "store.json")
    index = json.loads((tmp_path / "store.json").read_text())
    keys = sorted(store.entries)
    stacked = np.array([store.entries[key] for key in keys]).reshape(len(keys), B)
    raw = (tmp_path / "store.npy").read_bytes()
    assert raw == _npy(stacked)
    assert index["rows_sha256"] == hashlib.sha256(raw).hexdigest()
    assert [(e["kind"], e["n"], e["row"]) for e in index["entries"]] == [
        (spec, n, row) for row, (spec, n) in enumerate(keys)]
    loaded = em.BootstrapStore.load(tmp_path / "store.json", params)
    assert {k: v.tobytes() for k, v in loaded.entries.items()} == {
        k: v.tobytes() for k, v in store.entries.items()}


def _rows_through_np_load(raw, sha256, rows_path, shape):
    """What a store load made of the rows file's bytes ``raw`` before it
    viewed the file save writes in place: the sha256 of the whole file,
    then ``np.load`` and the checks of the array, in that order."""
    if hashlib.sha256(raw).hexdigest() != sha256:
        raise InvalidDataError(
            f"store rows file {rows_path!r} does not match the index's rows_sha256")
    rows = np.load(io.BytesIO(raw), allow_pickle=False)
    if not isinstance(rows, np.ndarray):
        raise InvalidDataError(f"store rows file {rows_path!r} is not one array")
    if rows.dtype != np.dtype("<f8") or rows.shape != shape:
        raise InvalidDataError(
            f"store rows are {rows.dtype.str!r} of shape {rows.shape}, "
            f"expected '<f8' of shape {shape}")
    if not np.isfinite(rows).all():
        raise InvalidDataError("store rows have non-finite values")
    unsorted = np.flatnonzero((rows[:, 1:] < rows[:, :-1]).any(axis=1))
    if unsorted.size:
        raise InvalidDataError(f"store row {unsorted[0]} is not sorted")
    return rows


def _outcome(load):
    """(True, result) of ``load()``, or (its exception's type, message)."""
    try:
        return True, load()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _unsorted(rows):
    rows[2, [0, -1]] = rows[2, [-1, 0]]
    return rows


def _non_finite(rows):
    rows[1, -1] = np.nan
    return rows


def _npz(rows):
    buf = io.BytesIO()
    np.savez(buf, rows=rows)
    return buf.getvalue()


def _header_for(shape):
    """A ``.npy`` header declaring a C-order '<f8' array of ``shape``."""
    return _npy(np.empty(shape))[:128]


ROWS_FILES = {
    "as-saved": lambda raw, rows: raw,
    "unsorted": lambda raw, rows: _npy(_unsorted(rows)),
    "non-finite": lambda raw, rows: _npy(_non_finite(rows)),
    "object": lambda raw, rows: _npy(rows.astype(object), allow_pickle=True),
    "big-endian": lambda raw, rows: _npy(rows.astype(">f8")),
    "float32": lambda raw, rows: _npy(rows.astype("<f4")),
    "fortran-order": lambda raw, rows: _npy(np.asfortranarray(rows)),
    "missing-row": lambda raw, rows: _npy(rows[:-1]),
    "extra-row": lambda raw, rows: _npy(np.vstack([rows, rows[:1]])),
    "short-rows": lambda raw, rows: _npy(rows[:, :-1]),
    "transposed": lambda raw, rows: _npy(rows.T),
    "one-dimensional": lambda raw, rows: _npy(rows.reshape(-1)),
    "header-declares-more-rows": lambda raw, rows: (
        _header_for((rows.shape[0] + 1, rows.shape[1])) + raw[128:]),
    "truncated-data": lambda raw, rows: raw[:-8],
    "header-only": lambda raw, rows: raw[:128],
    "truncated-header": lambda raw, rows: raw[:50],
    "empty": lambda raw, rows: b"",
    "trailing-bytes": lambda raw, rows: raw + bytes(8),
    "pickled": lambda raw, rows: pickle.dumps(rows),
    "npz": lambda raw, rows: _npz(rows),
}


# The rows files above that a load accepts once the hash matches, as it
# did before: np.load reads a Fortran-order array and ignores trailing bytes.
LOADABLE_ROWS_FILES = ("as-saved", "fortran-order", "trailing-bytes")


@pytest.mark.parametrize("sealed", [True, False], ids=["resealed", "saved-sha256"])
@pytest.mark.parametrize("name", ROWS_FILES)
def test_load_reads_any_rows_file_as_np_load_after_the_whole_hash(
    tmp_path, name, sealed
):
    # The load views the file save writes in place; any other file
    # gets the exception and message of the whole-file hash followed by
    # np.load, so a file that fails the hash gets the hash's message
    # whatever it holds.
    params = make_params(T=4, seed=8)
    store = em.BootstrapStore(params, B=40, seed=6)
    store.ensure(make_reference(params, 25, seed=11), [MEAN, UDT], [3, 6, 9])
    path = tmp_path / "store.json"
    store.save(path)
    rows_path = tmp_path / "store.npy"
    raw = ROWS_FILES[name](rows_path.read_bytes(), np.load(rows_path))
    rows_path.write_bytes(raw)
    index = json.loads(path.read_text())
    if sealed:
        index["rows_sha256"] = hashlib.sha256(raw).hexdigest()
    path.write_text(json.dumps(index))
    shape = (len(index["entries"]), 40)
    before = _outcome(lambda: _rows_through_np_load(
        raw, index["rows_sha256"], os.fspath(rows_path), shape))
    now = _outcome(lambda: em.BootstrapStore.load(path, params))
    if name == "as-saved" or sealed and name in LOADABLE_ROWS_FILES:
        assert now[0] is True and before[0] is True, (now, before)
        for entry in index["entries"]:
            key = (entry["kind"], entry["n"])
            assert now[1].entries[key].tobytes() == before[1][entry["row"]].tobytes()
    else:
        assert now == before
