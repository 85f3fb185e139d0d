"""End-to-end CLI pipeline: estimate -> tune -> monitor / simulate / power."""

import base64
import hashlib
import io
import json
import os
import pickle
import stat
from types import SimpleNamespace

import numpy as np
import pytest

import epimon as em
from epimon import cli, stats, synthetic
from epimon.cli import main
from epimon.errors import InvalidDataError, NotTunedError
from epimon.rng import substream

from conftest import make_params, run_cli


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny but complete pipeline fixture: raw CSV, params, plan, bundle."""
    root = tmp_path_factory.mktemp("cli")
    T_raw, d = 12, 2
    params = make_params(T=T_raw // d, seed=71, condition=15)
    raw_sigma = np.kron(params.sigma0, np.ones((d, d)))  # raw steps repeat
    raw_sigma += 0.05 * np.eye(T_raw)
    raw_params = em.EpisodeParams(np.repeat(params.mu0, d), raw_sigma)
    episodes = em.generate_episodes(
        em.Scenario(params=raw_params, kind="h0", seed=72), 250
    )
    csv = root / "reference.csv"
    csv.write_text(
        "\n".join(",".join(repr(float(x)) for x in row) for row in episodes) + "\n"
    )

    plan = {
        "statistics": ["udt", "mean"],
        "horizons": [2, 3],
        "h_tilde": 3,
        "alpha0": 0.1,
        "B_inner": 800,
        "B_outer": 150,
        "seed": 73,
        "test_every": 1,
    }
    (root / "plan.json").write_text(json.dumps(plan))

    res = run_cli(
        "estimate", csv, "--episode-length", T_raw, "--downsample", d,
        "--out", root / "params.json",
    )
    assert res.returncode == 0, res.stderr
    res = run_cli(
        "tune", csv, "--params", root / "params.json",
        "--plan", root / "plan.json", "--out", root / "bundle.json",
    )
    assert res.returncode == 0, res.stderr
    return root


def test_estimate_output_shape(workspace):
    data = json.loads((workspace / "params.json").read_text())
    assert data["format_version"] == 1
    assert data["T"] == 6 and data["d"] == 2
    assert len(data["mu0"]) == 6
    assert len(data["sigma0"]) == 6 and len(data["sigma0"][0]) == 6
    assert isinstance(data["regularized"], bool)


def test_estimate_rerun_byte_identical(workspace, tmp_path):
    out = tmp_path / "params2.json"
    for _ in range(2):
        res = run_cli(
            "estimate", workspace / "reference.csv",
            "--episode-length", 12, "--downsample", 2, "--out", out,
        )
        assert res.returncode == 0
    assert sha256(out) == sha256(workspace / "params.json")


def test_estimate_rejects_nondivisible_downsample(workspace, tmp_path):
    out = tmp_path / "nope.json"
    res = run_cli(
        "estimate", workspace / "reference.csv",
        "--episode-length", 12, "--downsample", 5, "--out", out,
    )
    assert res.returncode == 2
    assert not out.exists()  # no partial output


def test_estimate_rejects_a_zero_downsample(workspace, tmp_path, capsys):
    out = tmp_path / "nope.json"
    code = main(["estimate", str(workspace / "reference.csv"),
                 "--episode-length", "12", "--downsample", "0", "--out", str(out)])
    assert code == 2
    assert "downsample factor must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_tune_rerun_byte_identical(workspace, tmp_path):
    out = tmp_path / "bundle.json"
    for _ in range(2):
        res = run_cli(
            "tune", workspace / "reference.csv",
            "--params", workspace / "params.json",
            "--plan", workspace / "plan.json", "--out", out,
        )
        assert res.returncode == 0, res.stderr
    assert sha256(out) == sha256(workspace / "bundle.json")
    for store_file in ("bundle.json.store.json", "bundle.json.store.npy"):
        assert sha256(tmp_path / store_file) == sha256(workspace / store_file)


def _tune(workspace, out):
    return main(["tune", str(workspace / "reference.csv"),
                 "--params", str(workspace / "params.json"),
                 "--plan", str(workspace / "plan.json"), "--out", str(out)])


def test_tune_writes_the_bundle_and_both_store_files_only(workspace, tmp_path):
    assert _tune(workspace, tmp_path / "bundle.json") == 0
    assert sorted(os.listdir(tmp_path)) == [
        "bundle.json", "bundle.json.store.json", "bundle.json.store.npy"
    ]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_outputs_get_the_mode_of_a_new_file(workspace, tmp_path, umask):
    # Every output file gets the mode open(path, "w") gives a new file under
    # the umask, so readers the umask admits can read it.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"kind": "h0"}))
    outputs = ["params.json", "bundle.json", "bundle.json.store.json",
               "bundle.json.store.npy", "report.json", "power.json"]
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.json", "w"):
            pass
        assert main(["estimate", str(workspace / "reference.csv"),
                     "--episode-length", "12", "--downsample", "2",
                     "--out", str(tmp_path / "params.json")]) == 0
        assert _tune(workspace, tmp_path / "bundle.json") == 0
        assert main(["simulate", "--bundle", str(tmp_path / "bundle.json"),
                     "--scenario", str(scenario), "--blocks", "2", "--seed", "1",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert main(["power", "--params", str(tmp_path / "params.json"),
                     "--epsilon-sigma", "0.1", "--out", str(tmp_path / "power.json")]) == 0
    finally:
        os.umask(old)
    want = stat.S_IMODE(os.stat(tmp_path / "plain.json").st_mode)
    assert want == 0o666 & ~umask
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in outputs}
    assert modes == dict.fromkeys(outputs, want)


def test_tune_writes_the_store_rows_before_the_index(
    workspace, tmp_path, monkeypatch, capsys
):
    # The index write fails after the rows are in place; no temporary file,
    # index or bundle is left behind, and the rows are the tuned ones.
    replace = os.replace

    def replace_all_but_the_index(src, dst):
        if os.fspath(dst).endswith(".store.json"):
            raise OSError("no space left for the index")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_all_but_the_index)
    assert _tune(workspace, tmp_path / "bundle.json") == 2
    assert "no space left for the index" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bundle.json.store.npy"]
    assert np.array_equal(np.load(tmp_path / "bundle.json.store.npy"), _rows(workspace))


def test_save_bundle_writes_the_bundle_after_its_store(
    workspace, tmp_path, monkeypatch
):
    # The bundle write fails after both store files are in place; saved
    # again, a loaded bundle gives the bytes tune wrote, all three files.
    tuned = em.load_bundle(workspace / "bundle.json")
    replace = os.replace

    def replace_all_but_the_bundle(src, dst):
        if os.fspath(dst).endswith("bundle.json"):
            raise OSError("no space left for the bundle")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_all_but_the_bundle)
    with pytest.raises(OSError, match="no space left for the bundle"):
        em.save_bundle(tuned, tmp_path / "bundle.json")
    assert sorted(os.listdir(tmp_path)) == [
        "bundle.json.store.json", "bundle.json.store.npy"
    ]
    monkeypatch.undo()
    em.save_bundle(tuned, tmp_path / "bundle.json")
    for name in ("bundle.json", "bundle.json.store.json", "bundle.json.store.npy"):
        assert (tmp_path / name).read_bytes() == (workspace / name).read_bytes()


def _tune_with_plan(workspace, tmp_path, edit):
    """``tune`` on the workspace's inputs with its plan edited by ``edit``."""
    plan = json.loads((workspace / "plan.json").read_text())
    edit(plan)
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    return main(["tune", str(workspace / "reference.csv"),
                 "--params", str(workspace / "params.json"),
                 "--plan", str(tmp_path / "plan.json"),
                 "--out", str(tmp_path / "bundle.json")])


@pytest.mark.parametrize("where", ["plan", "bundle", "store"])
def test_cli_rejects_a_statistic_that_is_not_a_string(
    workspace, tmp_path, capsys, where
):
    # A spec is parsed with str methods: 1, null and 5 would raise
    # AttributeError, a traceback and exit 1.
    if where == "plan":
        code = _tune_with_plan(
            workspace, tmp_path, lambda plan: plan.update(statistics=[1]))
        value = 1
    else:
        value = None if where == "bundle" else 5

        def edit(bundle, store):
            if where == "bundle":
                bundle["plan"]["statistics"] = [value]
            else:
                store["entries"][0]["kind"] = value

        code = _monitor_with_tampered_bundle(workspace, tmp_path, edit)
    assert code == 2
    assert f"error: statistic must be a string, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["plan", "bundle", "params"])
def test_cli_rejects_an_integer_beyond_float_range(
    workspace, tmp_path, capsys, where
):
    # float(10**400) raises OverflowError: at alpha0 * B_outer for a plan's
    # B_outer, and in the params reader for mu0.
    huge = 10**400
    if where == "plan":
        code = _tune_with_plan(
            workspace, tmp_path, lambda plan: plan.update(B_outer=huge))
    elif where == "bundle":
        def edit(bundle, store):
            bundle["plan"]["B_outer"] = huge

        code = _monitor_with_tampered_bundle(workspace, tmp_path, edit)
    else:
        params = json.loads((workspace / "params.json").read_text())
        params["mu0"][0] = huge
        (tmp_path / "params.json").write_text(json.dumps(params))
        code = main(["power", "--params", str(tmp_path / "params.json"),
                     "--epsilon-sigma", "0.5", "--out", str(tmp_path / "power.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if where == "params":
        assert "params mu0 must be a list of numbers" in err


@pytest.mark.parametrize("edit, message", [
    (lambda plan: plan.pop("h_tilde"), "plan is missing keys: h_tilde"),
    (lambda plan: plan.update(horizons=3), "plan horizons must be a list, got 3"),
    (lambda plan: plan.update(statistics="udt"),
     "plan statistics must be a list, got 'udt'"),
    (lambda plan: plan.update(B_outer=10**400), "B_outer must be within float range"),
], ids=["missing-key", "horizons-not-a-list", "statistics-a-string", "B_outer-huge"])
def test_plan_errors_name_the_field(workspace, tmp_path, capsys, edit, message):
    # A KeyError, a TypeError, a string read one character at a time and an
    # OverflowError each gave an error that named no plan field.
    code = _tune_with_plan(workspace, tmp_path, edit)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "bundle.json").exists()


def _without(data, key):
    """A copy of the JSON object ``data`` without ``key``."""
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("where, edit, message", [
    ("plan", lambda plan: 5, "plan is not a JSON object"),
    ("plan", lambda plan: "abc", "plan is not a JSON object"),
    ("scenario", lambda scenario: ["kind"], "scenario is not a JSON object"),
    ("scenario", lambda scenario: {"K": 2}, "scenario is missing keys: kind"),
    ("params", lambda params: _without(params, "mu0"), "params is missing keys: mu0"),
    ("bundle", lambda bundle: _without(bundle, "p_threshold"),
     "bundle is missing keys: p_threshold"),
    ("store", lambda store: _without(store, "rows_sha256"),
     "store is missing keys: rows_sha256"),
    ("store", lambda store: {**store, "entries": [
        _without(store["entries"][0], "n"), *store["entries"][1:]]},
     "store entry 0 is missing keys: n"),
], ids=["plan-int", "plan-string", "scenario-list", "scenario-without-kind",
        "params-without-mu0", "bundle-without-p_threshold",
        "store-without-rows_sha256", "store-entry-without-n"])
def test_json_errors_name_the_file_and_the_key(
    workspace, tmp_path, capsys, where, edit, message
):
    # Each gave a bare KeyError, TypeError or a plan read one character at
    # a time: 'int' object is not iterable, 'mu0', plan has unknown keys:
    # a, b, c, list indices must be integers or slices, not str.
    names = {"plan": "plan.json", "params": "params.json", "bundle": "bundle.json",
             "store": "bundle.json.store.json", "scenario": "scenario.json"}
    for name in ("plan.json", "params.json", "bundle.json",
                 "bundle.json.store.json", "bundle.json.store.npy"):
        (tmp_path / name).write_bytes((workspace / name).read_bytes())
    (tmp_path / "scenario.json").write_text(json.dumps({"kind": "h0"}))
    path = tmp_path / names[where]
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    if where in ("plan", "params"):
        code = main(["tune", str(workspace / "reference.csv"),
                     "--params", str(tmp_path / "params.json"),
                     "--plan", str(tmp_path / "plan.json"),
                     "--out", str(tmp_path / "out.json")])
    else:
        code = main(["simulate", "--bundle", str(tmp_path / "bundle.json"),
                     "--scenario", str(tmp_path / "scenario.json"), "--blocks", "1",
                     "--seed", "1", "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("edit, field", [
    (lambda plan: plan.update(h_tilde=10**400), "h_tilde"),
    (lambda plan: plan.update(h_tilde=2**61), "h_tilde"),
    (lambda plan: plan.update(horizons=[1, 10**400]), "max(horizons)"),
    (lambda plan: plan.update(B_inner=10**400), "B_inner"),
], ids=["h_tilde-huge", "h_tilde-2**61", "horizon-huge", "B_inner-huge"])
def test_tune_rejects_index_tables_numpy_cannot_create_before_any_work(
    workspace, tmp_path, capsys, monkeypatch, edit, field
):
    # h_tilde built the whole store before BFAR's stream table failed; a
    # horizon and B_inner failed at once, but naming no field.
    calls = []
    monkeypatch.setattr(em.BootstrapStore, "ensure", lambda *a: calls.append(a))
    assert _tune_with_plan(workspace, tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: plan ") and field in err and "numpy" in err
    assert calls == []


def test_tune_exits_two_when_the_plan_does_not_fit_in_memory(tmp_path, capsys):
    # B_outer 10**15 is within float range: the store is built, then the
    # simulated streams cannot be allocated. That was a MemoryError
    # traceback and exit 1.
    params = make_params(T=4, seed=81, condition=10)
    episodes = em.generate_episodes(em.Scenario(params=params, kind="h0", seed=82), 60)
    csv = tmp_path / "reference.csv"
    csv.write_text("\n".join(",".join(map(repr, row)) for row in episodes.tolist()))
    plan = {"statistics": ["udt"], "horizons": [1], "h_tilde": 2, "alpha0": 0.5,
            "B_inner": 50, "B_outer": 10**15, "seed": 83}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    assert main(["estimate", str(csv), "--episode-length", "4", "--downsample", "1",
                 "--out", str(tmp_path / "params.json")]) == 0
    code = main(["tune", str(csv), "--params", str(tmp_path / "params.json"),
                 "--plan", str(tmp_path / "plan.json"),
                 "--out", str(tmp_path / "bundle.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert not (tmp_path / "bundle.json").exists()


def test_tune_bundle_internally_consistent(workspace):
    bundle = json.loads((workspace / "bundle.json").read_text())
    dist = np.asarray(bundle["min_p_distribution"])
    idx = em.empirical_quantile_index(0.1, dist.size)
    assert bundle["p_threshold"] == np.sort(dist)[idx - 1]
    assert bundle["store_file"] == "bundle.json.store.json"


def test_tune_rejects_unknown_statistic(workspace, tmp_path):
    plan = json.loads((workspace / "plan.json").read_text())
    plan["statistics"] = ["udt", "wavelet"]
    bad = tmp_path / "plan.json"
    bad.write_text(json.dumps(plan))
    res = run_cli(
        "tune", workspace / "reference.csv",
        "--params", workspace / "params.json",
        "--plan", bad, "--out", tmp_path / "bundle.json",
    )
    assert res.returncode == 2
    assert "wavelet" in res.stderr


def test_tune_rejects_unknown_plan_key(workspace, tmp_path, capsys):
    plan = json.loads((workspace / "plan.json").read_text())
    del plan["test_every"]  # optional, unlike a misspelled key
    plan["test_evry"] = 4
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    code = main(["tune", str(workspace / "reference.csv"),
                 "--params", str(workspace / "params.json"),
                 "--plan", str(tmp_path / "plan.json"),
                 "--out", str(tmp_path / "bundle.json")])
    assert code == 2
    assert "plan has unknown keys: test_evry" in capsys.readouterr().err
    assert not (tmp_path / "bundle.json").exists()


def test_repeated_in_process_calls_parse_each_argv_afresh(
    workspace, tmp_path, capsys
):
    # Every call gets its own arguments, defaults, usage errors and
    # --version, whatever an earlier call in the process parsed.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"kind": "h0"}))

    def simulate(out, *extra):
        return main(["simulate", "--bundle", str(workspace / "bundle.json"),
                     "--scenario", str(scenario), "--blocks", "2", "--seed", "1",
                     "--out", str(tmp_path / out), *extra])

    assert simulate("five.json", "--episodes", "5") == 0
    assert simulate("default.json") == 0
    episodes = [json.loads((tmp_path / out).read_text())["episodes_per_block"]
                for out in ("five.json", "default.json")]
    h_tilde = json.loads((workspace / "plan.json").read_text())["h_tilde"]
    assert episodes == [5, h_tilde]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bundle", str(workspace / "bundle.json")])
    assert exc.value.code == 2
    assert "required: --scenario" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == em.__version__ + "\n"
    assert simulate("again.json") == 0
    assert (tmp_path / "again.json").read_bytes() == (
        tmp_path / "default.json").read_bytes()


def test_tune_rejects_a_store_out_flag(workspace, tmp_path):
    # The store is always <out>.store.json, the name the bundle records.
    with pytest.raises(SystemExit) as exc:
        main(["tune", str(workspace / "reference.csv"),
              "--params", str(workspace / "params.json"),
              "--plan", str(workspace / "plan.json"),
              "--out", str(tmp_path / "bundle.json"),
              "--store-out", str(tmp_path / "store.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "bundle.json").exists()


@pytest.mark.parametrize("key, value", [
    ("horizons", [1.9, 3]), ("h_tilde", True), ("B_inner", 800.5),
])
def test_tune_rejects_non_integer_plan_fields(workspace, tmp_path, capsys, key, value):
    plan = json.loads((workspace / "plan.json").read_text())
    plan[key] = value
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    code = main(["tune", str(workspace / "reference.csv"),
                 "--params", str(workspace / "params.json"),
                 "--plan", str(tmp_path / "plan.json"),
                 "--out", str(tmp_path / "bundle.json")])
    assert code == 2
    assert f"plan {key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "bundle.json").exists()


@pytest.mark.parametrize("key, value, message", [
    ("alpha0", "0.1", "plan alpha0 must be a finite number"),
    ("alpha0", float("nan"), "plan alpha0 must be a finite number"),
    ("statistics", ["pdt:0.9", "pdt:0.90"], "plan lists statistic pdt:0.9 twice"),
], ids=["alpha0-string", "alpha0-nan", "statistic-twice"])
def test_tune_rejects_plan_values(workspace, tmp_path, capsys, key, value, message):
    plan = json.loads((workspace / "plan.json").read_text())
    plan[key] = value
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    code = main(["tune", str(workspace / "reference.csv"),
                 "--params", str(workspace / "params.json"),
                 "--plan", str(tmp_path / "plan.json"),
                 "--out", str(tmp_path / "bundle.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bundle.json").exists()


@pytest.mark.parametrize("key", ["T", "d"])
def test_tune_rejects_non_integer_params_fields(workspace, tmp_path, capsys, key):
    params = json.loads((workspace / "params.json").read_text())
    params[key] = float(params[key])
    (tmp_path / "params.json").write_text(json.dumps(params))
    code = main(["tune", str(workspace / "reference.csv"),
                 "--params", str(tmp_path / "params.json"),
                 "--plan", str(workspace / "plan.json"),
                 "--out", str(tmp_path / "bundle.json")])
    assert code == 2
    assert f"params {key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "bundle.json").exists()


BAD_PARAMS = pytest.mark.parametrize("key, value, message", [
    ("lambda", -3.0, "params lambda must not be negative, got -3.0"),
    ("sigma_0", [[1.0]], "params has unknown keys: sigma_0"),
], ids=["negative-lambda", "unknown-key"])


@BAD_PARAMS
def test_tune_rejects_params_values(workspace, tmp_path, capsys, key, value, message):
    # A ridge cannot be negative, and a misspelt key is not silently dropped.
    params = json.loads((workspace / "params.json").read_text())
    params[key] = value
    (tmp_path / "params.json").write_text(json.dumps(params))
    code = main(["tune", str(workspace / "reference.csv"),
                 "--params", str(tmp_path / "params.json"),
                 "--plan", str(workspace / "plan.json"),
                 "--out", str(tmp_path / "bundle.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bundle.json").exists()


@BAD_PARAMS
def test_load_bundle_rejects_params_values(
    workspace, tmp_path, capsys, key, value, message
):
    def edit(bundle, store):
        bundle["params"][key] = value

    bundle = _tampered_bundle(workspace, tmp_path, edit)
    assert _monitor_at_load(bundle) == 2
    assert message in capsys.readouterr().err
    with pytest.raises(InvalidDataError, match=message):
        em.load_bundle(bundle)


@pytest.mark.parametrize("command", ["tune", "monitor", "simulate"])
@pytest.mark.parametrize("value", ["false", 0, None])
def test_params_regularized_must_be_a_json_bool(
    workspace, tmp_path, capsys, command, value
):
    # bool() would read "false" as True, and 0 and null as False.
    def edit(bundle, store):
        bundle["params"]["regularized"] = value

    bundle = _tampered_bundle(workspace, tmp_path, edit)
    params = tmp_path / "params.json"
    params.write_text(json.dumps(json.loads(bundle.read_text())["params"]))
    scenario = tmp_path / "h0.json"
    scenario.write_text(json.dumps({"kind": "h0"}))
    stream = tmp_path / "stream.txt"
    stream.write_text("1.0\n" * 4)
    out = tmp_path / "out.json"
    argv = {
        "tune": ["tune", str(workspace / "reference.csv"), "--params", str(params),
                 "--plan", str(workspace / "plan.json"), "--out", str(out)],
        "monitor": ["monitor", str(stream), "--bundle", str(bundle)],
        "simulate": ["simulate", "--bundle", str(bundle), "--scenario",
                     str(scenario), "--blocks", "2", "--seed", "1",
                     "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert "params regularized must be true or false" in capsys.readouterr().err
    assert not out.exists()


def _stream_text(params_raw, scenario_kind, episodes, seed, epsilon=0.0):
    sc = em.Scenario(params=params_raw, kind=scenario_kind, epsilon=epsilon, seed=seed)
    samples = em.generate_episodes(sc, episodes).ravel()
    return "\n".join(repr(float(x)) for x in samples) + "\n"


@pytest.fixture(scope="module")
def raw_params(workspace):
    # raw-step model matching the reference CSV generation
    data = json.loads((workspace / "params.json").read_text())
    T, d = data["T"], data["d"]
    inner = em.load_params_json(workspace / "params.json")
    raw_sigma = np.kron(inner.sigma0, np.ones((d, d))) + 0.05 * np.eye(T * d)
    return em.EpisodeParams(np.repeat(inner.mu0, d), raw_sigma)


def test_monitor_h0_stream_exits_zero(workspace, raw_params, tmp_path):
    stream = tmp_path / "h0.txt"
    stream.write_text(_stream_text(raw_params, "h0", 6, seed=74))
    res = run_cli("monitor", stream, "--bundle", workspace / "bundle.json")
    assert res.returncode == 0, res.stderr
    events = [json.loads(line) for line in res.stdout.splitlines()]
    assert events, "expected test-point events"
    assert all(not e["fired"] for e in events)
    assert all(e["raw_t"] == 2 * e["t"] for e in events)
    assert {(t["stat"], t["h"]) for t in events[0]["tests"]} == {
        ("udt", 2), ("udt", 3), ("mean", 2), ("mean", 3)
    }


def test_monitor_catastrophic_exits_three(workspace, raw_params, tmp_path):
    stream = tmp_path / "bad.txt"
    stream.write_text(_stream_text(raw_params, "uniform", 6, seed=75, epsilon=25.0))
    res = run_cli("monitor", stream, "--bundle", workspace / "bundle.json")
    assert res.returncode == 3, res.stderr
    events = [json.loads(line) for line in res.stdout.splitlines()]
    assert events[-1]["fired"]


def test_monitor_reads_stdin(workspace, raw_params):
    text = _stream_text(raw_params, "h0", 4, seed=76)
    res = run_cli("monitor", "-", "--bundle", workspace / "bundle.json", stdin=text)
    assert res.returncode == 0, res.stderr


def test_monitor_malformed_line_exits_two(workspace, tmp_path):
    stream = tmp_path / "garbled.txt"
    stream.write_text("1.0\n2.0\nthree\n")
    res = run_cli("monitor", stream, "--bundle", workspace / "bundle.json")
    assert res.returncode == 2
    assert "line 3" in res.stderr


def test_monitor_rearm_continues(workspace, raw_params, tmp_path):
    stream = tmp_path / "bad2.txt"
    warm = _stream_text(raw_params, "uniform", 8, seed=77, epsilon=25.0)
    stream.write_text(warm)
    res = run_cli("monitor", stream, "--bundle", workspace / "bundle.json", "--rearm")
    assert res.returncode == 3


@pytest.mark.parametrize("d", [1, 4, 8, 25])
def test_monitor_downsamples_like_the_reference(tmp_path, monkeypatch, d):
    # Live samples are the block means ReferenceDataset.from_raw makes of
    # the same raw rows, bitwise, over six decades of magnitude: from 8
    # samples on, numpy's pairwise mean and a running sum differ in the
    # last bit.
    rng = np.random.default_rng(d)
    raw = rng.normal(1.5, 2.0, size=(50, 4 * d)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
    stream = tmp_path / "raw.txt"
    stream.write_text("".join(f"{float(x)!r}\n" for x in raw.ravel()))
    samples = []

    class Recorder:
        t = 0
        last_test_point = -1

        def __init__(self, tuned):
            pass

        def step(self, sample):
            samples.append(sample)

    tuned = SimpleNamespace(params=SimpleNamespace(downsample_factor=d))
    monkeypatch.setattr(cli, "load_bundle", lambda path: tuned)
    monkeypatch.setattr(cli, "Monitor", Recorder)
    assert main(["monitor", str(stream), "--bundle", "bundle.json"]) == 0
    expected = em.ReferenceDataset.from_raw(raw, d).episodes.ravel()
    assert len(samples) == expected.size
    assert np.array_equal(samples, expected)


def test_simulate_report(workspace, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"kind": "uniform", "epsilon_sigma": 10.0}))
    out = tmp_path / "report.json"
    res = run_cli(
        "simulate", "--bundle", workspace / "bundle.json",
        "--scenario", scenario, "--blocks", 8, "--seed", 78, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["blocks"] == 8
    assert report["detection_fraction"] == 1.0  # 10-sigma drop: always caught
    curve = report["detection_curve"]
    assert len(curve["steps_after_onset"]) == report["detections"]
    assert curve["cumulative_fraction"][-1] == report["detection_fraction"]
    # determinism
    out2 = tmp_path / "report2.json"
    res = run_cli(
        "simulate", "--bundle", workspace / "bundle.json",
        "--scenario", scenario, "--blocks", 8, "--seed", 78, "--out", out2,
    )
    assert res.returncode == 0 and sha256(out) == sha256(out2)


def test_simulate_h0_rarely_fires(workspace, tmp_path):
    scenario = tmp_path / "h0.json"
    scenario.write_text(json.dumps({"kind": "h0"}))
    out = tmp_path / "h0_report.json"
    res = run_cli(
        "simulate", "--bundle", workspace / "bundle.json",
        "--scenario", scenario, "--blocks", 30, "--seed", 79, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["detection_fraction"] <= 0.3  # alpha0 = 0.1 plus slack


def test_simulate_rejects_nonpositive_episodes(workspace, tmp_path, capsys):
    scenario = tmp_path / "h0.json"
    scenario.write_text(json.dumps({"kind": "h0"}))
    code = main([
        "simulate", "--bundle", str(workspace / "bundle.json"),
        "--scenario", str(scenario), "--blocks", "2", "--episodes", "0",
        "--seed", "1", "--out", str(tmp_path / "report.json"),
    ])
    assert code == 2
    assert "--episodes must be positive" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_rejects_unknown_scenario_key(workspace, tmp_path, capsys):
    # "epsilon" is a typo for "epsilon_sigma"; ignored, it would simulate
    # no drop at all and exit 0.
    scenario = tmp_path / "typo.json"
    scenario.write_text(json.dumps({"kind": "uniform", "epsilon": 0.5}))
    out = tmp_path / "report.json"
    code = main([
        "simulate", "--bundle", str(workspace / "bundle.json"),
        "--scenario", str(scenario), "--blocks", "2", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 2
    assert "scenario has unknown keys: epsilon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", [
    {"kind": "h0", "epsilon_sigma": 5},
    {"kind": "uniform", "offsets": [1, 2], "epsilon_sigma": 1.0},
], ids=["h0-epsilon", "uniform-offsets"])
def test_simulate_rejects_fields_the_scenario_kind_ignores(
    workspace, tmp_path, capsys, scenario
):
    # Ignored, either field would simulate another scenario and exit 0.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "report.json"
    code = main([
        "simulate", "--bundle", str(workspace / "bundle.json"),
        "--scenario", str(path), "--blocks", "2", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 2
    assert "scenario takes no" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, field", [
    ({"kind": "scaled_uniform", "epsilon_sigma": 1.0, "K": 2.5}, "K"),
    ({"kind": "scaled_uniform", "epsilon_sigma": 1.0, "K": True}, "K"),
    ({"kind": "partial", "epsilon_sigma": 1.0, "offsets": [1.5, 3]}, "offsets"),
], ids=["K-float", "K-bool", "offsets-float"])
def test_simulate_rejects_non_integer_scenario_fields(
    workspace, tmp_path, capsys, scenario, field
):
    # int() would truncate each to a scenario other than the one written.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "report.json"
    code = main([
        "simulate", "--bundle", str(workspace / "bundle.json"),
        "--scenario", str(path), "--blocks", "2", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 2
    assert f"scenario {field} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "epsilon_sigma", [True, "0.5", float("nan"), float("inf")],
    ids=["bool", "string", "nan", "infinity"],
)
def test_simulate_rejects_non_numeric_epsilon_sigma(
    workspace, tmp_path, capsys, epsilon_sigma
):
    # float() would read true as a 1-sigma drop and "0.5" as 0.5; NaN would
    # fail late, as streams of non-finite samples.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "uniform", "epsilon_sigma": epsilon_sigma}))
    out = tmp_path / "report.json"
    code = main([
        "simulate", "--bundle", str(workspace / "bundle.json"),
        "--scenario", str(path), "--blocks", "2", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "scenario epsilon_sigma must be a finite number" in err
    assert not out.exists()


def test_simulate_detection_times_match_the_monitor(
    workspace, tmp_path, monkeypatch
):
    # simulate replays its blocks in batches; every detection time must be
    # the live monitor's on the same block. Five episodes per block (not
    # h_tilde) and more blocks than one replay chunk of 100 runs.
    monkeypatch.setattr(stats, "_BATCH_CHUNK", 500)  # 500 // 5 = 100 runs
    scenario = tmp_path / "drop.json"
    scenario.write_text(json.dumps({"kind": "uniform", "epsilon_sigma": 0.4}))
    out = tmp_path / "report.json"
    blocks, episodes, seed = 170, 5, 80
    assert main([
        "simulate", "--bundle", str(workspace / "bundle.json"),
        "--scenario", str(scenario), "--blocks", str(blocks),
        "--episodes", str(episodes), "--seed", str(seed), "--out", str(out),
    ]) == 0
    tuned = em.load_bundle(workspace / "bundle.json")
    params, plan = tuned.params, tuned.plan
    assert blocks > stats.runs_per_chunk(episodes)
    # Block i is row i of one table from the (seed, "simulate") stream: h_max
    # H0 warm-up episodes, then the scenario's.
    drop = em.Scenario(params=params, kind="uniform",
                       epsilon=0.4 * params.mean_step_std)
    means = np.concatenate([np.tile(params.mu0, (plan.h_max, 1)),
                            np.tile(drop.mean, (episodes, 1))])
    table = substream(seed, "simulate").standard_normal(
        (blocks, plan.h_max + episodes, params.T)
    )
    expected = []
    for z in table:
        monitor = em.Monitor(tuned)
        for sample in (z @ params.cholesky_lower.T + means).ravel():
            record = monitor.step(sample)
            if record is not None:
                expected.append(record.t - plan.h_max * params.T)
                break
    report = json.loads(out.read_text())
    assert report["episodes_per_block"] == episodes
    assert 0 < len(expected) < blocks
    assert report["detection_curve"]["steps_after_onset"] == sorted(expected)


def test_simulate_blocks_do_not_depend_on_the_block_count(
    workspace, tmp_path, monkeypatch
):
    # Every block is drawn from the one (seed, "simulate") stream in block
    # order: more blocks append blocks, and smaller draws or a smaller replay
    # chunk (the runs detection_steps reads at a time) do not change the
    # first blocks' bits.
    calls = []  # (replay chunk, blocks) of each simulate call
    detection_steps = cli.detection_steps

    def recording(tuned, blocks, episodes_per_run):
        blocks = [block.copy() for block in blocks]
        calls.append((stats.runs_per_chunk(episodes_per_run), blocks))
        return detection_steps(tuned, blocks, episodes_per_run)

    monkeypatch.setattr(cli, "detection_steps", recording)
    scenario = tmp_path / "drop.json"
    scenario.write_text(json.dumps({"kind": "uniform", "epsilon_sigma": 0.4}))

    def simulate(blocks):
        assert main([
            "simulate", "--bundle", str(workspace / "bundle.json"),
            "--scenario", str(scenario), "--blocks", str(blocks),
            "--seed", "9", "--out", str(tmp_path / "report.json"),
        ]) == 0

    simulate(5)
    simulate(10)
    monkeypatch.setattr(stats, "_BATCH_CHUNK", 6)  # chunks of 6 // h_tilde runs
    monkeypatch.setattr(synthetic, "_DRAW_SAMPLES", 1)  # one block per draw
    simulate(10)
    (chunk5, five), (chunk10, ten), (small_chunk, split) = calls
    assert chunk5 >= 5 and chunk10 >= 10 and small_chunk < 10
    assert len(five) == 5 and len(ten) == len(split) == 10
    assert all(np.array_equal(a, b) for a, b in zip(five, ten))
    assert all(np.array_equal(a, b) for a, b in zip(ten, split))
    assert len({block.tobytes() for block in ten}) == 10


def test_power_report(workspace, tmp_path):
    out = tmp_path / "power.json"
    res = run_cli(
        "power", "--params", workspace / "params.json",
        "--epsilon-sigma", 0.0, "--alpha", 0.05, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["power_mean"] == pytest.approx(0.05, abs=1e-10)
    assert report["power_udt"] == pytest.approx(0.05, abs=1e-10)
    assert report["g2_rel_gap"] <= 1e-9
    res2 = run_cli(
        "power", "--params", workspace / "params.json",
        "--epsilon-sigma", 0.3, "--alpha", 0.05, "--out", out,
    )
    assert res2.returncode == 0
    report = json.loads(out.read_text())
    assert report["power_udt"] >= report["power_mean"] > 0.05
    # determinism
    out2 = tmp_path / "power2.json"
    run_cli("power", "--params", workspace / "params.json",
            "--epsilon-sigma", 0.3, "--alpha", 0.05, "--out", out2)
    assert sha256(out) == sha256(out2)


@pytest.mark.parametrize("epsilon_sigma", ["nan", "inf", "-inf", "1e308"])
def test_power_rejects_a_non_finite_epsilon(workspace, tmp_path, capsys, epsilon_sigma):
    # NaN and inf exited 0 with NaN and Infinity in the report, which is
    # then not JSON; 1e308 overflows to an infinite epsilon.
    out = tmp_path / "power.json"
    code = main(["power", "--params", str(workspace / "params.json"),
                 f"--epsilon-sigma={epsilon_sigma}", "--out", str(out)])
    assert code == 2
    assert "epsilon must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._dump_json({"epsilon": float(epsilon_sigma) * np.inf})


def test_missing_file_exits_two(tmp_path):
    res = run_cli("power", "--params", tmp_path / "absent.json",
                  "--epsilon-sigma", 0.1, "--out", tmp_path / "x.json")
    assert res.returncode == 2


def _rows(workspace):
    """The tuned store's rows, as a writable array."""
    return np.load(workspace / "bundle.json.store.npy")


def _npy(rows, allow_pickle=False):
    """The bytes of ``rows`` as an ``.npy`` file."""
    buf = io.BytesIO()
    np.save(buf, rows, allow_pickle=allow_pickle)
    return buf.getvalue()


def _tampered_bundle(workspace, tmp_path, edit, edit_rows=None):
    """Copy the tuned bundle, store index and store rows into ``tmp_path``,
    apply ``edit(bundle, store)`` to the parsed bundle and index, and return
    the copied bundle's path.

    Without ``edit_rows`` the rows file follows the edited index: each entry
    keeps the tuned row its ``row`` names, and rows are renumbered in entry
    order, so a dropped entry drops its row and a copied entry copies it.
    With it, the rows file holds ``edit_rows(rows)``, bytes made from the
    tuned rows, and the index keeps the rows ``edit`` gave it. Either way
    ``rows_sha256`` is sealed over the bytes written, so each check after
    the hash is reached by itself.
    """
    bundle = json.loads((workspace / "bundle.json").read_text())
    store = json.loads((workspace / "bundle.json.store.json").read_text())
    rows = _rows(workspace)
    edit(bundle, store)
    if edit_rows is None:
        raw = _npy(rows[[entry["row"] for entry in store["entries"]]])
        for row, entry in enumerate(store["entries"]):
            entry["row"] = row
    else:
        raw = edit_rows(rows)
    store["rows_sha256"] = hashlib.sha256(raw).hexdigest()
    (tmp_path / "bundle.json").write_text(json.dumps(bundle))
    (tmp_path / "bundle.json.store.json").write_text(json.dumps(store))
    (tmp_path / "bundle.json.store.npy").write_bytes(raw)
    return tmp_path / "bundle.json"


def _monitor_at_load(bundle):
    """Run ``monitor`` in-process on ``bundle``. The stream ends before the
    first test-point, so only a check at load can reject the bundle."""
    stream = bundle.parent / "stream.txt"
    stream.write_text("1.0\n" * 4)
    return main(["monitor", str(stream), "--bundle", str(bundle)])


def _monitor_with_tampered_bundle(workspace, tmp_path, edit, edit_rows=None):
    """:func:`_monitor_at_load` on a :func:`_tampered_bundle`."""
    return _monitor_at_load(_tampered_bundle(workspace, tmp_path, edit, edit_rows))


def test_load_bundle_rejects_store_with_other_b(workspace, tmp_path, capsys):
    def edit(bundle, store):
        bundle["plan"]["B_inner"] = store["B"] + 1

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "B_inner" in capsys.readouterr().err


def test_load_bundle_rejects_store_with_other_seed(workspace, tmp_path, capsys):
    def edit(bundle, store):
        store["seed"] = bundle["plan"]["seed"] + 1

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("where, key", [
    ("store", "B"), ("store", "seed"), ("entry", "n"), ("params", "T"),
    ("params", "d"),
])
def test_load_bundle_rejects_non_integer_fields(
    workspace, tmp_path, capsys, where, key
):
    def edit(bundle, store):
        target = {"store": store, "entry": store["entries"][0],
                  "params": bundle["params"]}[where]
        target[key] = float(target[key])

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    what = {"store": "store ", "entry": "store entry ", "params": "params "}[where]
    assert f"{what}{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("entries", [5, {}, "abc"], ids=["int", "object", "string"])
def test_load_bundle_rejects_store_entries_that_are_not_a_list(
    workspace, tmp_path, capsys, entries
):
    # Checked before the rows file is read: a string or an object would
    # otherwise be measured by len() against the rows' shape.
    def edit(bundle, store):
        store["entries"] = entries

    code = _monitor_with_tampered_bundle(workspace, tmp_path, edit, _npy)
    assert code == 2
    assert "error: store entries must be a list" in capsys.readouterr().err
    with pytest.raises(InvalidDataError, match="store entries"):
        em.load_bundle(tmp_path / "bundle.json")


def test_load_bundle_rejects_two_store_entries_for_one_key(
    workspace, tmp_path, capsys
):
    # " UDT" parses to udt; kept, it would replace the udt entry at its length.
    def edit(bundle, store):
        first = next(e for e in store["entries"] if e["kind"] == "udt")
        store["entries"].append({**first, "kind": " UDT"})

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "store has two entries for ('udt', " in capsys.readouterr().err


def test_load_bundle_rejects_store_missing_a_length(workspace, tmp_path, capsys):
    def edit(bundle, store):
        store["entries"] = [
            e for e in store["entries"] if (e["kind"], e["n"]) != ("mean", 18)
        ]

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "'mean' at length 18" in capsys.readouterr().err


def test_load_bundle_raises_not_tuned_for_a_missing_entry(workspace, tmp_path):
    # load_bundle looks up the store rows the monitor reads, so the bundle
    # fails there, not when a Monitor is built from it.
    def edit(bundle, store):
        store["entries"] = [
            e for e in store["entries"] if (e["kind"], e["n"]) != ("udt", 17)
        ]

    bundle = _tampered_bundle(workspace, tmp_path, edit)
    with pytest.raises(NotTunedError, match="'udt' at length 17"):
        em.load_bundle(bundle)


def test_load_bundle_rejects_store_missing_a_mixed_component(
    workspace, tmp_path, capsys
):
    # The plan tests mixed:mean+udt; the store has the mixed entries and the
    # udt ones but lacks one mean entry that only the mixed statistic reads.
    def edit(bundle, store):
        bundle["plan"]["statistics"] = ["udt", "mixed:mean+udt"]
        mixed = [
            {**e, "kind": "mixed:mean+udt"}
            for e in store["entries"]
            if e["kind"] == "mean"
        ]
        store["entries"] = [
            e for e in store["entries"] if (e["kind"], e["n"]) != ("mean", 13)
        ] + mixed

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "'mean' at length 13" in capsys.readouterr().err


def test_load_bundle_rejects_wrongly_typed_plan(workspace, tmp_path, capsys):
    def edit(bundle, store):
        bundle["plan"]["horizons"] = None

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "threshold",
    [float("nan"), -0.5, float("inf"), 7.0, True],
    ids=["nan", "negative", "infinity", "above-one", "true"],
)
def test_load_bundle_rejects_p_threshold_outside_unit_interval(
    workspace, tmp_path, capsys, threshold
):
    def edit(bundle, store):
        bundle["p_threshold"] = threshold

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "p_threshold must be a finite number in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit_distribution",
    [
        lambda d: [float("nan"), *d[1:]],
        lambda d: d[:-1],
        lambda d: d + [1.0],
        lambda d: [d],
        lambda d: [[p] for p in d],
        lambda d: [d[0], [d[1]], *d[2:]],
        lambda d: [0.0, *d[1:]],
        lambda d: [*d[:-1], 1.5],
        lambda d: [str(p) for p in d],
        lambda d: [d[-1], *d[1:-1], d[0]],
        lambda d: None,
        lambda d: [*d[:-1], True],
    ],
    ids=["nan", "short", "long", "nested", "column", "ragged", "below-floor",
         "above-one", "strings", "unsorted", "null", "true"],
)
def test_load_bundle_rejects_malformed_min_p_distribution(
    workspace, tmp_path, capsys, edit_distribution
):
    # A valid distribution is B_outer sorted numbers in [1/(B_inner+1), 1].
    def edit(bundle, store):
        distribution = bundle["min_p_distribution"]
        assert distribution[0] < distribution[-1]
        bundle["min_p_distribution"] = edit_distribution(distribution)

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "error: min_p_distribution " in capsys.readouterr().err
    with pytest.raises(InvalidDataError, match="min_p_distribution"):
        em.load_bundle(tmp_path / "bundle.json")


def test_load_bundle_rejects_unknown_plan_key(workspace, tmp_path, capsys):
    def edit(bundle, store):
        bundle["plan"]["test_evry"] = 4

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "plan has unknown keys: test_evry" in capsys.readouterr().err


@pytest.mark.parametrize("where, key, twin", [
    ("bundle", "p_treshold", "p_threshold"), ("store", "Seed", "seed"),
])
def test_load_bundle_rejects_unknown_top_level_keys(
    workspace, tmp_path, capsys, where, key, twin
):
    # A misspelt key beside the real one was loaded and ignored.
    def edit(bundle, store):
        data = bundle if where == "bundle" else store
        data[key] = data[twin]

    bundle = _tampered_bundle(workspace, tmp_path, edit)
    message = f"{where} has unknown keys: {key}"
    assert _monitor_at_load(bundle) == 2
    assert message in capsys.readouterr().err
    with pytest.raises(InvalidDataError, match=message):
        em.load_bundle(bundle)


NOT_BARE_FILE_NAMES = [
    "../bundle.json.store.json", "sub/bundle.json.store.json",
    "/bundle.json.store.json", "..", "",
]


@pytest.mark.parametrize("store_file", NOT_BARE_FILE_NAMES)
def test_load_bundle_rejects_store_file_with_a_path(
    workspace, tmp_path, capsys, store_file
):
    def edit(bundle, store):
        bundle["store_file"] = store_file

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "bare file name" in capsys.readouterr().err


@pytest.mark.parametrize("rows_file", NOT_BARE_FILE_NAMES)
def test_load_bundle_rejects_rows_file_with_a_path(
    workspace, tmp_path, capsys, rows_file
):
    def edit(bundle, store):
        store["rows_file"] = rows_file

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert f"rows_file {rows_file!r} is not a bare file name" in capsys.readouterr().err


def test_load_bundle_rejects_other_bundle_format_version(
    workspace, tmp_path, capsys
):
    def edit(bundle, store):
        bundle["format_version"] = 7

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit) == 2
    assert "bundle file has format_version 7" in capsys.readouterr().err


def test_load_bundle_rejects_v1_store(workspace, tmp_path, capsys):
    # Store format 1 held each entry's values as a JSON list of numbers.
    rows = _rows(workspace)

    def edit(bundle, store):
        store["format_version"] = 1
        for entry in store["entries"]:
            entry["values"] = rows[entry["row"]].tolist()

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit, _npy) == 2
    err = capsys.readouterr().err
    assert "store file has format_version 1" in err
    assert "epimon tune" in err


def test_load_bundle_rejects_v2_store(workspace, tmp_path, capsys):
    # Store format 2 held each entry's values as base64 of '<f8' bytes.
    rows = _rows(workspace)

    def edit(bundle, store):
        store["format_version"] = 2
        for entry in store["entries"]:
            entry["values"] = base64.b64encode(rows[entry["row"]].tobytes()).decode()

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit, _npy) == 2
    err = capsys.readouterr().err
    assert "store file has format_version 2" in err
    assert "epimon tune" in err


def test_params_file_with_other_format_version_exits_two(
    workspace, tmp_path, capsys
):
    params = json.loads((workspace / "params.json").read_text())
    params["format_version"] = 2
    (tmp_path / "params.json").write_text(json.dumps(params))
    code = main(["power", "--params", str(tmp_path / "params.json"),
                 "--epsilon-sigma", "0.1", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "params file has format_version 2" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def _swap_two(rows):
    rows[3, [10, 500]] = rows[3, [500, 10]]
    return rows


def _set_last(rows, value):
    rows[3, -1] = value
    return rows


def _npz(rows):
    buf = io.BytesIO()
    np.savez(buf, rows=rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "edit_rows, message",
    [
        (lambda rows: _npy(_swap_two(rows)), "store row 3 is not sorted"),
        (lambda rows: _npy(rows[:, :-1]),
         "of shape (24, 799), expected '<f8' of shape (24, 800)"),
        (lambda rows: _npy(_set_last(rows, np.inf)), "non-finite"),
        (lambda rows: _npy(rows)[:-8], "EOF"),
        (lambda rows: _npy(rows.astype(object), allow_pickle=True),
         "Object arrays cannot be loaded when allow_pickle=False"),
        (lambda rows: pickle.dumps(rows), "pickled"),
        (_npz, "is not one array"),
        (lambda rows: _npy(rows[:-1]), "of shape (23, 800), expected"),
        (lambda rows: _npy(rows.T), "of shape (800, 24), expected"),
        (lambda rows: _npy(rows.astype("<f4")), "'<f4' of shape (24, 800)"),
        (lambda rows: _npy(rows.astype(">f8")), "'>f8' of shape (24, 800)"),
    ],
    ids=["swapped", "short", "non-finite", "truncated", "object", "pickled",
         "npz", "missing-row", "transposed", "float32", "big-endian"],
)
def test_load_bundle_rejects_corrupt_store_entry(
    workspace, tmp_path, capsys, edit_rows, message
):
    assert _monitor_with_tampered_bundle(
        workspace, tmp_path, lambda bundle, store: None, edit_rows
    ) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        (lambda entries: len(entries), "has row 24, not in [0, 24)"),
        (lambda entries: -1, "has row -1, not in [0, 24)"),
        (lambda entries: entries[0]["row"], "store row 0 is used by two entries"),
        (lambda entries: 1.0, "store entry row must be an integer"),
        (lambda entries: True, "store entry row must be an integer"),
        (lambda entries: "1", "store entry row must be an integer"),
    ],
    ids=["past-the-end", "negative", "repeated", "float", "bool", "string"],
)
def test_load_bundle_rejects_bad_store_entry_row(
    workspace, tmp_path, capsys, row, message
):
    def edit(bundle, store):
        store["entries"][1]["row"] = row(store["entries"])

    assert _monitor_with_tampered_bundle(workspace, tmp_path, edit, _npy) == 2
    assert message in capsys.readouterr().err


def test_load_bundle_rejects_rows_that_do_not_match_their_sha256(
    workspace, tmp_path, capsys
):
    bundle = _tampered_bundle(workspace, tmp_path, lambda bundle, store: None)
    rows = _rows(workspace)
    rows[3, 0] -= 1.0  # still sorted and finite: only the hash tells
    (tmp_path / "bundle.json.store.npy").write_bytes(_npy(rows))
    assert _monitor_at_load(bundle) == 2
    assert "does not match the index's rows_sha256" in capsys.readouterr().err


def test_load_bundle_rejects_a_missing_rows_file(workspace, tmp_path, capsys):
    bundle = _tampered_bundle(workspace, tmp_path, lambda bundle, store: None)
    (tmp_path / "bundle.json.store.npy").unlink()
    assert _monitor_at_load(bundle) == 2
    assert "bundle.json.store.npy" in capsys.readouterr().err
