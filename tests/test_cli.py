import ast
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavetorus.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    config_hash,
    main,
    parse_config,
    run,
)
from wavetorus.errors import GridTooCoarse, ParseError
from wavetorus.norms import holder_estimate, norm_Lp
from wavetorus.solver import MONITORED, linking_report, multi_seed_search
from wavetorus.spectral import default_grid, random_field, write_field
from tests.conftest import DEFAULT_NL_SPEC

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def minimal_solve_config(**overrides):
    doc = {
        "command": "solve",
        "seed": 11,
        "M": 8,
        "beta": 1e-3,
        "sigma": 1,
        "newton": {"tol": 1e-10, "max_iter": 40, "line_search": True},
        "nl": DEFAULT_NL_SPEC,
        "oversample": 4,
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_solve_config():
    cfg = parse_config(minimal_solve_config(), "solve")
    assert cfg.command == "solve"
    assert cfg.M == 8 and cfg.beta == 1e-3 and cfg.seed == 11


def test_parse_rejects_unknown_key():
    doc = minimal_solve_config()
    doc["betta"] = 0.5
    with pytest.raises(ParseError) as exc:
        parse_config(doc, "solve")
    assert any("betta" in e for e in exc.value.errors)


def test_parse_requires_seed_for_randomized_commands():
    with pytest.raises(ParseError) as exc:
        parse_config({"command": "verify", "verify": {"suite": "hy"}}, "verify")
    assert any(e.startswith("seed:") for e in exc.value.errors)


def test_parse_rejects_nondecreasing_schedule():
    doc = minimal_solve_config(command="continue",
                               beta={"start": 1e-1, "factor": 1.0, "floor": 1e-4})
    with pytest.raises(ParseError) as exc:
        parse_config(doc, "continue")
    assert any("factor" in e for e in exc.value.errors)


def test_parse_rejects_inadmissible_nonlinearity():
    doc = minimal_solve_config(nl={"s": 3, "a": [{"j": 0, "c": 1.0}],
                                   "m": {"kind": "none"}})
    with pytest.raises(ParseError) as exc:
        parse_config(doc, "solve")
    assert any("NoMonotoneFloor" in e for e in exc.value.errors)


def test_config_hash_stable():
    doc = minimal_solve_config()
    assert config_hash(doc) == config_hash(json.loads(json.dumps(doc)))
    # the digest is pinned, so the provenance hashes of earlier reports stay valid
    assert config_hash(doc) == "9b58473ebb8cd3ac"


@pytest.mark.parametrize("doc", [{}, {"command": "verify", "seed": 5},
                                 minimal_solve_config(nl={"s": 3, "a": [{"j": 0, "c": 1.0}],
                                                          "m": {"kind": "tanh", "alpha": 0.5}}),
                                 {"é": [1.5, None, True], "nested": {"b": 2, "a": "x"}}])
def test_config_hash_is_hashlib_sha256(doc):
    import hashlib

    canon = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert config_hash(doc) == hashlib.sha256(canon).hexdigest()[:16]


def test_config_hash_falls_back_from_sha2_to_sha256_to_hashlib(monkeypatch):
    # the built-in module is _sha2 on Python 3.12+ and _sha256 before it;
    # hashlib, which loads OpenSSL, serves only where the build has neither
    import hashlib
    import types

    def stand_in(tag):
        return types.SimpleNamespace(sha256=lambda data: types.SimpleNamespace(
            hexdigest=lambda: tag * 64))

    doc = minimal_solve_config()
    monkeypatch.setitem(sys.modules, "_sha2", stand_in("a"))
    monkeypatch.setitem(sys.modules, "_sha256", stand_in("b"))
    assert config_hash(doc) == "a" * 16
    monkeypatch.setitem(sys.modules, "_sha2", None)  # import raises ImportError
    assert config_hash(doc) == "b" * 16
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setattr(hashlib, "sha256", stand_in("c").sha256)
    assert config_hash(doc) == "c" * 16


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def load_strict(path):
    """A JSON artifact read as strict JSON: NaN and Infinity raise."""
    def reject(const):
        raise ValueError(f"{path} holds {const}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_main_config_error_exit_code(tmp_path):
    doc = minimal_solve_config(command="continue",
                               beta={"start": 1e-1, "factor": 1.5, "floor": 1e-4})
    path = write_config(tmp_path, doc)
    assert main(["continue", "--config", path]) == EXIT_CONFIG


def test_main_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_solve_end_to_end_and_deterministic(tmp_path):
    # every artifact of solve, multi and continue is reproduced byte for byte,
    # and every JSON artifact is strict JSON ending in a newline
    configs = {
        "solve": minimal_solve_config(),
        "multi": minimal_solve_config(command="multi", beta=1e-4,
                                      newton={"tol": 1e-10, "max_iter": 60},
                                      multi={"n_seeds": 4}),
        "continue": minimal_solve_config(
            command="continue", beta={"start": 1e-2, "factor": 0.25, "floor": 1e-3},
            initial={"kind": "modes", "modes": [{"j": 1, "k": 2, "re": 0.5}],
                     "amplitude": 0.05}),
    }
    for cmd, doc in configs.items():
        path = write_config(tmp_path, doc)
        a, b = tmp_path / cmd / "a", tmp_path / cmd / "b"
        assert main([cmd, "--config", path, "--out", str(a)]) == EXIT_OK
        assert main([cmd, "--config", path, "--out", str(b)]) == EXIT_OK
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        assert len(names) >= 2  # report.json plus at least one artifact
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (cmd, name)
            if name.endswith(".json"):
                assert (a / name).read_bytes().endswith(b"\n"), (cmd, name)
                load_strict(a / name)
        rep = json.loads((a / "report.json").read_bytes())
        assert rep["status"] == "ok"
        assert rep["provenance"]["seed"] == 11
    assert (tmp_path / "solve" / "a" / "solution.json").exists()


def test_solve_with_non_finite_residual_exits_3(tmp_path, capsys):
    doc = minimal_solve_config(initial={"kind": "random", "amplitude": 1e103})
    path = write_config(tmp_path, doc)
    out = tmp_path / "nan"
    with np.errstate(all="ignore"):
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_SOLVER
    rep = load_strict(out / "report.json")
    assert rep["status"] == "error"
    assert rep["error_type"] == "NoConvergence"
    assert "non-finite residual" in rep["reason"]
    assert not (out / "solution.json").exists()
    assert "non-finite residual" in capsys.readouterr().err


def test_solve_mms_forcing_reports_error(tmp_path):
    doc = minimal_solve_config(
        forcing={"kind": "mms_target", "decay": 0.5, "kernel_free": True},
        initial={"kind": "file", "path": ""},
    )
    # seed the solve from the written target to stay on its branch
    from wavetorus.spectral import SubspaceTag

    target = random_field((doc["seed"], 777), doc["M"], SubspaceTag.EPERP, 0.5)
    tpath = tmp_path / "target.json"
    write_field(target, tpath)
    doc["initial"] = {"kind": "file", "path": str(tpath)}
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "mms")
    assert main(["solve", "--config", path, "--out", out]) == EXIT_OK
    rep = json.loads((tmp_path / "mms" / "report.json").read_text())
    assert rep["mms_error_l2"] <= 1e-9


def test_verify_hy_suite_end_to_end(tmp_path):
    doc = {"command": "verify", "seed": 5,
           "verify": {"suite": "hy", "count": 60, "ensemble_M": 8, "p": 4.0 / 3.0}}
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "v")
    assert main(["verify", "--config", path, "--out", out]) == EXIT_OK
    rep = json.loads((tmp_path / "v" / "report.json").read_text())
    assert rep["violation_count"] == 0
    assert rep["reports"][0]["name"] == "hausdorff_young"


def _verify_reports(tmp_path, name, **verify):
    cfg = parse_config({"command": "verify", "seed": 1,
                        "verify": {"suite": "all", "count": 6, "ensemble_M": 8, "tails": [4],
                                   "tail_count": 2, **verify}})
    assert run(cfg, str(tmp_path / name)) == EXIT_OK
    return load_strict(tmp_path / name / "report.json")["reports"]


def test_verify_at_a_large_decay_reads_the_ratios_of_an_ordinary_scale(tmp_path):
    # every suite's ratio is scale-invariant, so an ensemble whose
    # coefficients lie below 2^-64 is lifted by a power of two: without
    # that, decay 200 reads 0 (the q = 4 and p = 4 sums underflow) and decay
    # 400 ends in a ZeroDivisionError.  From decay 40 (not lifted) up, the
    # fields are one mode pair to double precision, so the maxima agree
    ordinary = [r["ratios"]["max"] for r in _verify_reports(tmp_path, "40", decay=40)]
    assert all(0.0 < m < math.inf for m in ordinary)
    for decay in (200, 400, 700):
        maxima = [r["ratios"]["max"] for r in _verify_reports(tmp_path, str(decay), decay=decay)]
        assert maxima == pytest.approx(ordinary, rel=1e-12), decay


@pytest.mark.parametrize("suite", ["hy", "gn", "embedding", "holder", "box", "all"])
def test_verify_at_a_decay_that_underflows_ends_in_an_error_report(tmp_path, suite):
    # above a decay of about 745 e^(-decay) underflows and every field of the
    # ensemble is exactly zero, which no ratio is defined on
    doc = {"command": "verify", "seed": 1,
           "verify": {"suite": suite, "count": 4, "ensemble_M": 8, "decay": 800}}
    out = tmp_path / "v"
    assert main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_SOLVER
    rep = load_strict(out / "report.json")
    assert (rep["status"], rep["error_type"]) == ("error", "WavetorusError")
    assert "decay" in rep["reason"]
    strict = subprocess.run([sys.executable, str(SCRIPTS / "strict_json.py"), str(out)],
                            capture_output=True, text=True)
    assert strict.returncode == 0, strict.stderr


def test_verify_hy_near_p_1_reads_a_positive_ratio(tmp_path):
    # at p = 1.05 (q = 21) |u_hat|^q of a decay-40 field underflows; the lq
    # norm rescales the sum, so the ratio is the ordinary one, below 1
    doc = {"command": "verify", "seed": 1, "verify": {
        "suite": "hy", "p": 1.05, "count": 4, "ensemble_M": 8, "decay": 40}}
    out = tmp_path / "v"
    assert main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    rep = load_strict(out / "report.json")
    assert 0.0 < rep["reports"][0]["ratios"]["max"] <= 1.0 + 1e-6
    assert rep["violation_count"] == 0


def test_verify_gn_at_a_large_p_reads_a_positive_ratio(tmp_path):
    # at p = 40 |u|^40 of a lifted decay-50 field underflows on the grid; the
    # L^p sum is rescaled as the lq sum is, so the ratio is the ordinary one
    # of a field near one mode.  At decay 0 no sum is rescaled
    def gn_max(decay):
        cfg = parse_config({"command": "verify", "seed": 1, "verify": {
            "suite": "gn", "p": 40, "count": 4, "ensemble_M": 8, "decay": decay}})
        assert run(cfg, str(tmp_path / str(decay))) == EXIT_OK
        return load_strict(tmp_path / str(decay) / "report.json")["reports"][0]["ratios"]["max"]

    assert gn_max(50) == pytest.approx(1.3923433663018834, rel=1e-9)
    assert gn_max(0) == 0.6710930126909646


def _verify_default_args():
    """Each optional verify key that has one default across the suites, at
    that default, read from verify's own definitions."""
    import dataclasses
    import inspect

    from wavetorus.verify import EnsembleSpec, check_embedding

    spec = {f.name: f.default for f in dataclasses.fields(EnsembleSpec)}
    embedding = inspect.signature(check_embedding).parameters
    return {"suite": "all", "count": spec["count"], "ensemble_M": spec["M"],
            "decay": spec["decay"], "write_ratios": False,
            **{k: embedding[k].default for k in ("s", "tail_count")},
            "tails": list(embedding["tails"].default)}


def _verify_without_provenance(tmp_path, name, verify):
    cfg = parse_config({"command": "verify", "seed": 3, "verify": verify})
    assert run(cfg, str(tmp_path / name)) == EXIT_OK
    return {k: v for k, v in load_strict(tmp_path / name / "report.json").items()
            if k != "provenance"}


def test_verify_defaults_are_verify_s_own(tmp_path):
    # a config that omits every optional key writes the report of one that
    # sets each key to verify's default: the command states none of them
    # (p and gamma, whose defaults differ between suites, are set below)
    omitted = _verify_without_provenance(tmp_path, "omitted", {})
    assert omitted == _verify_without_provenance(tmp_path, "set", _verify_default_args())


@pytest.mark.parametrize("key", ["gamma", "gamma_prime"])
def test_verify_holder_gammas_default_to_the_suite_s_own(tmp_path, key):
    # gamma is shared with box under suite all, so the test above leaves
    # both holder keys out; box's p and gamma are pinned further below
    import inspect

    from wavetorus.verify import check_holder_to_sobolev

    small = {"suite": "holder", "count": 4, "ensemble_M": 8}
    default = inspect.signature(check_holder_to_sobolev).parameters[key].default
    assert (_verify_without_provenance(tmp_path, "omitted", small)
            == _verify_without_provenance(tmp_path, "set", {**small, key: default}))


def _report_without_provenance(tmp_path, name, doc):
    assert run(parse_config(doc), str(tmp_path / name)) == EXIT_OK
    return {k: v for k, v in load_strict(tmp_path / name / "report.json").items()
            if k != "provenance"}


@pytest.mark.parametrize("command, key, function, section", [
    ("multi", "n_seeds", multi_seed_search, {}),
    ("linking", "l_values", linking_report, {"n_starts": 1, "n_sphere": 4})])
def test_search_defaults_are_the_solver_s_own(tmp_path, command, key, function, section):
    # a multi config without n_seeds, and a linking config without l_values,
    # write the report of one that sets the solver's signature default
    import inspect

    default = inspect.signature(function).parameters[key].default
    doc = minimal_solve_config(command=command, M=8)
    if command == "linking":
        del doc["newton"]  # not read by linking
    else:
        doc["newton"] = {**doc["newton"], "max_iter": 6}
    omitted = _report_without_provenance(tmp_path, "omitted", {**doc, command: section})
    json_default = list(default) if isinstance(default, tuple) else default
    assert omitted == _report_without_provenance(
        tmp_path, "set", {**doc, command: {**section, key: json_default}})


def test_newton_defaults_are_the_solver_s_own(tmp_path, default_nl):
    # an mms and a multi config without newton write the rows and solutions
    # of mms_run and multi_seed_search called with the library's defaults
    from wavetorus.solver import MMS_DECAY, PenalizedProblem, mms_run, write_mms_csv
    from wavetorus.spectral import read_field

    mms = {"command": "mms", "seed": 12345, "beta": 1e-3, "nl": DEFAULT_NL_SPEC,
           "mms": {"M_list": [6, 8]}}
    assert run(parse_config(mms), str(tmp_path / "mms")) == EXIT_OK
    write_mms_csv(mms_run(default_nl, MMS_DECAY, [6, 8], 1e-3, seed=12345),
                  tmp_path / "direct.csv")
    assert (tmp_path / "mms" / "mms.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    multi = {"command": "multi", "seed": 12345, "M": 8, "beta": 1e-4, "nl": DEFAULT_NL_SPEC,
             "multi": {"n_seeds": 4}}
    assert run(parse_config(multi), str(tmp_path / "multi")) == EXIT_OK
    report = load_strict(tmp_path / "multi" / "report.json")
    sols = multi_seed_search(PenalizedProblem(M=8, beta=1e-4, nl=default_nl), 4,
                             master_seed=12345)
    assert [(s["I_value"], s["residual_norm"], s["newton_iters"])
            for s in report["solutions"]] == [
        (s.I_value, s.residual_norm, s.newton_iters) for s in sols]
    for entry, sol in zip(report["solutions"], sols):
        assert np.array_equal(read_field(tmp_path / "multi" / entry["file"]).coeffs,
                              sol.u.coeffs)


def test_norms_bytes_do_not_follow_numpy_s_blas_threads(tmp_path):
    # the norms command holds numpy's OpenBLAS at one thread, as verify does:
    # at M=12 a two-thread dot moves the last bits of an L^p norm otherwise
    from wavetorus import pool
    from wavetorus.spectral import SubspaceTag

    blas = pool._bundled_openblas("numpy")
    if blas is None:
        pytest.skip("numpy does not run on its wheel's bundled OpenBLAS here")
    write_field(random_field(7, 12, SubspaceTag.ALL, 0.1), tmp_path / "u.json")
    cfg = parse_config({"command": "norms", "norms": {"field": str(tmp_path / "u.json"),
                                                      "p": [2, 3, 4, 1.5]}})
    before = blas.threads()
    outputs = []
    try:
        for threads in (2, 1):
            blas.set_threads(threads)
            out = tmp_path / f"threads{threads}"
            assert run(cfg, str(out)) == EXIT_OK
            assert blas.threads() == threads  # restored
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    finally:
        blas.set_threads(before)
    assert outputs[0] == outputs[1]


def test_verify_box_shares_p_and_gamma_under_suite_all(tmp_path):
    # box reads verify.p and verify.gamma, defaulting to 2 and 0.45; under
    # suite all it shares them with hy/gn and with holder (whose gamma
    # defaults to 0.6), and an int p still reports as a float
    def params(reports):
        return {r["name"]: r["parameters"] for r in reports}

    box = params(_verify_reports(tmp_path, "defaults"))["box_inverse_holder"]
    assert (box["p"], box["q"], box["gamma"]) == (2.0, 2.0, 0.45)
    shared = params(_verify_reports(tmp_path, "shared", p=3, gamma=0.55))
    box = shared["box_inverse_holder"]
    assert (box["p"], box["q"], box["gamma"]) == (3.0, 1.5, 0.55)
    assert isinstance(box["p"], float)
    assert shared["hausdorff_young"]["p"] == shared["gagliardo_nirenberg"]["p"] == 3.0
    assert shared["holder_to_sobolev"]["gamma"] == 0.55


def test_verify_writes_the_same_bytes_on_any_worker_count(tmp_path, monkeypatch):
    # every suite, ratio CSVs included, on 1, 2 and 8 workers (the worker
    # count set through the usable cores).  The 8-worker run (more workers
    # than cores) switches threads every microsecond and starts from empty
    # lattice and synthesis-table caches, so their first builds race
    import wavetorus.pool
    from wavetorus.spectral import _synthesis_table, lattice

    cfg = parse_config({"command": "verify", "seed": 12345,
                        "verify": {"suite": "all", "count": 12, "ensemble_M": 12,
                                   "tails": [4, 8], "tail_count": 8, "write_ratios": True}})

    def files(workers):
        monkeypatch.setattr(wavetorus.pool, "usable_cores", lambda: workers)
        out = tmp_path / str(workers)
        assert run(cfg, str(out)) == EXIT_OK
        return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}

    serial = files(1)
    assert len(serial) == 9 and "report.json" in serial  # and 8 ratio CSVs
    interval = sys.getswitchinterval()
    try:
        assert files(2) == serial
        lattice.cache_clear()
        _synthesis_table.cache_clear()
        sys.setswitchinterval(1e-6)
        assert files(8) == serial
    finally:
        sys.setswitchinterval(interval)


def test_seed_override_changes_provenance(tmp_path):
    path = write_config(tmp_path, minimal_solve_config())
    out = str(tmp_path / "s")
    assert main(["solve", "--config", path, "--out", out, "--seed", "99"]) == EXIT_OK
    rep = json.loads((tmp_path / "s" / "report.json").read_text())
    assert rep["provenance"]["seed"] == 99


def test_seed_option_only_on_commands_that_read_a_seed(tmp_path, capsys):
    # norms reads no seed, so its parser has no --seed (argparse exits 2 on
    # it) and a norms run without it still works
    for cmd in ("solve", "continue", "multi", "verify", "norms", "mms", "linking"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert ("--seed" in capsys.readouterr().out) == (cmd != "norms"), cmd
    fpath = tmp_path / "field.json"
    write_field(random_field(1, 6, decay=0.3), fpath)
    path = write_config(tmp_path, {"command": "norms", "norms": {"field": str(fpath)}})
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--config", path, "--seed", "1"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["norms", "--config", path, "--out", str(tmp_path / "n")]) == EXIT_OK


def test_norms_command(tmp_path):
    u = random_field(1, 6, decay=0.3)
    fpath = tmp_path / "field.json"
    write_field(u, fpath)
    doc = {"command": "norms", "norms": {"field": str(fpath), "p": [2.0],
                                         "gamma": [0.5]}}
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "n")
    assert main(["norms", "--config", path, "--out", out]) == EXIT_OK
    assert (tmp_path / "n" / "norms.csv").exists()
    rows = json.loads((tmp_path / "n" / "norms.json").read_text())
    assert any(r["name"] == "E" for r in rows)


def test_norms_holder_proxy_honours_oversample(tmp_path):
    u = random_field(1, 8, decay=0.3)  # its holder proxy differs at oversample 2 and 4
    fpath = tmp_path / "field.json"
    write_field(u, fpath)
    doc = {"command": "norms", "oversample": 2,
           "norms": {"field": str(fpath), "gamma": [0.5]}}
    out = tmp_path / "n"
    path = write_config(tmp_path, doc)
    assert main(["norms", "--config", path, "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "norms.json").read_text())
    [holder] = [r["value"] for r in rows if r["name"] == "holder_proxy"]
    assert holder == holder_estimate(u, 0.5, 2) != holder_estimate(u, 0.5, 4)


def test_newton_line_search_false_is_solve_only():
    parse_config(minimal_solve_config(newton={"line_search": False}))
    parse_config(minimal_solve_config(command="multi", newton={"line_search": True}))
    mms = minimal_solve_config(command="mms", mms={"M_list": [6, 8]},
                               newton={"line_search": True})
    del mms["M"]
    parse_config(mms)


def test_library_error_in_run_writes_error_report(tmp_path, monkeypatch, capsys):
    # any library error, not only the solver's own, exits 3 with report.json
    import wavetorus.solver

    def coarse(*args, **kwargs):
        raise GridTooCoarse("grid 4 cannot hold bandwidth 8")

    monkeypatch.setattr(wavetorus.solver, "newton_solve", coarse)
    out = tmp_path / "out"
    assert run(parse_config(minimal_solve_config()), str(out)) == EXIT_SOLVER
    rep = json.loads((out / "report.json").read_text())
    assert rep["status"] == "error"
    assert rep["error_type"] == "GridTooCoarse"
    assert rep["reason"] == "grid 4 cannot hold bandwidth 8"
    assert "GridTooCoarse" in capsys.readouterr().err


def test_stand_in_set_after_parse_config_is_the_one_that_runs(tmp_path, monkeypatch, capsys):
    # a stand-in on the defining module runs whether it is set before or
    # after parse_config loads that module, and cli binds none of the
    # library's public names: each command imports them in its body
    import wavetorus.cli
    import wavetorus.solver

    cfg = parse_config(minimal_solve_config())

    def coarse(*args, **kwargs):
        raise GridTooCoarse("grid 4 cannot hold bandwidth 8")

    monkeypatch.setattr(wavetorus.solver, "newton_solve", coarse)
    out = tmp_path / "out"
    assert run(cfg, str(out)) == EXIT_SOLVER
    rep = load_strict(out / "report.json")
    assert (rep["status"], rep["error_type"]) == ("error", "GridTooCoarse")
    assert "GridTooCoarse" in capsys.readouterr().err
    defined = set()
    for module in ("solver", "verify", "norms", "nonlinearity", "pool", "dalembert"):
        path = Path(importlib.import_module(f"wavetorus.{module}").__file__)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    public = {name for name in defined if not name.startswith("_")}
    assert {"newton_solve", "LINKING_LEVELS", "HOLDER_GAMMAS"} <= public
    assert sorted(public & vars(wavetorus.cli).keys()) == []


def test_mms_command(tmp_path):
    doc = {"command": "mms", "seed": 5, "beta": 1e-3, "nl": DEFAULT_NL_SPEC,
           "mms": {"decay": 0.5, "M_list": [6, 8]}}
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "m")
    assert main(["mms", "--config", path, "--out", out]) == EXIT_OK
    rep = json.loads((tmp_path / "m" / "report.json").read_text())
    assert len(rep["rows"]) == 2
    assert (tmp_path / "m" / "mms.csv").exists()


def test_mms_singular_levels_report_null_errors(tmp_path, monkeypatch):
    import wavetorus.solver
    from wavetorus.errors import SingularJacobian

    def singular(*args, **kwargs):
        raise SingularJacobian("zero pivot")

    monkeypatch.setattr(wavetorus.solver, "newton_solve", singular)
    doc = {"command": "mms", "seed": 5, "beta": 1e-3, "nl": DEFAULT_NL_SPEC,
           "mms": {"M_list": [6, 8]}}
    out = tmp_path / "m"
    assert main(["mms", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    rep = load_strict(out / "report.json")
    assert rep["n_failed"] == 2
    for row in rep["rows"]:
        assert row["failed"] == "SingularJacobian"
        assert row["l2_error"] is None and row["residual"] is None
    assert (out / "mms.csv").read_text().splitlines()[1:] == [
        "6,nan,nan,-1,SingularJacobian", "8,nan,nan,-1,SingularJacobian"]


def test_continue_command(tmp_path):
    doc = {"command": "continue", "seed": 3, "M": 8,
           "beta": {"start": 1e-2, "factor": 0.25, "floor": 1e-4},
           "nl": DEFAULT_NL_SPEC, "initial": {"kind": "zero"},
           "newton": {"tol": 1e-10, "max_iter": 30}}
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "c")
    assert main(["continue", "--config", path, "--out", out]) == EXIT_OK
    rep = json.loads((tmp_path / "c" / "report.json").read_text())
    assert rep["n_rows"] == 5  # 1e-2, 2.5e-3, 6.25e-4, 1.5625e-4, 1e-4
    trace = (tmp_path / "c" / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("beta,")
    assert len(trace) == 1 + rep["n_rows"]


def test_continue_writes_an_unbounded_monitor_ratio_as_null(tmp_path, monkeypatch):
    import dataclasses

    import wavetorus.solver

    follow = wavetorus.solver.continuation_beta

    def last_row_off_zero(*args, **kwargs):  # v_c0 = 0 in every row but the last
        trace = follow(*args, **kwargs)
        trace.rows[-1] = dataclasses.replace(trace.rows[-1], v_c0=1.0)
        return trace

    monkeypatch.setattr(wavetorus.solver, "continuation_beta", last_row_off_zero)
    doc = {"command": "continue", "seed": 3, "M": 6,
           "beta": {"start": 1e-2, "factor": 0.5, "floor": 5e-3},
           "nl": DEFAULT_NL_SPEC, "initial": {"kind": "zero"}}
    out = tmp_path / "c"
    assert main(["continue", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_OK
    monitor = load_strict(out / "report.json")["monitor"]
    assert monitor["per_quantity"]["v_c0"] == {"max": 1.0, "min": 0.0, "ratio": None,
                                               "within_bound": False}
    assert "v_c0" in monitor["flagged"]


def test_continue_csv_header_names_every_monitored_quantity(tmp_path):
    doc = {"command": "continue", "seed": 3, "M": 6,
           "beta": {"start": 1e-2, "factor": 0.5, "floor": 5e-3},
           "nl": DEFAULT_NL_SPEC, "initial": {"kind": "zero"}}
    out = str(tmp_path / "c")
    assert main(["continue", "--config", write_config(tmp_path, doc),
                 "--out", out]) == EXIT_OK
    header = (tmp_path / "c" / "trace.csv").read_text().splitlines()[0].split(",")
    assert set(MONITORED) <= set(header)


@pytest.mark.parametrize("overrides, key", [
    ({"newton": {"tol": "x"}}, "newton.tol"),
    ({"command": "continue", "beta": {"start": "a", "factor": 0.5, "floor": 1e-6}},
     "beta.start"),
    ({"command": "verify", "verify": [1]}, "verify"),
    ({"nl": {**DEFAULT_NL_SPEC, "a": 5}}, "nl.a"),
    ({"M": True}, "M"),
    ({"sigma": True}, "sigma"),
    ({"newton": {"max_iter": "many"}}, "newton.max_iter"),
    ({"command": "multi", "multi": {"n_seeds": "x"}}, "multi.n_seeds"),
    ({"forcing": {"kind": "bogus"}}, "forcing.kind"),
    ({"initial": {"kind": "bogus"}}, "initial.kind"),
    ({"command": "mms", "mms": {"M_list": [8, 6]}}, "mms.M_list"),
    ({"initial": {"kind": "modes", "modes": [{"j": 1}]}}, "initial.modes[0].k"),
    ({"initial": {"kind": "file"}}, "initial.path"),
    ({"command": "verify", "verify": {"suite": "gn", "p": 1.5}}, "verify.p"),
    ({"command": "verify", "verify": {"suite": "all", "p": 2.0}}, "verify.p"),
    ({"command": "verify", "verify": {"suite": "holder", "gamma": 0.4, "gamma_prime": 0.5}},
     "verify.gamma_prime"),
    ({"command": "verify", "verify": {"suite": "all", "gamma_prime": 0.7}},
     "verify.gamma_prime"),
    ({"command": "linking", "M": 6, "linking": {"l_values": [4, 8]}}, "linking.l_values"),
    ({"command": "linking", "M": 6}, "linking.l_values"),  # default levels 4, 8
    ({"initial": {"kind": "modes", "modes": [{"j": 3, "k": 3, "re": 1.0}]}},
     "initial.modes[0]"),
    ({"command": "continue", "beta": {"start": 1e-2, "factor": 0.5, "floor": 1e-3},
      "newton": {"line_search": False}}, "newton.line_search"),
    ({"command": "multi", "newton": {"line_search": False}}, "newton.line_search"),
    ({"command": "mms", "mms": {"M_list": [6, 8]}, "newton": {"line_search": False}},
     "newton.line_search"),
    # json.load reads Infinity and NaN (and 1e400 as inf); no key takes them
    ({"beta": float("inf")}, "beta"),
    ({"newton": {"tol": float("nan")}}, "newton.tol"),
    ({"nl": {**DEFAULT_NL_SPEC, "s": float("-inf")}}, "nl.s"),
    ({"command": "verify", "verify": {"suite": "hy", "p": float("inf")}}, "verify.p"),
    ({"command": "norms", "norms": {"field": "f.json", "p": [float("inf")]}}, "norms.p"),
    ({"command": "norms", "norms": {"field": "f.json", "q": [2.0, float("inf")]}}, "norms.q"),
    # a complex (0, 0) entry, which no real field has (the diamond rule's neighbour)
    ({"initial": {"kind": "modes", "modes": [{"j": 1, "k": 2, "re": 1.0},
                                             {"j": 0, "k": 0, "re": 0.5, "im": 0.25}]}},
     "initial.modes[1]"),
])
def test_main_rejects_malformed_config(tmp_path, capsys, overrides, key):
    doc = minimal_solve_config(**overrides)
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main([doc["command"], "--config", path, "--out", out]) == EXIT_CONFIG
    assert f"config error: {key}:" in capsys.readouterr().err


def test_main_rejects_number_beyond_float_range(tmp_path, capsys):
    for big in ("1e400", "1" + "0" * 400):  # a float read as inf; an int past any float
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_solve_config(beta="BIG")).replace('"BIG"', big))
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
        assert_one_config_error(capsys, "beta")


def assert_one_config_error(capsys, key):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"wavetorus: config error: {key}:"), err


@pytest.mark.parametrize("overrides, key", [
    ({"initial": {"kind": "file", "path": "MISSING"}}, "initial.path"),
    ({"forcing": {"kind": "file", "path": "MISSING"}}, "forcing.path"),
    ({"command": "continue", "beta": {"start": 1e-2, "factor": 0.5, "floor": 1e-3},
      "initial": {"kind": "file", "path": "MISSING"}}, "initial.path"),
    ({"command": "norms", "norms": {"field": "MISSING"}}, "norms.field"),
])
def test_main_rejects_missing_field_file(tmp_path, capsys, overrides, key):
    doc = minimal_solve_config(**overrides)
    if doc["command"] == "norms":  # norms reads none of the solve keys
        doc = {"command": "norms", "norms": doc["norms"]}
    doc = json.loads(json.dumps(doc).replace(
        "MISSING", str(tmp_path / "no_such_field.json")))
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main([doc["command"], "--config", path, "--out", out]) == EXIT_CONFIG
    assert_one_config_error(capsys, key)


def _field_text(*coeffs, raw=None):
    return json.dumps({"M": 2, "domain": "x:[0,pi],t:[0,2pi]", "normalization": "unit-modes",
                       "coeffs": raw if raw is not None else
                       [dict(zip("jk", jk), re=1.0, im=im) for jk, im in coeffs]})


@pytest.mark.parametrize("text", [
    "[1, 2]", "not json", '{"M": 6}',
    pytest.param(_field_text(((0, 0), 0.5)), id="non-real-mean"),
    pytest.param(_field_text(((0, 1), 0.0), ((1, 0), 0.0), ((0, 1), 0.0)),
                 id="repeated-entry"),
    pytest.param(_field_text(raw=5), id="coeffs-not-a-list"),
    pytest.param(_field_text(raw=[[1, 2]]), id="entry-not-an-object"),
    pytest.param(_field_text(raw=[{"j": 0, "k": 1, "re": None, "im": 0.0}]), id="re-null"),
    pytest.param(_field_text(((0, 1), 0.0)).replace('"M": 2', '"M": 2.0'), id="M-float"),
    pytest.param(_field_text(((0, 1), 0.0)).replace('"M": 2', '"M": "2"'), id="M-string"),
    pytest.param(_field_text(raw=[{"j": 0, "k": True, "re": 0.5, "im": 0.0}]), id="k-true"),
    pytest.param(_field_text(raw=[{"j": 0, "k": 1, "re": "0.5", "im": 0.0}]), id="re-string"),
])
def test_main_rejects_file_that_is_not_a_field(tmp_path, capsys, text):
    fpath = tmp_path / "field.json"
    fpath.write_text(text)
    doc = {"command": "norms", "norms": {"field": str(fpath)}}
    path = write_config(tmp_path, doc)
    assert main(["norms", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert_one_config_error(capsys, "norms.field")


def test_main_names_non_finite_field_entry(tmp_path, capsys):
    # json reads Infinity and NaN; the first non-finite entry is named
    fpath = tmp_path / "field.json"
    fpath.write_text(_field_text(raw=[
        {"j": 0, "k": 0, "re": 1.0, "im": 0.0},
        {"j": -1, "k": 1, "re": float("inf"), "im": 0.0},
        {"j": 0, "k": 1, "re": 0.5, "im": float("nan")}]))
    doc = {"command": "norms", "norms": {"field": str(fpath)}}
    path = write_config(tmp_path, doc)
    assert main(["norms", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wavetorus: config error: norms.field:"), err
    assert "(entry (-1,1) is not finite)" in err[0], err


@pytest.mark.parametrize("section, key", [("initial", "initial.path"),
                                          ("forcing", "forcing.path")])
def test_main_rejects_field_file_of_other_truncation(tmp_path, capsys, section, key):
    fpath = tmp_path / "field.json"
    write_field(random_field(1, 6, decay=0.3), fpath)
    doc = minimal_solve_config(**{section: {"kind": "file", "path": str(fpath)}})
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", path, "--out", out]) == EXIT_CONFIG
    assert_one_config_error(capsys, key)


def count_grid_passes(monkeypatch):
    """The grid sizes of the blocked passes the norms module makes from now on."""
    import wavetorus.norms

    grids = []
    abs_blocks = wavetorus.norms.abs_blocks

    def counting(u, nx, nt):
        grids.append((nx, nt))
        return abs_blocks(u, nx, nt)

    monkeypatch.setattr(wavetorus.norms, "abs_blocks", counting)
    return grids


@pytest.mark.parametrize("suite, ps", [("hy", [4.0 / 3.0, 1.5, 2.0]), ("gn", [3.0, 4.0])])
def test_verify_suite_synthesizes_each_field_once(tmp_path, monkeypatch, suite, ps):
    # every exponent of a suite, and GN's L2 norm, come from one blocked pass per field
    count, grids = 5, count_grid_passes(monkeypatch)
    cfg = parse_config({"command": "verify", "seed": 3,
                        "verify": {"suite": suite, "count": count, "ensemble_M": 8}})
    assert run(cfg, str(tmp_path)) == EXIT_OK
    assert len(grids) == count
    rep = json.loads((tmp_path / "report.json").read_text())
    assert [r["parameters"]["p"] for r in rep["reports"]] == ps


def test_norms_command_synthesizes_the_field_once(tmp_path, monkeypatch):
    # every L^p exponent comes from one blocked pass, equal to its own norm_Lp
    u = random_field(2, 10, decay=0.2)
    fpath = tmp_path / "field.json"
    write_field(u, fpath)
    ps = [1.0, 1.5, 2.0, 3.0, 4.0, 2.5]
    doc = {"command": "norms", "norms": {"field": str(fpath), "p": ps, "gamma": []}}
    path = write_config(tmp_path, doc)
    grids = count_grid_passes(monkeypatch)
    assert main(["norms", "--config", path, "--out", str(tmp_path / "n")]) == EXIT_OK
    assert grids == [(default_grid(10), default_grid(10))]
    rows = json.loads((tmp_path / "n" / "norms.json").read_text())
    assert [(r["params"]["p"], r["value"]) for r in rows if r["name"] == "Lp"] == [
        (p, norm_Lp(u, p)) for p in ps]


@pytest.mark.parametrize("text", ["[1, 2]", '"text"', "3"])
@pytest.mark.parametrize("seed", [[], ["--seed", "7"]])
def test_main_rejects_config_that_is_not_an_object(tmp_path, capsys, text, seed):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", str(path), "--out", out, *seed]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "wavetorus: config error: config: top level must be an object"]


@pytest.mark.parametrize("doc, stray", [
    ({"command": "linking", "seed": 1, "M": 8, "beta": 1e-3, "nl": DEFAULT_NL_SPEC,
      "newton": {"line_search": False, "max_iter": 1}}, ["newton"]),
    ({"command": "verify", "seed": 1, "verify": {"suite": "hy"}, "nl": DEFAULT_NL_SPEC},
     ["nl"]),
    ({"command": "multi", "seed": 1, "M": 8, "beta": 1e-3, "nl": DEFAULT_NL_SPEC,
      "initial": {"kind": "zero"}}, ["initial"]),
    ({"command": "mms", "seed": 1, "M": 8, "beta": 1e-3, "nl": DEFAULT_NL_SPEC,
      "mms": {"M_list": [6, 8]}}, ["M"]),
    ({"command": "norms", "seed": 1, "M": 8, "norms": {"field": "f.json"}}, ["seed", "M"]),
])
def test_main_rejects_keys_the_command_does_not_read(tmp_path, capsys, doc, stray):
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main([doc["command"], "--config", path, "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"wavetorus: config error: {key}: not read by {doc['command']}" for key in stray]


def test_main_rejects_keys_the_kind_does_not_read(tmp_path, capsys):
    doc = minimal_solve_config(
        initial={"kind": "zero", "amplitude": 5.0, "path": "x.json"},
        forcing={"kind": "none", "decay": 0.5, "target_seed": 3})
    out = str(tmp_path / "out")
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "wavetorus: config error: forcing.decay: not read by kind 'none'",
        "wavetorus: config error: forcing.target_seed: not read by kind 'none'",
        "wavetorus: config error: initial.amplitude: not read by kind 'zero'",
        "wavetorus: config error: initial.path: not read by kind 'zero'"]


def _continue_stall(tmp_path, capsys, doc, betas):
    out = tmp_path / "c"
    assert main(["continue", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_SOLVER
    rep = json.loads((out / "report.json").read_text())
    assert rep["status"] == "error" and rep["error_type"] == "StallAt"
    rows = (out / "trace.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows] == ["beta", *betas]
    assert not (out / "solution_final.json").exists()
    assert "line search stalled" in capsys.readouterr().err


_STALL_DOC = {"command": "continue", "seed": 3, "M": 8,
              "beta": {"start": 1e-1, "factor": 0.5, "floor": 5e-2},
              "nl": DEFAULT_NL_SPEC, "initial": {"kind": "zero"}}


def test_continue_stall_writes_the_rows_reached(tmp_path, monkeypatch, capsys):
    # a stall forced after the floor keeps the rows reached
    import wavetorus.solver
    from wavetorus.errors import StallAt

    follow = wavetorus.solver.continuation_beta

    def stall_after_floor(p, schedule, seed, **kwargs):
        raise StallAt(1e-3, "line search stalled", follow(p, schedule, seed, **kwargs))

    monkeypatch.setattr(wavetorus.solver, "continuation_beta", stall_after_floor)
    _continue_stall(tmp_path, capsys, dict(_STALL_DOC), ["0.1", "0.05"])


def test_continue_stall_at_the_first_beta_writes_a_header_only_trace(tmp_path, capsys):
    # the continuation example's seed stalls at the first beta at M=8
    doc = dict(_STALL_DOC, seed=9, initial={"kind": "modes", "amplitude": 0.08,
                                            "modes": [{"j": 2, "k": 2, "re": 1.25}]})
    _continue_stall(tmp_path, capsys, doc, [])


def toy_docs(tmp_path) -> list:
    """A toy config of each command but linking, in the order
    verify, norms, solve, multi, continue, mms; norms reads a field file it
    writes under ``tmp_path``."""
    fpath = tmp_path / "field.json"
    write_field(random_field(1, 8, decay=0.3), fpath)
    return [{"command": "verify", "seed": 5,
             "verify": {"suite": "all", "count": 4, "ensemble_M": 8, "tails": [4],
                        "tail_count": 4}},
            {"command": "norms", "norms": {"field": str(fpath),
                                           "p": [4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 2.5],
                                           "gamma": [0.5]}},
            minimal_solve_config(initial={"kind": "random", "amplitude": 0.3}),
            minimal_solve_config(command="multi", beta=1e-4, multi={"n_seeds": 2}),
            minimal_solve_config(command="continue", initial={"kind": "random", "amplitude": 0.3},
                                 beta={"start": 0.1, "factor": 0.5, "floor": 0.05}),
            {key: value for key, value in minimal_solve_config(command="mms").items()
             if key != "M"} | {"mms": {"M_list": [6, 8]}}]


def fresh_interpreter(script: str, *args) -> str:
    """Standard output of ``script`` run with ``args`` in a new interpreter
    that imports this tree's package."""
    import os

    import wavetorus

    src = os.path.dirname(os.path.dirname(wavetorus.__file__))
    return subprocess.run([sys.executable, "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, check=True).stdout


_WAVETORUS_STAGES = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "wavetorus")

import wavetorus
stages = [loaded()]
from wavetorus.cli import parse_config, run
cfg = parse_config(json.loads(sys.argv[1]))
stages.append(loaded())
assert run(cfg, sys.argv[2]) == 0
stages.append(loaded())
print(json.dumps(stages))
"""
# the package modules each command loads besides cli, errors and spectral,
# which importing wavetorus.cli loads
_SOLVER_LOADS = ["nonlinearity", "norms", "pool", "solver"]
COMMAND_LOADS = {"verify": ["dalembert", "norms", "pool", "verify"], "norms": ["norms", "pool"],
                 **dict.fromkeys(("solve", "multi", "continue", "mms", "linking"),
                                 _SOLVER_LOADS)}


@pytest.mark.parametrize("command", list(COMMAND_LOADS))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    # in a fresh interpreter: importing the package loads no submodule,
    # parse_config loads every module the command runs (the benchmark's
    # set-up pays for them), and run loads no further one.  verify never
    # loads the solver or the nonlinearity, a solver command never loads
    # verify or dalembert, and norms neither solver nor verify
    docs = {doc["command"]: doc for doc in toy_docs(tmp_path)}
    docs["linking"] = {key: value for key, value in minimal_solve_config(
        command="linking").items() if key != "newton"} | {
        "linking": {"l_values": [4], "n_starts": 1, "n_sphere": 4}}
    stages = json.loads(fresh_interpreter(_WAVETORUS_STAGES, json.dumps(docs[command]),
                                          str(tmp_path / "out")))
    parsed = sorted(f"wavetorus.{m}" for m in ["cli", "errors", "spectral",
                                                *COMMAND_LOADS[command]])
    assert stages == [["wavetorus"], ["wavetorus", *parsed], ["wavetorus", *parsed]]
    assert set(COMMAND_LOADS["verify"]).isdisjoint({"solver", "nonlinearity"})
    assert set(_SOLVER_LOADS).isdisjoint({"verify", "dalembert"})
    assert set(COMMAND_LOADS["norms"]).isdisjoint({"solver", "verify"})


def test_readme_lists_each_command_s_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("- What each command loads:")[1].split("\n\n")[0]
    listed = {}
    for item in text.split("\n  - ")[1:]:
        commands, modules = " ".join(item.split()).split(": ")
        listed |= dict.fromkeys(re.findall(r"`(\w+)`", commands),
                                re.findall(r"`(\w+)`", modules))
    assert listed == COMMAND_LOADS


_SCIPY_STAGES = """
import json, sys

def loaded():
    return {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            "futures": "concurrent.futures" in sys.modules,
            "argparse": "argparse" in sys.modules,
            "ma": "numpy.ma" in sys.modules,
            "random": sorted(m for m in ("numpy.random", "secrets", "_hashlib") if m in sys.modules),
            "ctypes": sorted(name for name, mod in sys.modules.items()
                             if name.startswith("wavetorus") and "ctypes" in vars(mod))}

from wavetorus.cli import parse_config, run
stages = {"import": loaded()}
for i, doc in enumerate(json.loads(sys.argv[1])):
    assert run(parse_config(doc), sys.argv[2] + str(i)) == 0
    stages[doc["command"]] = loaded()
print(json.dumps(stages))
"""


def test_grid_norm_commands_load_no_scipy(tmp_path):
    # import, verify, norms, a solve, a multi with its OpenBLAS pin, a
    # continue and an mms load no scipy module, not even the scipy package:
    # the dense LU reaches scipy's bundled OpenBLAS through ctypes.  No
    # stage loads argparse, which only main() uses.  import, verify and
    # norms load no concurrent.futures either, and no wavetorus module
    # imports it: the package's pool is its own.  numpy imports ctypes
    # itself, so for ctypes, which only the pool's OpenBLAS lookups use, the
    # check is that no wavetorus module binds it, whatever command ran.
    # verify's quantiles are written out, and the Newton step splits its
    # coarse and fine coordinates from the weight mask (np.setdiff1d would
    # go through np.unique), so neither loads numpy.ma where numpy imports
    # that lazily (numpy 2; numpy 1.24 imports it at import numpy); for the
    # solves that holds where the LU loads no scipy module either.  Neither
    # does any stage load numpy.random, or secrets and _hashlib (OpenSSL),
    # which it imports: random fields come from spectral's own PCG64 stream
    # and config_hash from the interpreter's built-in SHA-256.  Where numpy
    # imports numpy.random at import numpy (numpy 1.24), the check is that no
    # stage adds one; for the solves it holds where the LU loads no scipy
    # module, as scipy.linalg imports numpy.random.  linking is not among
    # these stages: its Newton starts are numpy.random's standard_normal
    # draws, which load beside its scipy.optimize
    import ast
    import os

    import wavetorus
    from wavetorus import pool

    seen = json.loads(fresh_interpreter(_SCIPY_STAGES, json.dumps(toy_docs(tmp_path)),
                                        str(tmp_path / "out")))
    for stage in ("import", "verify", "norms"):
        assert seen[stage]["scipy"] == [] and seen[stage]["futures"] is False, stage
    assert all(seen[stage]["ctypes"] == [] for stage in seen)
    assert all(seen[stage]["argparse"] is False for stage in seen)
    if not seen["import"]["ma"]:
        assert seen["verify"]["ma"] is False
    if "numpy.random" not in seen["import"]["random"]:
        assert seen["import"]["random"] == []
    for stage in ("verify", "norms"):
        assert seen[stage]["random"] == seen["import"]["random"], stage
    # without a bundled OpenBLAS the LU comes from scipy.linalg.lapack
    bundled = pool._bundled_openblas("scipy") is not None
    for stage in ("solve", "multi", "continue", "mms"):
        assert (seen[stage]["scipy"] == []) is bundled, stage
        if bundled:
            assert seen[stage]["random"] == seen["import"]["random"], stage
        if bundled and not seen["import"]["ma"]:
            assert seen[stage]["ma"] is False, stage
    package = os.path.dirname(wavetorus.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names}
            imported |= {node.module for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module}
            assert not any(m.startswith("concurrent") for m in imported), name
