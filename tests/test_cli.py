import json

import numpy as np
import pytest

from wavetorus import GridTooCoarse, ParseError, SpectralField, random_field, write_field
from wavetorus.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    config_hash,
    main,
    parse_config,
    run,
)
from wavetorus.norms import holder_estimate, norm_Lp
from wavetorus.spectral import default_grid
from wavetorus.verify import MONITORED
from tests.conftest import DEFAULT_NL_SPEC


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


def test_seed_override_changes_provenance(tmp_path):
    path = write_config(tmp_path, minimal_solve_config())
    out = str(tmp_path / "s")
    assert main(["solve", "--config", path, "--out", out, "--seed", "99"]) == EXIT_OK
    rep = json.loads((tmp_path / "s" / "report.json").read_text())
    assert rep["provenance"]["seed"] == 99


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
    import wavetorus.cli

    def coarse(*args, **kwargs):
        raise GridTooCoarse("grid 4 cannot hold bandwidth 8")

    monkeypatch.setattr(wavetorus.cli, "newton_solve", coarse)
    out = tmp_path / "out"
    assert run(parse_config(minimal_solve_config()), str(out)) == EXIT_SOLVER
    rep = json.loads((out / "report.json").read_text())
    assert rep["status"] == "error"
    assert rep["error_type"] == "GridTooCoarse"
    assert rep["reason"] == "grid 4 cannot hold bandwidth 8"
    assert "GridTooCoarse" in capsys.readouterr().err


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
    import wavetorus.verify
    from wavetorus import SingularJacobian

    def singular(*args, **kwargs):
        raise SingularJacobian("zero pivot")

    monkeypatch.setattr(wavetorus.verify, "newton_solve", singular)
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

    import wavetorus.cli

    follow = wavetorus.cli.continuation_beta

    def last_row_off_zero(*args, **kwargs):  # v_c0 = 0 in every row but the last
        trace = follow(*args, **kwargs)
        trace.rows[-1] = dataclasses.replace(trace.rows[-1], v_c0=1.0)
        return trace

    monkeypatch.setattr(wavetorus.cli, "continuation_beta", last_row_off_zero)
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


def test_continue_stall_writes_the_rows_reached(tmp_path, monkeypatch, capsys):
    import wavetorus.cli
    from wavetorus import StallAt

    follow = wavetorus.cli.continuation_beta

    def stall_after_floor(p, schedule, seed, **kwargs):
        raise StallAt(1e-3, "line search stalled", follow(p, schedule, seed, **kwargs))

    monkeypatch.setattr(wavetorus.cli, "continuation_beta", stall_after_floor)
    doc = {"command": "continue", "seed": 3, "M": 8,
           "beta": {"start": 1e-1, "factor": 0.5, "floor": 5e-2},
           "nl": DEFAULT_NL_SPEC, "initial": {"kind": "zero"}}
    out = tmp_path / "c"
    assert main(["continue", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_SOLVER
    rep = json.loads((out / "report.json").read_text())
    assert rep["status"] == "error" and rep["error_type"] == "StallAt"
    rows = (out / "trace.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0.1", "0.05"]
    assert not (out / "solution_final.json").exists()
    assert "line search stalled" in capsys.readouterr().err


_SCIPY_STAGES = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

if sys.argv[1] == "linalg":
    import scipy.linalg
    print(json.dumps(scipy_modules()))
    raise SystemExit
from wavetorus.cli import parse_config, run
stages = {"import": scipy_modules()}
for i, doc in enumerate(json.loads(sys.argv[1])):
    assert run(parse_config(doc), sys.argv[2] + str(i)) == 0
    stages[doc["command"]] = scipy_modules()
print(json.dumps(stages))
"""


def test_grid_norm_commands_load_no_scipy(tmp_path):
    # import, verify and norms load no scipy module; a solve loads scipy.linalg
    # and, of scipy.fft and scipy.optimize, only what scipy.linalg itself loads
    import os
    import subprocess
    import sys

    import wavetorus

    fpath = tmp_path / "field.json"
    write_field(random_field(1, 8, decay=0.3), fpath)
    docs = [{"command": "verify", "seed": 5,
             "verify": {"suite": "all", "count": 4, "ensemble_M": 8, "tails": [4],
                        "tail_count": 4}},
            {"command": "norms", "norms": {"field": str(fpath),
                                           "p": [4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 2.5],
                                           "gamma": [0.5]}},
            minimal_solve_config(initial={"kind": "random", "amplitude": 0.3})]
    src = os.path.dirname(os.path.dirname(wavetorus.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def stages(*args):
        out = subprocess.run([sys.executable, "-c", _SCIPY_STAGES, *args], env=env,
                             capture_output=True, text=True, check=True).stdout
        return json.loads(out)

    seen = stages(json.dumps(docs), str(tmp_path / "out"))
    assert seen["import"] == seen["verify"] == seen["norms"] == []
    assert "scipy.linalg" in seen["solve"]

    def fft_or_optimize(mods):
        return {m for m in mods if m.startswith(("scipy.fft", "scipy.optimize"))}

    assert fft_or_optimize(seen["solve"]) <= fft_or_optimize(stages("linalg"))
