import importlib.util
from pathlib import Path

from wavetorus import StallAt

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_continuation_study_writes_partial_trace_of_a_stall(tmp_path, monkeypatch, capsys):
    study = load_script("continuation_study")
    follow = study.continuation_beta

    def stall_after_floor(p, schedule, seed):
        raise StallAt(1e-3, "line search stalled", follow(p, schedule, seed))

    monkeypatch.setattr(study, "continuation_beta", stall_after_floor)
    code = study.main(["--M", "8", "--seed-amplitude", "1.0", "--beta-floor", "0.05",
                       "--out", str(tmp_path)])
    assert code == 3
    assert "stalled at beta=0.001: line search stalled" in capsys.readouterr().err
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0.1", "0.05"]
    assert (tmp_path / "monitor.json").exists()


def test_continuation_study_stalled_at_first_beta_skips_monitor(tmp_path, capsys):
    study = load_script("continuation_study")
    code = study.main(["--M", "8", "--beta-floor", "1e-3", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("stalled at beta=0.1: ")
    assert (tmp_path / "trace.csv").read_text().splitlines() == [
        "beta,residual_norm,I_value,newton_iters,v_c0,v_t_l2,v_tt_l2,v_ttt_l2,w_h1,w_h2"]
    assert not (tmp_path / "monitor.json").exists()
