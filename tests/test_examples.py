"""The example configs: the MMS and beta-continuation studies, and CI's toy configs."""

import json
from pathlib import Path

import pytest

from wavetorus import mms_run
from wavetorus.cli import EXIT_OK, main, parse_config
from wavetorus.verify import write_mms_csv

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
WORKFLOW = EXAMPLES.parent / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("**/*.json")),
                         ids=lambda p: p.relative_to(EXAMPLES).with_suffix("").as_posix())
def test_example_configs_parse(path):
    parse_config(json.loads(path.read_text()))


def test_workflow_reads_its_configs_and_programs_from_files():
    # CI's configs live in examples/ci/ and its programs in scripts/, where
    # the byte check and the test above read them too
    text = WORKFLOW.read_text()
    assert '"command"' not in text
    assert "python - <<" not in text


def test_mms_example_writes_the_convergence_table(tmp_path, default_nl):
    assert main(["mms", "--config", str(EXAMPLES / "mms_convergence.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    write_mms_csv(mms_run(default_nl, 0.5, [8, 12, 16, 20, 24], 1e-3, seed=5), tmp_path / "direct")
    assert (tmp_path / "mms.csv").read_bytes() == (tmp_path / "direct").read_bytes()


def test_continuation_example_follows_the_branch_to_the_floor(tmp_path):
    # acceptance criterion 09's branch, from beta = 1e-1 down to 1e-6
    assert main(["continue", "--config", str(EXAMPLES / "continuation_study.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = [r.split(",") for r in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
    assert len(rows) == 18 and float(rows[-1][0]) == 1e-6
    assert float(rows[-1][2]) == pytest.approx(440.7955282267, rel=1e-9)
    assert (tmp_path / "solution_final.json").exists()
