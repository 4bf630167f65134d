"""Byte-level pins of the artifacts: CSV (header, \\r\\n line ends, repr floats)
and JSON (sorted keys, one-space indent, final newline, non-finite as null)."""

import numpy as np

from wavetorus.norms import NormReport, write_norm_reports_csv
from wavetorus.solver import ContinuationRow, ContinuationTrace, write_mms_csv
from wavetorus.spectral import write_json
from wavetorus.verify import InequalityReport, write_ratio_csv


def test_trace_csv_bytes(tmp_path):
    rows = [ContinuationRow(0.1, 2.5e-14, -1.0 / 3.0, 7, 0.0, 1.5, 1e-20, 3.0, 12.25, 60.1),
            ContinuationRow(0.05, np.float64(3e-14), 440.0, 3, 0.7, 4.4, 8.9, 17.8, 12.4, 6.0)]
    path = tmp_path / "trace.csv"
    ContinuationTrace(rows).to_csv(path)
    assert path.read_bytes() == (
        b"beta,residual_norm,I_value,newton_iters,v_c0,v_t_l2,v_tt_l2,v_ttt_l2,w_h1,w_h2\r\n"
        b"0.1,2.5e-14,-0.3333333333333333,7,0.0,1.5,1e-20,3.0,12.25,60.1\r\n"
        b"0.05,3e-14,440.0,3,0.7,4.4,8.9,17.8,12.4,6.0\r\n")


def test_mms_csv_bytes(tmp_path):
    table = {"rows": [
        {"M": 8, "l2_error": 0.06692686013427421, "residual": 3.5e-11,
         "newton_iters": 3, "failed": ""},
        {"M": 12, "l2_error": float("nan"), "residual": float("nan"),
         "newton_iters": -1, "failed": "SingularJacobian"}]}
    path = tmp_path / "mms.csv"
    write_mms_csv(table, path)
    assert path.read_bytes() == (
        b"M,l2_error,residual,newton_iters,failed\r\n"
        b"8,0.06692686013427421,3.5e-11,3,\r\n"
        b"12,nan,nan,-1,SingularJacobian\r\n")


def test_ratio_csv_bytes(tmp_path):
    report = InequalityReport("hausdorff_young", 3, {"p": 1.5}, {}, 0,
                              {"per_trial": [np.float64(0.1), 2.0 / 3.0, 1.0]})
    path = tmp_path / "ratios.csv"
    write_ratio_csv(report, path)
    assert path.read_bytes() == (
        b"trial,ratio\r\n0,0.1\r\n1,0.6666666666666666\r\n2,1.0\r\n")


def test_norms_csv_bytes(tmp_path):
    reports = [NormReport("E", 9.339516453002801),
               NormReport("sobolev", 0.1, {"s": 1.0, "convention": "aniso"})]
    path = tmp_path / "norms.csv"
    write_norm_reports_csv(reports, path)
    assert path.read_bytes() == (
        b"name,value,params\r\n"
        b"E,9.339516453002801,{}\r\n"
        b'sobolev,0.1,"{""convention"": ""aniso"", ""s"": 1.0}"\r\n')


def test_json_bytes(tmp_path):
    payload = {"rows": [{"M": 8, "l2_error": np.float64("nan"), "ratio": -float("inf")},
                        (1, np.float64(0.1), None)],
               "name": "hy", "I_value": 2.0 / 3.0}
    path = tmp_path / "report.json"
    write_json(path, payload)
    assert path.read_bytes() == (
        b'{\n "I_value": 0.6666666666666666,\n "name": "hy",\n "rows": [\n'
        b'  {\n   "M": 8,\n   "l2_error": null,\n   "ratio": null\n  },\n'
        b'  [\n   1,\n   0.1,\n   null\n  ]\n ]\n}\n')
