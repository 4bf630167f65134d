"""Record the committed references and the baseline result.

    python3 benchmark/record.py [--seconds 20]

Runs every workload at its default seed, untraced and traced.  Outputs of
a workload with no entry in references.json are stored there first (delete
an entry to re-record it); every run is then gated against the committed
references.  The results, in the form run.py prints them plus the sample
counts and the environment, go to BENCH_baseline.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BASELINE = HERE / "BENCH_baseline.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    references = json.loads(run.REFERENCES.read_text())
    for w in WORKLOADS:
        if w.name not in references:
            record = run.measure(w, w.default_seed, args.seconds, False)
            if not record["correct"]:
                print(f"{w.name}: not recording a reference: {record['problems']}")
                return 1
            references[w.name] = record["units"][0]["observed"]
            run.REFERENCES.write_text(json.dumps(references, indent=1) + "\n")
    baseline = {}
    for w in WORKLOADS:
        entry = {"seed": w.default_seed, "seconds": args.seconds, "why": w.why,
                 "predicted_dominant": w.dominant}
        for trace in (False, True):
            record = run.measure(w, w.default_seed, args.seconds, trace, references[w.name])
            entry["trace" if trace else "untraced"] = run.result_json(record)
            if not trace:
                entry["samples"] = record.get("samples")
            entry["env"] = record["env"]
            print(f"{w.name} trace={int(trace)} correct={record['correct']}")
        baseline[w.name] = entry
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
