"""Printed-only measurements of CI: start-up, memory and wall time of toy and large runs.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/ci_probes.py

It first prints the size of ``src/``: its lines in all, and its code-only
lines, counted with ``tokenize`` (``count_lines``), which leave out blank
lines, comment lines and docstrings; then the same two counts of each
module (``size_lines``), so a change's size shows per module.  Each probe
then runs in a fresh interpreter of its own (``multiprocessing``'s spawn),
so the modules it lists as loaded and its ``ru_maxrss`` are that probe's
alone, and prints one line (the M=72 probe two):

- the set-up of each toy ``verify`` and ``multi`` config of
  ``examples/ci``: the ``wavetorus`` modules loaded, the time for
  ``import wavetorus.cli`` plus ``parse_config`` and ``ru_maxrss`` after
  them.  ``parse_config`` loads the modules the command runs and no other
  (tier-1 holds the lists)
- a toy ``verify`` and a toy ``solve``: the scipy modules each loads,
  whether ``verify`` loads ``numpy.ma`` (none, and not where numpy imports
  it lazily; tier-1 holds the checks), and whether each loads
  ``numpy.random`` or ``_hashlib`` (OpenSSL): neither, unless numpy imports
  ``numpy.random`` at ``import numpy`` (numpy 1.24) or the LU falls back to
  ``scipy.linalg``, with the solve's peak RSS
- ``verify`` at ``ensemble_M`` 32: wall time and peak RSS.  The grid norms
  run in row blocks, and ``holder_estimate`` builds one dyadic block at a
  time.  That no full grid is held is checked in tier-1
  (``tests/test_norms.py``): this run's minor page faults vary about 2x
  between runs of one tree, too much to show it
- one forced dense Newton step at M=64 from the M=32 truncation of its
  target: wall time and peak RSS.  The fill writes J in row panels into the
  LU buffer, so the peak is that buffer plus the interpreter and grid work
- a forced M=72 solve above ``DENSE_LIMIT`` from the M=12 truncation of its
  target, to tol 1e-10, which should load no scipy module; then an unforced
  M=48 solve whose first Krylov solve does not converge (``DENSE_LIMIT``
  lowered to M=40's unknowns), which raises within the GMRES's 10 restarts
- ``multi`` at M=16 with 8 seeds, pooled and on one worker: wall time, CPU,
  voluntary context switches and peak RSS.  The ladder's Python-side work
  takes turns on the GIL, which the pooled run's context switches and its
  CPU beyond the one-worker run's show

No probe has a threshold: hosts are too noisy for a bound.  The exit status
is 1 when a probe's run exits nonzero or raises, else 0.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import resource
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

NL = {"s": 3, "a": [{"j": 0, "c": 1.0}, {"j": 1, "c_sin": 0.5}],
      "m": {"kind": "tanh", "alpha": 1.0}}


def count_lines(source: str) -> tuple:
    """(lines in all, code-only lines) of Python source.  A code line holds
    part of a statement that is not a docstring: a statement made of string
    literals alone is one, wherever it stands.  Blank lines and comment
    lines hold no such token, also inside brackets."""
    code, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                code.update(n for t in statement for n in range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT):
            statement.append(tok)
    return len(source.splitlines()), len(code)


def _scipy_modules() -> list:
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


def _random_and_openssl() -> str:
    return (f"numpy.random loaded: {'numpy.random' in sys.modules}, "
            f"_hashlib loaded: {'_hashlib' in sys.modules}")


def setup(out: Path, config: Path) -> int:
    start = time.perf_counter()
    from wavetorus.cli import parse_config

    parse_config(json.loads(config.read_text()))
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "wavetorus")
    print(f"set-up of {config.relative_to(ROOT)}: import and parse_config {wall:.3f} s, "
          f"ru_maxrss {rss:.1f} MB, modules: {', '.join(loaded)}")
    return 0


def toy_verify(out: Path) -> int:
    from wavetorus.cli import parse_config, run

    cfg = parse_config({"command": "verify", "seed": 12345,
                        "verify": {"suite": "all", "count": 4, "ensemble_M": 8,
                                   "tails": [4], "tail_count": 4}})
    code = run(cfg, str(out))
    print(f"toy verify: exit {code}, scipy modules loaded: {_scipy_modules() or 'none'}, "
          f"numpy.ma loaded: {'numpy.ma' in sys.modules}, {_random_and_openssl()}")
    return code


def toy_solve(out: Path) -> int:
    from wavetorus.cli import parse_config, run

    cfg = parse_config({"command": "solve", "seed": 12345, "M": 8, "beta": 1e-3, "nl": NL,
                        "initial": {"kind": "random", "amplitude": 0.3}})
    code = run(cfg, str(out))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"toy solve: exit {code}, scipy modules loaded: {_scipy_modules() or 'none'}, "
          f"{_random_and_openssl()}, ru_maxrss {rss:.1f} MB")
    return code


def verify_m32(out: Path) -> int:
    from wavetorus.cli import parse_config, run

    cfg = parse_config({"command": "verify", "seed": 12345,
                        "verify": {"suite": "all", "count": 100, "ensemble_M": 32}})
    start = time.perf_counter()
    code = run(cfg, str(out))
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"verify ensemble_M 32: exit {code}, wall {wall:.2f} s, ru_maxrss {rss:.1f} MB")
    return code


def _problem(M: int):
    from wavetorus.nonlinearity import make_nonlinearity
    from wavetorus.solver import mms_problem

    nl = make_nonlinearity(NL["s"], NL["a"], NL["m"], [])
    return nl, *mms_problem(nl, 0.5, M, 1e-3, seed=5)


def dense_m64(out: Path) -> int:
    from wavetorus.errors import NoConvergence
    from wavetorus.solver import newton_solve
    from wavetorus.spectral import embed, truncate

    _, target, p = _problem(64)
    start = time.perf_counter()
    try:
        newton_solve(p, embed(truncate(target, 32), 64), max_iter=1)
    except NoConvergence:
        pass
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"forced dense M=64 step: wall {wall:.2f} s, ru_maxrss {rss:.1f} MB")
    return 0


def above_dense_limit(out: Path) -> int:
    import wavetorus.solver as solver
    from wavetorus.errors import NoConvergence, SingularJacobian
    from wavetorus.solver import PenalizedProblem, newton_solve
    from wavetorus.spectral import SubspaceTag, embed, lattice, random_field, truncate

    nl, target, p = _problem(72)
    start = time.perf_counter()
    sol = newton_solve(p, embed(truncate(target, 12), 72), tol=1e-10, max_iter=25)
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"forced M=72 solve: wall {wall:.2f} s, ru_maxrss {rss:.1f} MB, "
          f"Newton steps {sol.newton_iters}, error {(sol.u - target).l2():.1e}, "
          f"scipy modules loaded: {_scipy_modules()}")
    solver.DENSE_LIMIT = lattice(40).n_real
    p = PenalizedProblem(M=48, beta=1e-3, nl=nl)
    start = time.perf_counter()
    try:
        newton_solve(p, random_field((65, 48), 48, SubspaceTag.ALL, 0.3))
        outcome = "converged"
    except (NoConvergence, SingularJacobian) as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    print(f"unforced M=48 solve, DENSE_LIMIT at M=40: wall "
          f"{time.perf_counter() - start:.2f} s, {outcome}")
    return 0


def multi_m16(out: Path, mode: str) -> int:
    import wavetorus.pool
    from wavetorus.cli import parse_config, run

    if mode == "one_worker":
        wavetorus.pool.usable_cores = lambda: 1
    cfg = parse_config({"command": "multi", "seed": 12345, "M": 16, "beta": 1e-4,
                        "newton": {"tol": 1e-10, "max_iter": 60}, "nl": NL,
                        "multi": {"n_seeds": 8}})
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    code = run(cfg, str(out))
    wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
    print(f"multi M=16, 8 seeds, {mode}: exit {code}, wall {wall:.2f} s, "
          f"user {after.ru_utime - before.ru_utime:.2f} s, "
          f"sys {after.ru_stime - before.ru_stime:.2f} s, "
          f"voluntary context switches {after.ru_nvcsw - before.ru_nvcsw}, "
          f"ru_maxrss {after.ru_maxrss / 1024:.1f} MB")
    return code


PROBES = (*((setup, path) for command in ("verify", "multi")
             for path in sorted((ROOT / "examples" / "ci").glob(f"{command}*.json"))),
          (toy_verify,), (toy_solve,), (verify_m32,), (dense_m64,), (above_dense_limit,),
          (multi_m16, "pooled"), (multi_m16, "one_worker"))


def _exit_with(probe, *args) -> None:
    sys.exit(probe(*args))


def size_lines(src: Path = SRC) -> list:
    """The printed size of ``src``: its lines in all and code-only
    (``count_lines``), then the same two counts of each of its modules."""
    sizes = {path: count_lines(path.read_text()) for path in sorted(src.rglob("*.py"))}
    return [f"src/ lines: {sum(t for t, _ in sizes.values())} in all, "
            f"{sum(c for _, c in sizes.values())} code-only",
            *(f"  {path.relative_to(src).as_posix()}: {t} in all, {c} code-only"
              for path, (t, c) in sizes.items())]


def main() -> int:
    print("\n".join(size_lines()))
    spawn = multiprocessing.get_context("spawn")
    failed = False
    with tempfile.TemporaryDirectory(prefix="ci_probes_") as tmp:
        for i, (probe, *args) in enumerate(PROBES):
            proc = spawn.Process(target=_exit_with, args=(probe, Path(tmp) / str(i), *args))
            proc.start()
            proc.join()
            failed |= proc.exitcode != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
