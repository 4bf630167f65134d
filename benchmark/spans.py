"""Span recording around wavetorus layer calls, from outside the package.

Wrappers replace public functions at the names callers look them up by:
every ``wavetorus`` module attribute bound to the original function, class
methods on their class, and the ``scipy.linalg`` / ``scipy.sparse.linalg``
entry points the solver calls through its module attributes.  Nothing under
``src/`` changes.  Spans (name, start, end, parent) are kept in memory and
written out when the call ends; everything runs in one thread, so one
stack of open spans describes the nesting.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

clock = time.perf_counter

# span name -> (module, attribute path); one span per call of the callable
LAYER_CALLS = (
    ("cli.parse_config", "wavetorus.cli", "parse_config"),
    ("cli.run", "wavetorus.cli", "run"),
    ("cli.artifacts", "wavetorus.cli", "_write_json"),
    ("cli.artifacts", "wavetorus.spectral", "write_field"),
    ("cli.artifacts", "wavetorus.verify", "write_ratio_csv"),
    ("solver.newton", "wavetorus.solver", "newton_solve"),
    ("solver.residual", "wavetorus.solver", "residual"),
    ("solver.functional_I", "wavetorus.solver", "functional_I"),
    ("solver.monitored", "wavetorus.solver", "monitored_quantities"),
    ("solver.dedup", "wavetorus.solver", "max_time_correlation"),
    ("solver.lu_factor", "scipy.linalg", "lu_factor"),
    ("solver.lu_solve", "scipy.linalg", "lu_solve"),
    ("solver.lgmres", "scipy.sparse.linalg", "lgmres"),
    ("spectral.synthesize", "wavetorus.spectral", "synthesize"),
    ("spectral.synthesize_values", "wavetorus.spectral", "synthesize_values"),
    ("spectral.analyze", "wavetorus.spectral", "analyze"),
    ("spectral.random_field", "wavetorus.spectral", "random_field"),
    ("nonlinearity.values", "wavetorus.nonlinearity", "Nonlinearity.values"),
    ("nonlinearity.potential", "wavetorus.nonlinearity", "Nonlinearity.potential_values"),
    ("nonlinearity.make", "wavetorus.nonlinearity", "make_nonlinearity"),
    ("norms.norm_Lp", "wavetorus.norms", "norm_Lp"),
    ("norms.holder_estimate", "wavetorus.norms", "holder_estimate"),
    ("norms.norm_Es", "wavetorus.norms", "norm_Es"),
    ("norms.sobolev_norm", "wavetorus.norms", "sobolev_norm"),
    ("norms.norm_lq", "wavetorus.norms", "norm_lq"),
    ("dalembert.solve_box", "wavetorus.dalembert", "solve_box"),
    ("verify.hy", "wavetorus.verify", "check_hausdorff_young"),
    ("verify.gn", "wavetorus.verify", "check_gn"),
    ("verify.embedding", "wavetorus.verify", "check_embedding"),
    ("verify.holder", "wavetorus.verify", "check_holder_to_sobolev"),
    ("verify.box", "wavetorus.verify", "check_box_regularity"),
)


def newton_outcome(result=None, exc=None):
    """(failure reason or "", Newton steps) of one newton_solve call.

    A SingularJacobian carries no iterate, so its steps are not known and
    count as 0.
    """
    if exc is None:
        return "", int(result.newton_iters)
    name = type(exc).__name__
    if name == "SingularJacobian":
        return "singular", 0
    steps = int(exc.best.newton_iters) if getattr(exc, "best", None) else 0
    return ("stalled" if "stalled" in str(exc) else "max_iter"), steps


class Patcher:
    """Swaps callables and restores every swap on ``restore``."""

    def __init__(self):
        self._undo = []

    def replace_function(self, module: str, attr: str, make_wrapper) -> None:
        mod = importlib.import_module(module)
        if "." in attr:  # a method: patch the class it is looked up on
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[meth]
            self._set(owner, meth, make_wrapper(orig))
            return
        orig = getattr(mod, attr)
        wrapped = make_wrapper(orig)
        owners = [mod]
        if module.startswith("wavetorus"):
            owners += [m for n, m in sorted(sys.modules.items())
                       if m is not None and m is not mod
                       and (n == "wavetorus" or n.startswith("wavetorus."))]
        for owner in owners:
            if owner.__dict__.get(attr) is orig:
                self._set(owner, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


class OpTimer:
    """One timer at the outermost public call of each operation.

    ``newton_solve`` operations record (seconds, failure reason, steps);
    ``ensemble_fields`` operations are ensemble trials, timed from one
    field request to the next, so a trial includes drawing its field.
    """

    def __init__(self):
        self.ops = []

    def install(self, patcher: Patcher, op: str) -> None:
        if op == "newton_solve":
            patcher.replace_function("wavetorus.solver", "newton_solve", self._newton)
        elif op == "ensemble_fields":
            patcher.replace_function("wavetorus.verify", "ensemble_fields", self._trials)
        else:
            raise ValueError(f"unknown operation {op!r}")

    def _newton(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.ops.append((clock() - t0, *newton_outcome(exc=exc)))
                raise
            self.ops.append((clock() - t0, *newton_outcome(result)))
            return result
        return timed

    def _trials(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            for u in fn(*args, **kwargs):
                yield u
                t1 = clock()
                self.ops.append((t1 - t0, "", 0))
                t0 = t1
        return timed


class SpanRecorder:
    """Spans of every layer call plus the counts measured at the same calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.fft_points = 0
        self.lu_flops = 0.0
        self.newton = {}  # span index -> (failure reason, steps)

    def install(self, patcher: Patcher) -> None:
        for name, module, attr in LAYER_CALLS:
            patcher.replace_function(module, attr,
                                     lambda fn, name=name: self._wrap(name, fn))

    def _count(self, name, idx, args, result, exc):
        if name == "spectral.synthesize_values":
            self.fft_points += int(args[1]) * int(args[2])
        elif name == "spectral.analyze":
            nx, nt = args[0].values.shape
            self.fft_points += nx * nt
        elif name == "solver.lu_factor":
            n = args[0].shape[0]
            self.lu_flops += 2.0 * n**3 / 3.0
        elif name == "solver.newton":
            self.newton[idx] = newton_outcome(result, exc)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, clock(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self.stack.pop()
                self.spans[idx][2] = clock()
                self._count(name, idx, args, result, exc)
        return span

    def self_times(self):
        """Per span: duration minus the part its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own
