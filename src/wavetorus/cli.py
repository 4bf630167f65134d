"""Command-line front end: config parsing, orchestration, report emission.

Config files are strict JSON checked against one table of the keys each
command reads: a key the command does not read, an ill-typed or out-of-range
value, and a missing required key are rejected with the offending key path,
and any randomized command requires an explicit seed.  Reports are
JSON-first with CSV sidecars; every report carries a provenance block
(config hash, seed, package version), and reruns of the same config on one
host produce identical artifacts (README, "Determinism").

A command passes the library only the keys a config sets, so each default
is stated once, where the library states it: the ensembles' in ``verify``,
the seed count and linking levels in the signatures of ``solver``'s
searches, and the Newton settings in ``newton_solve``'s, or in the driver
that restates one (``multi_seed_search``'s budget, ``mms_run``'s tol and
budget).

Each command loads only the library modules it runs: ``parse_config``
loads them once the command is known (the last entry of its ``_COMMANDS``
row), so a ``verify`` run never loads ``solver`` or ``nonlinearity``, a
solver command never loads ``verify`` or ``dalembert``, and ``run`` loads
no further module.  Each command imports the library names it runs in its
own body, from the module that defines them, so a stand-in set on that
module is the one that runs.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from dataclasses import dataclass, field, replace

from . import __version__
from .errors import NonlinearityRejected, NotInEperp, ParseError, StallAt, WavetorusError
from .spectral import OVERSAMPLE, SpectralField, SubspaceTag, random_field, read_field, write_field
from .spectral import _is_int, _is_num  # the rules of a field file's numbers
from .spectral import write_json as _write_json  # the benchmark's spans look it up by this name

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4


@dataclass
class RunConfig:
    command: str
    raw: dict
    seed: int | None = None
    M: int | None = None
    beta: object = None
    sigma: int = 1
    oversample: int = OVERSAMPLE
    newton: dict = field(default_factory=dict)
    nl: dict | None = None
    forcing: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    mms: dict = field(default_factory=dict)
    multi: dict = field(default_factory=dict)
    linking: dict = field(default_factory=dict)
    norms: dict = field(default_factory=dict)
    out: str | None = None


def _choice(what: str, *options):
    return (lambda v: v in options,
            f"unknown {what} {{!r}} (expected one of {', '.join(options)})")


def _list_of(rule):
    check, message = rule
    return (lambda v: isinstance(v, (list, tuple)) and all(check(x) for x in v),
            f"must be a list; each entry {message}")


# value rules (check, message); a "{!r}" in the message shows the value
_INT = (_is_int, "must be an integer")
_POS_INT = (lambda v: _is_int(v) and v >= 1, "must be a positive integer")
_POS_INTS = _list_of(_POS_INT)
_NONNEG_INT = (lambda v: _is_int(v) and v >= 0, "must be a nonnegative integer")
_NUM = (_is_num, "must be a finite number")
_POS_NUM = (lambda v: _is_num(v) and v > 0, "must be a finite number > 0")
_NONNEG_NUM = (lambda v: _is_num(v) and v >= 0, "must be a finite number >= 0")
_UNIT_NUM = (lambda v: _is_num(v) and 0 < v < 1, "must be a number in (0, 1)")
_EXPONENT = (lambda v: _is_num(v) and v >= 1, "must be a finite number >= 1")
_BOOL = (lambda v: isinstance(v, bool), "must be true or false")
_PATH = (lambda v: isinstance(v, str), "must be a string path")


@dataclass(frozen=True)
class _Section:
    """An object: key -> value rule, _Section, or [_Section] (a list of them)."""

    rules: dict
    required: tuple = ()


# pieces of the sections in _COMMANDS, the table of the keys each command reads
_TERM = _Section({"j": _NONNEG_INT, "c": _NUM, "c_sin": _NUM}, ("j",))
_BASE = {"command": (lambda v: v in COMMANDS, "unknown command {!r}"), "out": _PATH,
         "oversample": (lambda v: _is_int(v) and v >= 2, "must be an integer >= 2")}
_PROBLEM = {  # every command that builds a problem; all but mms add M
    **_BASE, "seed": _NONNEG_INT, "beta": _POS_NUM,
    "sigma": (lambda v: _is_int(v) and v in (1, -1), "must be +1 or -1"),
    "nl": _Section({"s": _NUM, "a": [_TERM], "b": [_TERM], "m": _Section(
        {"kind": _choice("kind", "tanh", "none"), "alpha": _POS_NUM, "bound": _POS_NUM})},
        ("s",)),
}
# the keys besides "kind" that each kind of initial and forcing reads, and
# the ones it requires; the first kind is the default (_kind)
_KINDS = {
    "forcing": {
        "none": _Section({}), "file": _Section({"path": _PATH}, ("path",)),
        "mms_target": _Section(
            {"decay": _NONNEG_NUM, "target_seed": _NONNEG_INT, "kernel_free": _BOOL})},
    "initial": {
        "zero": _Section({}), "file": _Section({"path": _PATH}, ("path",)),
        "random": _Section({"amplitude": _NUM, "decay": _NONNEG_NUM}),
        "modes": _Section({"modes": [_Section({"j": _INT, "k": _INT, "re": _NUM, "im": _NUM},
                                              ("j", "k"))], "amplitude": _NUM}, ("modes",))},
}


def _kind(section: str, sub: dict) -> str:
    """The kind of a config's ``initial`` or ``forcing`` section ``sub``."""
    return sub.get("kind", next(iter(_KINDS[section])))


def _suite(verify: dict) -> str:
    """The suite a config's ``verify`` section runs."""
    return verify.get("suite", "all")


_STARTS = {section: _Section({"kind": _choice("kind", *kinds),
                              **{k: r for kind in kinds.values() for k, r in kind.rules.items()}})
           for section, kinds in _KINDS.items()}
_NEWTON = {"tol": _POS_NUM, "max_iter": _POS_INT}
_LINE_SEARCHED = _Section({**_NEWTON, "line_search": (  # continue, multi, mms
    lambda v: v is True, "must be true (only solve can turn the line search off)")})
_SCHEDULE = _Section({"start": _POS_NUM, "floor": _POS_NUM, "factor": (
    lambda v: _is_num(v) and 0 < v < 1, "schedule must decrease (factor must lie in (0, 1))")},
    ("start", "factor", "floor"))
_SOLVES = ("seed", "M", "beta", "nl")  # required by solve, continue, multi, linking


def _check(value, rule, path: str) -> list:
    """Problems of ``value`` against ``rule``, each prefixed by its key path."""
    if isinstance(rule, list):
        if not isinstance(value, (list, tuple)):
            return [f"{path}: must be a list of objects"]
        return [e for i, item in enumerate(value)
                for e in _check(item, rule[0], f"{path}[{i}]")]
    if isinstance(rule, _Section):
        if not isinstance(value, dict):
            return [f"{path}: must be an object"]
        prefix = f"{path}." if path else ""
        errors = [f"{prefix}{k}: missing" for k in rule.required if k not in value]
        for k, v in value.items():
            if k not in rule.rules:
                errors.append(f"{prefix}{k}: unknown key")
            else:
                errors += _check(v, rule.rules[k], prefix + k)
        return errors
    check, message = rule
    return [] if check(value) else [f"{path}: {message.format(value)}"]


def _cross_key_errors(doc: dict, cmd: str) -> list:
    """Problems of value combinations; ``doc`` holds the keys that passed their
    own rule."""
    errors = []
    for section, kinds in _KINDS.items():
        sub = doc.get(section, {})
        kind = _kind(section, sub)
        errors += [f"{section}.{k}: missing (required for kind {kind!r})"
                   for k in kinds[kind].required if k not in sub]
        errors += [f"{section}.{k}: not read by kind {kind!r}"
                   for k in sub if k != "kind" and k not in kinds[kind].rules]
    if cmd == "verify":  # the only command with a verify section
        from .verify import HOLDER_GAMMAS

        v = doc.get("verify", {})
        suite = _suite(v)
        if suite in ("gn", "all") and "p" in v and v["p"] <= 2:
            errors.append(f"verify.p: must be > 2 for suite {suite} (got {v['p']!r})")
        if suite in ("holder", "all"):
            gamma = v.get("gamma", HOLDER_GAMMAS[0])
            gamma_prime = v.get("gamma_prime", HOLDER_GAMMAS[1])
            if gamma_prime >= gamma:
                errors.append(f"verify.gamma_prime: must be < verify.gamma for suite {suite}"
                              f" (got {gamma_prime!r} >= {gamma!r})")
    M = doc.get("M")
    if cmd == "linking" and M is not None:
        from .solver import LINKING_LEVELS

        too_big = [l for l in doc.get("linking", {}).get("l_values", LINKING_LEVELS) if l > M]
        if too_big:
            errors.append(f"linking.l_values: entries {too_big} exceed M={M}")
    initial = doc.get("initial", {})
    if initial.get("kind") == "modes":
        for i, m in enumerate(initial.get("modes", ())):
            if M is not None and 2 * abs(m["j"]) + abs(m["k"]) > M:
                errors.append(f"initial.modes[{i}]: mode ({m['j']}, {m['k']}) lies"
                              f" outside the diamond 2|j| + |k| <= M={M}")
            if (m["j"], m["k"]) == (0, 0) and m.get("im", 0.0) != 0.0:
                errors.append(f"initial.modes[{i}]: entry (0, 0) of a real field must"
                              f" have im = 0 (got {m['im']!r})")
    beta = doc.get("beta")
    if isinstance(beta, dict) and beta["start"] <= beta["floor"]:
        errors.append("beta: requires start > floor")
    if "nl" in doc:
        from .nonlinearity import nonlinearity_from_config

        try:
            nonlinearity_from_config(doc["nl"])
        except NonlinearityRejected as exc:
            errors.append(f"nl: rejected ({exc.reason})")
        except (KeyError, ValueError) as exc:
            errors.append(f"nl: {exc}")
    return errors


def parse_config(doc, command: str | None = None) -> RunConfig:
    """Validate a decoded config document; raises ParseError listing its problems.

    Once the command is known, the modules its functions import load (the
    last entry of its _COMMANDS row), so a run loads no further module.
    Each key is checked against the rule of its command's section (a key
    outside the section is "not read by" the command), and the keys that
    pass are checked for combinations of values.
    """
    if not isinstance(doc, dict):
        raise ParseError(["config: top level must be an object"])
    doc = dict(doc)
    cmd = doc.get("command", command)
    if cmd is None:
        raise ParseError(["command: missing"])
    if command is not None and cmd != command:
        raise ParseError([f"command: config says {cmd!r} but {command!r} was invoked"])
    if cmd not in COMMANDS:
        raise ParseError(_check(cmd, _BASE["command"], "command"))
    section, _, modules = _COMMANDS[cmd]
    for module in modules:
        importlib.import_module(f".{module}", __package__)
    problems = {k: _check(v, section.rules[k], k) if k in section.rules
                else [f"{k}: not read by {cmd}"] for k, v in doc.items()}
    errors = [e for errs in problems.values() for e in errs]
    errors += [f"{k}: missing (required for {cmd})" for k in section.required if k not in doc]
    errors += _cross_key_errors({k: v for k, v in doc.items() if not problems[k]}, cmd)
    if errors:
        raise ParseError(errors)

    return RunConfig(command=cmd, raw=doc, **{k: v for k, v in doc.items() if k != "command"})


def _sha256():
    """The interpreter's built-in SHA-256 (``_sha2`` on 3.12+, ``_sha256``
    before), which loads no OpenSSL; ``hashlib``'s where the build has
    neither."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return _sha256()(canon.encode()).hexdigest()[:16]


def _provenance(cfg: RunConfig) -> dict:
    return {"config_hash": config_hash(cfg.raw), "seed": cfg.seed,
            "version": __version__}


def _load_field(cfg: RunConfig, key: str, match_M: bool = True) -> SpectralField:
    """The field file named by config ``key``; ParseError if it cannot be read,
    is not a field file, or (with ``match_M``) has another truncation."""
    section, _, sub = key.partition(".")
    path = getattr(cfg, section)[sub]
    try:
        u = read_field(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParseError([f"{key}: cannot load field file {path!r} ({exc})"]) from exc
    if match_M and u.M != cfg.M:
        raise ParseError([f"{key}: field file {path!r} has M={u.M}"
                          f" but the config has M={cfg.M}"])
    return u


def _build_problem(cfg: RunConfig, beta: float):
    from .nonlinearity import nonlinearity_from_config
    from .solver import PenalizedProblem

    nl = nonlinearity_from_config(cfg.nl)
    return PenalizedProblem(M=cfg.M, beta=beta, nl=nl, sigma=cfg.sigma,
                            oversample=cfg.oversample)


def _build_forcing(cfg: RunConfig, problem):
    """Returns (problem_with_forcing, target_or_None)."""
    kind = _kind("forcing", cfg.forcing)
    if kind == "none":
        return problem, None
    if kind == "file":
        f = _load_field(cfg, "forcing.path")
        return replace(problem, forcing=f), None
    from .solver import MMS_DECAY, mms_problem

    target, forced = mms_problem(
        problem.nl, float(cfg.forcing.get("decay", MMS_DECAY)), problem.M, problem.beta,
        seed=cfg.forcing.get("target_seed", cfg.seed), sigma=problem.sigma,
        oversample=problem.oversample,
        kernel_free=bool(cfg.forcing.get("kernel_free")))
    return forced, target


def _initial_field(cfg: RunConfig):
    kind = _kind("initial", cfg.initial)
    if kind == "zero":
        return SpectralField.zeros(cfg.M)
    if kind == "file":
        return _load_field(cfg, "initial.path")
    if kind == "random":
        amp = float(cfg.initial.get("amplitude", 1.0))
        decay = float(cfg.initial.get("decay", 0.5))
        return amp * random_field((cfg.seed, 55), cfg.M, SubspaceTag.ALL, decay)
    modes = {(int(m["j"]), int(m["k"])): complex(m.get("re", 0.0), m.get("im", 0.0))
             for m in cfg.initial["modes"]}
    base = SpectralField.from_modes(cfg.M, modes, hermitian=True)
    amp = float(cfg.initial.get("amplitude", 0.0))
    if amp:
        base = base + amp * random_field((cfg.seed, 56), cfg.M, SubspaceTag.ALL, 0.8)
    return base


def _cmd_solve(cfg: RunConfig, out: str) -> dict:
    from .solver import newton_solve

    p = _build_problem(cfg, float(cfg.beta))
    p, target = _build_forcing(cfg, p)
    sol = newton_solve(p, _initial_field(cfg), **cfg.newton)
    write_field(sol.u, os.path.join(out, "solution.json"))
    payload = {"residual_norm": sol.residual_norm, "I_value": sol.I_value,
               "newton_iters": sol.newton_iters,
               "files": {"solution": "solution.json"}}
    if target is not None:
        payload["mms_error_l2"] = float((sol.u - target).l2())
    return payload


def _cmd_continue(cfg: RunConfig, out: str) -> dict:
    from .solver import BetaSchedule, apriori_monitor, continuation_beta

    sched = BetaSchedule(float(cfg.beta["start"]), float(cfg.beta["factor"]),
                         float(cfg.beta["floor"]))
    p = _build_problem(cfg, sched.start)
    p, _ = _build_forcing(cfg, p)
    stall = None
    try:
        trace = continuation_beta(p, sched, _initial_field(cfg), **cfg.newton)
    except StallAt as exc:  # keep the rows reached before the stall
        stall, trace = exc, exc.trace
    trace.to_csv(os.path.join(out, "trace.csv"))
    if stall is not None:
        raise stall
    write_field(trace.rows[-1].u, os.path.join(out, "solution_final.json"))
    monitor = apriori_monitor(trace)
    return {"n_rows": len(trace.rows), "monitor": monitor,
            "files": {"trace": "trace.csv", "solution": "solution_final.json"}}


def _cmd_multi(cfg: RunConfig, out: str) -> dict:
    from .solver import multi_seed_search

    p = _build_problem(cfg, float(cfg.beta))
    sols = multi_seed_search(p, **cfg.multi, master_seed=cfg.seed, **cfg.newton)
    entries = []
    for i, s in enumerate(sols):
        fname = f"solution_{i:03d}.json"
        write_field(s.u, os.path.join(out, fname))
        entries.append({"file": fname, "I_value": s.I_value,
                        "residual_norm": s.residual_norm,
                        "newton_iters": s.newton_iters})
    return {"n_distinct": len(sols), "solutions": entries}


# the cast of each verify key that a suite's function reads
_VERIFY_CASTS = {"count": int, "ensemble_M": int, "decay": float, "p": float, "s": float,
                 "gamma": float, "gamma_prime": float, "tails": tuple, "tail_count": int}


def _cmd_verify(cfg: RunConfig, out: str) -> dict:
    from .verify import (EnsembleSpec, check_box_regularity, check_embedding,
                         check_holder_to_sobolev, gn_reports, hausdorff_young_reports,
                         write_ratio_csv)

    v = cfg.verify

    def given(*keys, **renamed) -> dict:
        """The keys among ``keys`` and ``renamed``'s values that the config
        sets, cast, by parameter name; a key left out is not passed, so its
        default is verify's."""
        names = {**{k: k for k in keys}, **{k: name for name, k in renamed.items()}}
        return {name: _VERIFY_CASTS[k](v[k]) for k, name in names.items() if k in v}

    spec = EnsembleSpec(seed=cfg.seed, oversample=cfg.oversample,
                        **given("count", "decay", M="ensemble_M"))
    suite = _suite(v)
    ps = {"ps": (float(v["p"]),)} if "p" in v else {}
    reports = []
    if suite in ("hy", "all"):
        reports += hausdorff_young_reports(spec, **ps)
    if suite in ("gn", "all"):
        reports += gn_reports(spec, **ps)
    if suite in ("embedding", "all"):
        reports.append(check_embedding(spec, **given("s", "tails", "tail_count")))
    if suite in ("holder", "all"):
        reports.append(check_holder_to_sobolev(spec, **given("gamma", "gamma_prime")))
    if suite in ("box", "all"):
        reports.append(check_box_regularity(spec, **given("p", "gamma")))
    violations = sum(r.violation_count for r in reports)
    out_reports = []
    for i, r in enumerate(reports):
        if v.get("write_ratios"):
            write_ratio_csv(r, os.path.join(out, f"ratios_{i:02d}_{r.name}.csv"))
        d = r.to_dict()
        d["extras"].pop("per_trial", None)
        out_reports.append(d)
    return {"suite": suite, "reports": out_reports,
            "violation_count": int(violations)}


def _cmd_norms(cfg: RunConfig, out: str) -> dict:
    from .norms import (NormReport, holder_estimate, lp_norms, norm_E, norm_Es, norm_lq,
                        sobolev_norm, write_norm_reports_csv)
    from .pool import one_blas_thread

    u = _load_field(cfg, "norms.field", match_M=False)
    # numpy's OpenBLAS at one thread, as verify holds it: the grid sums'
    # BLAS dots keep their bits at any thread count
    with one_blas_thread("numpy"):
        reports = [NormReport("E", norm_E(u), {})]
        for s in cfg.norms.get("es_s", [1.0]):
            try:
                reports.append(NormReport("Es", norm_Es(u, float(s)), {"s": s}))
            except NotInEperp:
                pass  # field has kernel mass; the scale norm is undefined there
        for s in cfg.norms.get("sobolev_s", [1.0, 2.0]):
            for conv in ("aniso", "ell1"):
                reports.append(NormReport("sobolev", sobolev_norm(u, float(s), conv),
                                          {"s": s, "convention": conv}))
        ps = cfg.norms.get("p", [2.0])
        for p, lp in zip(ps, lp_norms(u, [float(p) for p in ps], cfg.oversample)):
            reports.append(NormReport("Lp", lp, {"p": p}))
        for q in cfg.norms.get("q", [1.0, 2.0]):
            reports.append(NormReport("lq", norm_lq(u, float(q)), {"q": q}))
        for g in cfg.norms.get("gamma", [0.5]):
            reports.append(NormReport("holder_proxy",
                                      holder_estimate(u, float(g), cfg.oversample), {"gamma": g}))
    _write_json(os.path.join(out, "norms.json"), [r.to_dict() for r in reports])
    write_norm_reports_csv(reports, os.path.join(out, "norms.csv"))
    return {"n_reports": len(reports), "files": {"json": "norms.json",
                                                 "csv": "norms.csv"}}


def _cmd_mms(cfg: RunConfig, out: str) -> dict:
    from .nonlinearity import nonlinearity_from_config
    from .solver import MMS_DECAY, mms_run, write_mms_csv

    nl = nonlinearity_from_config(cfg.nl)
    table = mms_run(nl, float(cfg.mms.get("decay", MMS_DECAY)),
                    [int(m) for m in cfg.mms["M_list"]], float(cfg.beta),
                    seed=cfg.seed, sigma=cfg.sigma, oversample=cfg.oversample, **cfg.newton)
    write_mms_csv(table, os.path.join(out, "mms.csv"))
    failed = [r for r in table["rows"] if r["failed"]]
    return {"rows": table["rows"], "target_l2": table["target_l2"],
            "n_failed": len(failed), "files": {"table": "mms.csv"}}


def _cmd_linking(cfg: RunConfig, out: str) -> dict:
    from .solver import linking_report

    p = _build_problem(cfg, float(cfg.beta))
    return linking_report(p, **cfg.linking, master_seed=cfg.seed)


_SOLVER = ("nonlinearity", "solver")  # the modules of the commands that build a problem
# each command: the section of the keys it reads (any other key is a config
# error), the function that runs it, and the modules its functions import
# (each loads the package modules it imports); parse_config loads them
_COMMANDS = {
    "solve": (_Section({**_PROBLEM, "M": _POS_INT, **_STARTS, "newton": _Section(
        {**_NEWTON, "line_search": _BOOL})}, _SOLVES), _cmd_solve, _SOLVER),
    "continue": (_Section({**_PROBLEM, "M": _POS_INT, **_STARTS, "beta": _SCHEDULE,
                           "newton": _LINE_SEARCHED}, _SOLVES), _cmd_continue, _SOLVER),
    "multi": (_Section({**_PROBLEM, "M": _POS_INT, "newton": _LINE_SEARCHED, "multi": _Section(
        {"n_seeds": _POS_INT, "dedup_threshold": _UNIT_NUM})}, _SOLVES), _cmd_multi, _SOLVER),
    "verify": (_Section({**_BASE, "seed": _NONNEG_INT, "verify": _Section({
        "suite": _choice("suite", "hy", "gn", "embedding", "holder", "box", "all"),
        "count": _POS_INT, "ensemble_M": _POS_INT, "decay": _NONNEG_NUM,
        "p": (lambda v: _is_num(v) and v > 1, "must be a finite number > 1"),
        "s": _UNIT_NUM, "gamma": _UNIT_NUM, "gamma_prime": _UNIT_NUM,
        "tails": _POS_INTS, "tail_count": _POS_INT, "write_ratios": _BOOL})},
        ("seed", "verify")), _cmd_verify, ("verify",)),
    "norms": (_Section({**_BASE, "norms": _Section({
        "field": _PATH, "p": _list_of(_EXPONENT), "q": _list_of(_EXPONENT),
        "sobolev_s": _list_of(_NONNEG_NUM), "gamma": _list_of(_UNIT_NUM),
        "es_s": _list_of((lambda v: _is_num(v) and 0 < v <= 1, "must lie in (0, 1]"))},
        ("field",))}, ("norms",)), _cmd_norms, ("norms", "pool")),
    "mms": (_Section({**_PROBLEM, "newton": _LINE_SEARCHED, "mms": _Section({
        "decay": _NONNEG_NUM, "M_list": (
            lambda v: _POS_INTS[0](v) and len(v) > 0 and all(a < b for a, b in zip(v, v[1:])),
            "must be a nonempty increasing list of positive integers")}, ("M_list",))},
        ("seed", "beta", "nl", "mms")), _cmd_mms, _SOLVER),
    "linking": (_Section({**_PROBLEM, "M": _POS_INT, "linking": _Section(
        {"l_values": _POS_INTS, "rho_values": _list_of(_POS_NUM),
         "n_starts": _POS_INT, "n_sphere": _POS_INT})}, _SOLVES), _cmd_linking, _SOLVER),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: RunConfig, out_dir: str | None = None) -> int:
    """Execute a validated config; writes report.json plus artifacts.

    Any library error other than a bad field file (a ParseError, re-raised)
    ends the run with exit 3 and a report.json of status "error".
    """
    out = out_dir or cfg.out or f"runs/{cfg.command}"
    os.makedirs(out, exist_ok=True)
    report = {"command": cfg.command, "provenance": _provenance(cfg)}
    try:
        payload = _COMMANDS[cfg.command][1](cfg, out)
    except ParseError:
        raise  # a bad field file named by the config: main reports a config error
    except WavetorusError as exc:
        report.update(status="error", error_type=type(exc).__name__, reason=str(exc))
        print(f"wavetorus: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_SOLVER
    else:
        report["status"] = "ok"
        report.update(payload)
        code = EXIT_OK
        if cfg.command == "verify" and report.get("violation_count", 0) > 0:
            report["status"] = "violation"
            code = EXIT_VIOLATION
    _write_json(os.path.join(out, "report.json"), report)
    return code


def main(argv=None) -> int:
    import argparse  # not at module level: run() and the benchmark parse no argv

    parser = argparse.ArgumentParser(
        prog="wavetorus",
        description="Spectral lab for time-periodic waves on the torus")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (section, *_) in _COMMANDS.items():
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        if "seed" in section.rules:  # offered only where the config's seed is read
            sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"wavetorus: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = getattr(args, "seed", None)
    if seed is not None and isinstance(doc, dict):  # else parse_config reports it
        doc["seed"] = seed
    try:
        cfg = parse_config(doc, command=args.command)
        return run(cfg, out_dir=args.out)
    except ParseError as exc:  # from the document, or from a field file it names
        for e in exc.errors:
            print(f"wavetorus: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
