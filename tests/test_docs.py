"""README states the CLI's contracts as the code has them, and no measurements.

The key tables of README's "Command line" section are parsed and compared
with ``cli._COMMANDS`` and ``cli._KINDS``, and its sentence on the Newton
defaults with the signatures that state them.  Measured figures (sizes, times)
belong in the ``BENCH_*.json`` files and CHANGES.md, where each has its host
and its change; README would quote them out of date.
"""

import re
from pathlib import Path

import pytest

from wavetorus import cli, solver

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# keys every command reads, which the command table leaves out
COMMON_KEYS = {"command", "out", "oversample"}
KEY = re.compile(r"`(\w+)`(\\\*)?")
# a number followed by a unit of size or time: "3.7 MB", "0.6 ms", "1.4 s"
MEASURED = re.compile(r"\d(?:\.\d+)?\s?(?:MB|MiB|KiB|GB|kB|ms|µs|us)\b|\d s\b")


def table_rows(header: str) -> dict:
    """First cell -> second cell of the README table whose header row starts
    with ``| header``, first cells unquoted."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {header} "))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        first, second = (cell.strip() for cell in line.strip("|").split("|"))
        rows[first.strip("`")] = second
    return rows


def keys(text: str) -> dict:
    """{key: required} of a comma-separated list of `key` or `key`\\*."""
    entries = [entry.strip() for entry in text.split(",")]
    parsed = [KEY.fullmatch(entry) for entry in entries]
    assert all(parsed), f"not a key list: {text!r}"
    return {m[1]: bool(m[2]) for m in parsed}


def command_cell(cell: str) -> tuple:
    """({key: required}, {key: {sub-key: required}}) of a command row: keys
    separated by commas, each optionally followed by its section's keys in
    parentheses."""
    top, sections = {}, {}
    for entry in re.split(r",\s*(?![^()]*\))", cell):
        m = re.fullmatch(r"(`\w+`(?:\\\*)?)(?:\s+\((.*)\))?", entry.strip())
        assert m, f"not a key entry: {entry!r}"
        top.update(keys(m[1]))
        if m[2] is not None:
            sections[KEY.match(m[1])[1]] = keys(m[2])
    return top, sections


def required_map(section) -> dict:
    return {k: k in section.required for k in section.rules}


def test_command_table_lists_every_command():
    assert sorted(table_rows("command")) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("cmd", list(cli._COMMANDS))
def test_command_row_equals_the_config_table(cmd):
    section = cli._COMMANDS[cmd][0]
    top, sections = command_cell(table_rows("command")[cmd])
    expected = {k: r for k, r in required_map(section).items() if k not in COMMON_KEYS}
    assert top == expected
    for name, sub in sections.items():
        assert sub == required_map(section.rules[name]), name


def test_kind_table_equals_the_kinds_table():
    rows = table_rows("section")
    assert sorted(rows) == sorted(cli._KINDS)
    for section, kinds in cli._KINDS.items():
        documented = {}
        for entry in rows[section].split(";"):
            kind, _, listed = entry.strip().partition(":")
            documented[KEY.fullmatch(kind)[1]] = keys(listed) if listed.strip() else {}
        # the first kind listed is the default, as in the code
        assert list(documented) == list(kinds), section
        for kind, rules in kinds.items():
            assert documented[kind] == required_map(rules), (section, kind)


def test_newton_defaults_sentence_names_the_signatures():
    # each clause ending in (`function`) names that function's own Newton
    # defaults, as "`key` value" and "line search on|off", and no other
    import inspect

    sentence = re.search(r"A command passes the library only the\s+`newton` keys.*?\.(?=\s)",
                         README, re.S)[0]
    parts = re.split(r"\(`(\w+)`\)", " ".join(sentence.split()))
    clauses = dict(zip(parts[1::2], parts[0::2]))
    assert list(clauses) == ["newton_solve", "multi_seed_search", "mms_run"]
    for name, clause in clauses.items():
        params = inspect.signature(getattr(solver, name)).parameters
        stated = {k: repr(params[k].default) for k in ("tol", "max_iter") if k in params}
        assert dict(re.findall(r"`(tol|max_iter)` (\S+)", clause)) == stated, name
        if "line_search" in params:
            assert f"line search {'on' if params['line_search'].default else 'off'}" in clause
        else:
            assert "line search" not in clause, name


def test_readme_quotes_no_measured_figure():
    found = [(n, line.strip()) for n, line in enumerate(README.splitlines(), 1)
             if MEASURED.search(line)]
    assert not found, found


def test_measured_figure_pattern():
    for text in ("peaks at 3.7 MB", "256 KiB", "0.6 ms", "10 us", "took 1.4 s", "2 GB"):
        assert MEASURED.search(text), text
    for text in ("bound 25%", "`(n_real + 1)^2` float64", "s >= 3", "`32 << 20` bytes",
                 "factor of at least `s + 1`", "M = 24 search"):
        assert not MEASURED.search(text), text
