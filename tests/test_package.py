"""Checks over the package as a whole: what its source imports and reads, and
how it reports bad input.

``faults.FAULTS`` is the one table of bad input, a row for each input check;
``test_fault_table_reaches_each_check_once`` keeps it whole.
"""

import ast
import itertools
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from faults import FAULTS, expect_faults

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "demix").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TEXTS = {path: path.read_text() for path in SOURCES + SCRIPTS}
TREES = {path: ast.parse(text, str(path)) for path, text in TEXTS.items()}
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "network.py", "evaluation.py"}
    assert {p.name for p in SCRIPTS} == {"claims.py", "rescale_curve.py"}


def _imports_outside(path, allowed):
    outside = []
    for node in ast.walk(TREES[path]):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] not in allowed]
    return outside


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert _imports_outside(path, ALLOWED) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_only_numpy_demix_and_the_standard_library(path):
    assert _imports_outside(path, ALLOWED | {"demix"}) == []


@pytest.mark.parametrize("path", [p for p in TREES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_imports_are_all_used(path):
    # __init__.py imports to re-export; `from __future__` binds no name.
    used = {node.id for node in ast.walk(TREES[path]) if isinstance(node, ast.Name)}
    unused = [f"line {node.lineno}: {name}" for node in TREES[path].body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              for name in ((a.asname or a.name).split(".")[0] for a in node.names)
              if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_reads_no_environment_variable(path):
    reads = []
    for node in ast.walk(TREES[path]):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            reads.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"line {node.lineno}: from os import {a.name}"
                      for a in node.names if a.name in ENV_READERS]
    assert reads == []


def _message_template(node):
    """The message of ``raise E("...")`` or ``raise E(f"...")`` with ``{}`` for
    each placeholder; None for any other statement."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
        return None
    message = node.exc.args[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in message.values)
    return None


def test_no_two_raises_spell_out_one_message():
    """Each input fault has one ``raise``: a second check of the same fault
    goes through the first one's helper instead of repeating its message."""
    sites = {}
    for path in SOURCES:
        for node in ast.walk(TREES[path]):
            template = _message_template(node)
            if template is not None:
                sites.setdefault(template, []).append(f"{path.name}:{node.lineno}")
    assert {t: where for t, where in sites.items() if len(where) > 1} == {}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_raises_value_error_naming_it(fault):
    assert issubclass(FAULTS[fault][0], ValueError)
    expect_faults(fault)


def _called(node):
    """Name of the function a ``Call`` node calls, bare or as an attribute."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def _statements():
    """(file, line) -> innermost statement of ``src/demix`` that spans it, and the
    name of the function it is in."""
    at = {}

    def visit(node, name, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else func
            if isinstance(child, ast.stmt):
                for line in range(child.lineno, child.end_lineno + 1):
                    at[name, line] = (child, func)
            visit(child, name, inner)

    for path in SOURCES:
        visit(TREES[path], path.name, None)
    return at


STATEMENTS = _statements()
STARTS = {site: stmt for site, (stmt, _) in STATEMENTS.items() if site[1] == stmt.lineno}


def _own_calls(stmt):
    """The calls of ``stmt`` outside the statements it holds."""
    calls, todo = [], list(ast.iter_child_nodes(stmt))
    while todo:
        node = todo.pop()
        if not isinstance(node, ast.stmt):
            calls += [node] if isinstance(node, ast.Call) else []
            todo += ast.iter_child_nodes(node)
    return calls


def _helpers():
    """Private functions of ``src/demix`` that hold a ``raise`` and are called
    from more than one statement: each statement that calls one is a check."""
    raising = {node.name for path in SOURCES for node in ast.walk(TREES[path])
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and any(isinstance(n, ast.Raise) for n in ast.walk(node))}
    callers = Counter(name for stmt in STARTS.values() for name in set(map(_called, _own_calls(stmt))))
    return {name for name in raising if callers[name] > 1}


HELPERS = _helpers()
# The helper whose message starts with the field it names: each field a call
# site passes it is a check of its own.
FIELDS_HELPER = "_check_fields"
# Raises no row reaches, by message template, with where they are tested.
EXEMPT = {
    "training diverged at {}: batch loss {}":
        "TrainingDiverged, not a ValueError: test_divergence_raises in test_network.py and "
        "test_semisup.py",
}


def _field_patterns(call):
    """A regex per field a ``_check_fields`` call checks: its name arguments,
    else the keys of its dict literal; None where they are not spelled out."""
    keys = call.args[1:] or getattr(call.args[0], "keys", [])
    patterns = []
    for key in keys:
        if isinstance(key, ast.Constant):
            patterns.append(re.escape(key.value))
        elif isinstance(key, ast.JoinedStr):
            patterns.append(_pattern(_message_template(ast.Raise(ast.Call(args=[key])))).pattern)
    return patterns or [None]


def _check_sites():
    """Every check: each ``raise`` statement, as (site, None); and each
    statement outside the helpers that calls one, as (site, field pattern)."""
    checks = set()
    for site, stmt in STARTS.items():
        if isinstance(stmt, ast.Raise):
            checks.add((site, None))
        elif STATEMENTS[site][1] not in HELPERS:
            for call in _own_calls(stmt):
                if _called(call) in HELPERS:
                    fields = _field_patterns(call) if _called(call) == FIELDS_HELPER else [None]
                    checks |= {(site, field) for field in fields}
    return checks


def _reached(exc):
    """(raise statement, check) of ``exc`` and of each exception it was raised
    from, outermost first: the check is the raise itself, or the call site of
    the helper that raised."""
    out = []
    while exc is not None:
        frames, tb = [], exc.__traceback__
        while tb is not None:
            path = Path(tb.tb_frame.f_code.co_filename).resolve()
            if path in TREES:
                stmt = STATEMENTS[path.name, tb.tb_lineno][0]
                frames.append((path.name, stmt.lineno, tb.tb_frame.f_code.co_name))
            tb = tb.tb_next
        outside = [f for f in frames if f[2] not in HELPERS] or frames
        out.append((frames[-1][:2], outside[-1][:2]))
        exc = exc.__cause__
    return out


def _pattern(template):
    return re.compile(".*".join(map(re.escape, template.split("{}"))), re.S)


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """fault -> the ``_reached`` chain of each of its calls, all rows run once
    in one scratch working directory."""
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("faults"))
        for fault, (error, calls, _) in FAULTS.items():
            out[fault] = []
            for call in calls:
                with pytest.raises(error) as caught:
                    call()
                out[fault].append(_reached(caught.value))
    return out


def test_fault_table_reaches_each_check_once(chains):
    """Each row is raised by a ``raise`` of ``src/demix`` that spells out its
    message, and all its calls reach one check; no two rows pin one check with
    one message; rows whose messages fit each other's templates come from one
    ``raise``; and every check, each field of a ``_check_fields`` call, is
    reached by a row that names it, or exempt."""
    rows, reached = {}, set()
    for fault, (_, calls, message) in FAULTS.items():
        assert [chain[0] for chain in chains[fault]] == [chains[fault][0][0]] * len(calls), fault
        rows[fault] = (chains[fault][0], message)
        reached |= {(site, message) for chain in chains[fault] for pair in chain for site in pair}
    raised = {fault: chain[0][0] for fault, (chain, _) in rows.items()}
    template = {fault: _message_template(STATEMENTS[site][0]) for fault, site in raised.items()}
    assert [fault for fault, t in template.items() if t is None] == []

    pinned = Counter((chain[0][1], message) for chain, message in rows.values())
    assert [key for key, count in pinned.items() if count > 1] == []

    apart = [
        (a, raised[a], b, raised[b]) for a, b in itertools.combinations(rows, 2)
        if raised[a] != raised[b] and _pattern(template[a]).fullmatch(rows[b][1])
        and _pattern(template[b]).fullmatch(rows[a][1])
    ]
    assert apart == []

    unreached = [
        (site, field) for site, field in _check_sites()
        if not any(at == site and (field is None or re.search(f"(?:^|: ){field} must ", message))
                   for at, message in reached)
        and _message_template(STATEMENTS[site][0]) not in EXEMPT
    ]
    assert sorted(unreached, key=str) == []
    exempt = {(name, stmt.lineno) for (name, _), (stmt, _) in STATEMENTS.items()
              if _message_template(stmt) in EXEMPT}
    assert len(exempt) == len(EXEMPT) and not {site for site, _ in reached} & exempt


@pytest.mark.parametrize(
    "message",
    [
        "out of range for",
        "is not a whole number",
        "inputs must be images",
        "must {bound}, got {value!r}",
        "must be a finite number",
        "num_classes must be at least 1",
        "one target per sample required",
        "images must not be empty",
        "images must be finite",
        "lam must lie in [0, 1]",
        "empty batch",
        "class indices must be nonnegative",
        "mixing ratios must lie in [0, 1]",
        "activation must be one of",
        "conv architecture needs 2-D image inputs",
    ],
)
def test_each_input_check_raised_in_one_place(message, chains):
    """A message is raised by one statement: the ``raise`` whose source holds
    it, or, for a message built by a helper, the one ``raise`` that every row
    holding it reaches first."""
    raises = {
        (path.name, node.lineno) for path in SOURCES for node in ast.walk(TREES[path])
        if isinstance(node, ast.Raise)
        and message in "\n".join(TEXTS[path].splitlines()[node.lineno - 1:node.end_lineno])
    }
    raises |= {chain[-1][0] for fault, (_, _, text) in FAULTS.items() if message in text
               for chain in chains[fault]}
    assert len(raises) == 1, raises
