"""Static checks over the package source: what it imports and what it reads."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "demix").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "network.py", "evaluation.py"}
    assert {p.name for p in SCRIPTS} == {"claims.py", "rescale_curve.py"}


def _imports_outside(path, allowed):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_reads_no_environment_variable(path):
    reads = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            reads.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"line {node.lineno}: from os import {a.name}"
                      for a in node.names if a.name in ENV_READERS]
    assert reads == []


def _raise_site(call):
    """``file:line`` of the statement that raised the ``ValueError`` of ``call``,
    with its message."""
    with pytest.raises(ValueError) as caught:
        call()
    tb = caught.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}", str(caught.value)


def _bad_calls():
    from demix.data import make_image_classes, make_synthetic
    from demix.evaluation import AttackConfig
    from demix.network import TrainConfig

    nan, inf = float("nan"), float("inf")
    return {
        "must be a finite number": (
            lambda: TrainConfig(base_lr=nan),
            lambda: make_synthetic("blobs", 10, inf, 0),
            lambda: AttackConfig(inf),
        ),
        "num_classes must be at least 1": (
            lambda: make_synthetic("blobs", 10, 0.1, 0, num_classes=0),
            lambda: make_image_classes(4, num_classes=0),
        ),
    }


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
    ],
)
def test_each_input_check_raised_in_one_place(message):
    """A message is raised by one statement: the ``raise`` whose source holds
    it, or, for a message built by a helper, the one statement every bad call
    listed for it reaches (and no ``raise`` spells it out again)."""
    raises = []
    for path in SOURCES:
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Raise) and message in ast.get_source_segment(text, node):
                raises.append(f"{path.name}:{node.lineno}")
    for call in _bad_calls().get(message, ()):
        site, text = _raise_site(call)
        assert message in text
        raises.append(site)
    assert len(set(raises)) == 1, raises
