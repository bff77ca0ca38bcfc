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


@pytest.mark.parametrize(
    "message",
    [
        "out of range for",
        "inputs must be images",
        "must be a finite number",
        "one target per sample required",
        "images must not be empty",
        "images must be finite",
        "num_classes must be at least 1",
    ],
)
def test_each_input_check_raised_in_one_place(message):
    raises = []
    for path in SOURCES:
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Raise) and message in ast.get_source_segment(text, node):
                raises.append(f"{path.name}:{node.lineno}")
    assert len(raises) == 1, raises
