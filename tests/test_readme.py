"""The README's claims that a test can check: the test and benchmark files
and the package modules it names exist, and its command-line examples
parse."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from wirebeam.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_paths_exist_and_cli_examples_parse():
    readme = (ROOT / "README.md").read_text()
    paths = set(re.findall(r"\b(?:tests|perfbench)/[\w./]*\w", readme))
    assert "tests/test_readme.py" in paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []

    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    commands = [shlex.split(line) for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("wirebeam ")]
    assert {argv[1] for argv in commands} == {"train", "eval", "sweep", "pattern", "trajectory"}
    parser = _build_parser()
    for argv in commands:
        # the parser takes no abbreviated flag, so each must be spelled in full
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"the README example does not parse: {shlex.join(argv)}")


def test_readme_modules_exist():
    readme = (ROOT / "README.md").read_text()
    modules = set(re.findall(r"\bwirebeam\.(\w+)", readme))
    assert {"wire", "env", "config", "files"} <= modules
    missing = []
    for name in sorted(modules):
        try:
            importlib.import_module(f"wirebeam.{name}")
        except ModuleNotFoundError:
            missing.append(f"wirebeam.{name}")
    assert missing == []
