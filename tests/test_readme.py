"""The README's claims that a test can check: the test and benchmark files
it names exist, and its command-line examples parse."""

import argparse
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
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"the README example does not parse: {shlex.join(argv)}")
        # argparse also takes an abbreviation, so each flag must be spelled in full
        flags = {s for a in verbs.choices[argv[1]]._actions for s in a.option_strings}
        assert [t for t in argv if t.startswith("--") and t.split("=")[0] not in flags] == []
