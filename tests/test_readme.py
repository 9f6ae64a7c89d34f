"""The README's examples run or parse as written."""

import re
import shlex
from pathlib import Path

from starbody import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_command_lines_parse():
    # parse only: a renamed or removed flag fails here, nothing is run
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("starbody ")]
    assert len(lines) >= 9
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
