"""The README's examples run or parse as written."""

import ast
import builtins
import inspect
import re
import shlex
from pathlib import Path

import starbody
from starbody import cli
from starbody import density as dn
from starbody import geometry as ge
from starbody import gibbs as gb
from starbody import learn as ln
from starbody import optimizer as op

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


def test_readme_names_resolve():
    # inline code only: a dotted name that starts with the package, one of
    # its modules or a class (any capitalized head) must resolve by getattr,
    # a bare snake_case name must be an attribute of a module or class, or a
    # string literal of cli.py (the JSON keys of verify reports), and a bare
    # capitalized name must be a class of a module or a builtin
    modules = {m.__name__.split(".")[-1]: m for m in (ge, dn, op, gb, ln, cli)}
    classes = {name: obj for m in modules.values() for name, obj in vars(m).items()
               if inspect.isclass(obj) and obj.__module__ == m.__name__}
    roots = {"starbody": starbody, **modules, **classes}
    attributes = {a for obj in roots.values() for a in dir(obj)}
    literals = {n.value for n in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", text)
    unresolved = []
    for span in spans:
        dotted = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(\(.*\))?", span)
        if dotted:
            head, *rest = dotted.group(1).split(".")
            if head in roots or head[0].isupper():
                obj = roots.get(head)
                for part in rest:
                    obj = getattr(obj, part, None)
                if obj is None:
                    unresolved.append(span)
        elif re.fullmatch(r"[a-z][a-z0-9]*(?:_[a-z0-9]+)+", span):
            if span not in attributes and span not in literals:
                unresolved.append(span)
        elif re.fullmatch(r"[A-Z]\w+", span):
            if span not in classes and not inspect.isclass(getattr(builtins, span, None)):
                unresolved.append(span)
    assert not unresolved, f"README names what the package does not have: {unresolved}"
