"""The functions of src/skewlab that no CLI run of the test cases enters.

    python3 tools/reach.py > reach.json

It runs every case of tests/test_golden.py's CASES, and `ffsuite --r 3,5`,
through skewlab.cli.main in this process (reports go to a discarded
buffer), with a sys.setprofile hook that records each call event of a
frame whose code lies under src/skewlab.  The functions come from `ast`:
every def, methods and nested defs included, with its line span from its
first decorator to its last line.  It prints, as JSON, each function that
was never entered, in file and line order, and their total lines; a def
nested in one already listed is not listed again.  A case whose exit code
differs from its saved one is listed under "exit_mismatches".

Reach is only where the CLI goes: a name the benchmark or a tool imports,
or a test oracle, can be unreached and still needed.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewlab"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

from skewlab import cli  # noqa: E402
from test_golden import CASES  # noqa: E402

EXTRA_RUNS = {"ffsuite_r3_r5": (["ffsuite", "--r", "3,5"], None, 0)}


def function_spans():
    """{(file, first line): (qualified name, last line)} for every def."""
    spans = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                spans[(str(path), first)] = (name, child.end_lineno)
                visit(child, f"{name}.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.", path)
    return spans


def entered_functions(runs):
    """The (file, first line) of every src/skewlab code object called while
    the runs ran, and the names of the runs whose exit code was not the
    saved one."""
    prefix = str(PACKAGE)
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno))

    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (args, spec, saved) in runs.items():
            if spec is not None:
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(spec))
                args = ["verify", "--spec", str(path)] + args
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(args)
            finally:
                sys.setprofile(None)
            if code != saved:
                mismatches.append(name)
    return entered, mismatches


def main():
    runs = {**CASES, **EXTRA_RUNS}
    entered, mismatches = entered_functions(runs)
    unreached = []
    covered_to = {}  # file -> last line of the last listed def
    for (path, first), (name, last) in sorted(function_spans().items()):
        if (path, first) in entered or first <= covered_to.get(path, 0):
            continue
        covered_to[path] = last
        unreached.append({
            "function": name,
            "file": str(Path(path).relative_to(ROOT)),
            "lines": [first, last],
            "length": last - first + 1,
        })
    report = {
        "runs": sorted(runs),
        "exit_mismatches": mismatches,
        "unreached": unreached,
        "unreached_lines": sum(u["length"] for u in unreached),
        "src_lines": sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py")),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
