"""Run every golden case through a command and compare it with its report.

    python3 tools/check_goldens.py skewlab
    PYTHONPATH=src python3 tools/check_goldens.py python3 -m skewlab.cli

The cases are CASES of tests/test_golden.py.  A case with a spec has it
written to a temporary directory and runs `<command> verify --spec PATH
<args>`; the others run `<command> <args>`.  Each run's stdout must equal
tests/golden/<name>.json byte for byte, and its exit code the saved one.
Prints one line per mismatch and a count; exits 1 on any mismatch.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.append(str(ROOT / "src"))

from test_golden import CASES, GOLDEN  # noqa: E402


def main(command):
    if not command:
        print(__doc__, file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (args, spec, code) in sorted(CASES.items()):
            if spec is not None:
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(spec))
                args = ["verify", "--spec", str(path)] + args
            run = subprocess.run(command + args, capture_output=True)
            same = run.stdout == (GOLDEN / f"{name}.json").read_bytes()
            if run.returncode != code or not same:
                failed += 1
                print(
                    f"MISMATCH {name}: exit {run.returncode} (saved {code}), "
                    f"stdout {'equal' if same else 'differs'}"
                )
    print(f"{len(CASES) - failed} of {len(CASES)} golden cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
