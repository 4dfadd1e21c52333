"""Set-up of one workload in a fresh interpreter: import the CLI and build
the code spec (and, for semifield specs, the algebra) of every spec file
given on the command line.  run.py times this process from start to exit."""

import json
import sys


def main(paths):
    import skewlab.cli  # noqa: F401  (the import is part of set-up)
    from skewlab.codes import code_spec_from_dict

    from oracles import star_algebra

    for path in paths:
        with open(path) as fh:
            spec = json.load(fh)
        if spec.get("semifield"):
            star_algebra(spec)
        else:
            code_spec_from_dict(spec)


if __name__ == "__main__":
    main(sys.argv[1:])
