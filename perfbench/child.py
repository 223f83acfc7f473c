"""Child process for one benchmark operation.

    python child.py READY_FILE cli ARGV...        run `artifact` with ARGV
    python child.py READY_FILE bch RADIUS ALPHA OUT  library BCH cross-check
    python child.py READY_FILE probe OUT          import only; write the environment

Once `artifact.cli` and its numpy/scipy imports are loaded, the child writes
`time.monotonic()` to READY_FILE; the parent subtracts its spawn time to get
the start-up cost. CLOCK_MONOTONIC is shared by all processes on Linux.
"""
import json
import sys
import time

import artifact.cli  # the import being timed

_READY = time.monotonic()


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "convention_tag": artifact.models.CONVENTION_TAG,
    }


def main(argv: list) -> int:
    ready_file, kind, *rest = argv
    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(repr(_READY))
    if kind == "cli":
        return artifact.cli.main(rest)
    if kind == "bch":
        from workloads import bch_cross_check

        radius, alpha, out = rest
        result = bch_cross_check(float(radius), float(alpha))
    elif kind == "probe":
        (out,) = rest
        result = _environment()
    else:
        raise SystemExit(f"unknown kind {kind!r}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
