"""`python -m statlight` and the `statlight` console script.

Both pin OpenBLAS to one thread unless OPENBLAS_NUM_THREADS is already set:
a run's band solves are sequential, and each OpenBLAS worker thread spins
for 60-120 ms of CPU when the library loads. The pin only acts if it comes
before numpy is first imported, so the CLI is imported after it; importing
`statlight` or its modules as a library leaves the environment alone.
"""

import os


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    raise SystemExit(main())
