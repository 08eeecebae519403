"""The aptattrib console script: one BLAS thread unless the caller set a count.

Matrix products split their sums by thread, so model and embedding bytes
depend on the BLAS thread count. OpenBLAS reads its count once, when numpy
loads, and every module of the aptattrib package loads numpy through the
package's __init__; so this entry lives outside the package, and sets the
count before it imports anything from it. A count the caller set in
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS (the variables
OpenBLAS reads, in that order) is left alone. Library users are not
touched: importing aptattrib changes no environment variable.
"""

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
    if not any(os.environ.get(name) for name in THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from aptattrib.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
