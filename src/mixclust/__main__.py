"""The ``mixclust`` program: the console script, ``python -m mixclust`` and
``python -m mixclust.cli`` all start in :func:`main`.

mixclust's parallelism is the forked pool of :mod:`mixclust.workers`.
The program makes only small or cache-blocked BLAS calls, which never use
OpenBLAS's thread pool, yet the pool starts, and spins, when numpy loads.
So the program sets ``OPENBLAS_NUM_THREADS=1`` before anything imports
numpy, unless its caller set the variable; its forked workers inherit that
one thread. Importing mixclust as a library changes neither the
environment nor the BLAS thread count, and a library caller's workers
inherit the caller's own setting.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run  # loads numpy, whose OpenBLAS reads the setting

    return run()


if __name__ == "__main__":
    sys.exit(main())
