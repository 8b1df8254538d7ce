"""The ``mixclust`` program: the console script, ``python -m mixclust`` and
``python -m mixclust.cli`` all start in :func:`main`.

mixclust's parallelism is the forked pool of :mod:`mixclust.workers`,
whose workers run one BLAS thread each. The program's own process makes
only small or cache-blocked BLAS calls, which never use OpenBLAS's thread
pool, yet the pool starts, and spins, when numpy loads. So the program
sets ``OPENBLAS_NUM_THREADS=1`` before anything imports numpy, unless its
caller set the variable. Importing mixclust as a library changes neither
the environment nor the BLAS thread count.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run  # loads numpy, whose OpenBLAS reads the setting

    return run()


if __name__ == "__main__":
    sys.exit(main())
