"""Shared test set-up.

The package solves systems of at most 8x6; a second OpenBLAS thread only
spins, so the suite pins OpenBLAS to one thread unless the caller chose a
count. This must run before numpy is first imported, which pytest does
after loading this file.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
