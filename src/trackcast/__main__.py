"""The ``trackcast`` console script; also ``python -m trackcast``.

OpenBLAS reads its thread count once, when numpy loads it, and starts
that many threads.  Every command holds OpenBLAS to one thread
(``cli.main``), so ``entry`` sets the count to one before anything
imports numpy; workers started at the caller's count would never run a
product.  Importing this module sets nothing.
"""
import os


def entry() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import entry as run

    run()


if __name__ == "__main__":
    entry()
