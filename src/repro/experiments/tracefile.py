"""No-op hooks in place of the removed oracle trace files.

Nothing in ``repro`` calls them: ``perfbench/run.py`` patches these two
names, and the ``paper_cold`` benchmark change deletes this module
together with ``repro.core.memo``.
"""


def load_oracle(benchmark, n, program):
    """A trace-file load that always misses: returns None."""


def store_oracle(benchmark, n, oracle):
    """A trace-file store that writes nothing: returns None."""
