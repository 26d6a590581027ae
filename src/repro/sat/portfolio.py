"""A process-wide name kept for callers that clear it.

Nothing fills :data:`GLOBAL_UNSAT_CACHE`: every SAT caller keeps one
session and memoizes its own proofs.  The empty set stays importable
only because the benchmark harness (``perfbench/workloads.py``,
``cold_memos()``) clears it between passes.
"""

from typing import Set, Tuple

GLOBAL_UNSAT_CACHE: Set[Tuple] = set()
"""Always empty; ``GLOBAL_UNSAT_CACHE.clear()`` is a no-op."""
