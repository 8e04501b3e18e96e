"""Array-native hot-path kernels.

The reference implementations elsewhere in the package favour clarity:
per-request Python loops that mirror the paper's pseudocode line by
line.  This subpackage holds the *fast paths*, each differentially
tested bit-identical to its reference oracle:

* :mod:`repro.kernels.batch` — the off-line DP.  A batch of instances
  is packed into concatenated ragged columns and solved with ONE sweep
  call (compiled C when a system compiler exists, a transliterated
  Python loop otherwise).  It is the only DP sweep:
  ``solve_offline`` is a batch of one, and multi-item services, shard
  workers and trace sampling pack whole batches.  Its reference oracle
  is :func:`repro.offline.naive.solve_offline_bisect`.
* :mod:`repro.kernels.frontier` — :class:`FrontierState`, the sweep's
  per-server pivot accumulator (amortised ``O(n + m + P)``, ``P`` =
  total pivot-pointer advances, typically ``≈ n``), which the streaming
  solver advances one append at a time.
* :mod:`repro.kernels.prescan` — the instance pre-scan (``p``, ``σ``,
  ``b``, ``B``, per-server lists) as whole-array numpy operations
  instead of per-request/per-server Python loops.
* :mod:`repro.kernels.replay` — an array-backed replay loop for the
  fault-free online engine: request times/servers as native Python
  scalars hoisted out of numpy, no per-event object dispatch.
* :mod:`repro.kernels.online` — the online twin of the batch DP: a
  whole SC/TTL(γ) run (decisions, epochs, copy-seconds, cost, digest)
  replayed over native scalar columns without per-event hook dispatch,
  plus batched entry points over the same :class:`BatchLayout` ragged
  columns so a multi-item shard or a TTL γ-grid is one kernel call.
  Selected via ``run_online(kernel="vector")`` (the ``"auto"`` default
  for plain ``SpeculativeCaching``).

Determinism contract: a kernel never changes *what* is computed, only
*how fast*.  ``C``/``D`` vectors, ``served_by_cache``, backtracking
choices, reconstructed schedules, and online run results are all
byte-identical to the reference oracles — the DP kernel benchmark under
``benchmarks/`` gates on this unconditionally, and ``tests/offline/test_kernels.py``
property-tests it on random instances (ties, degenerate fleets).
"""

from .batch import (
    BatchLayout,
    batch_sweep_backend,
    solve_offline_batch,
)
from .frontier import FrontierState
from .online import (
    ONLINE_KERNELS,
    OnlineKernelRun,
    decision_digest,
    run_online_batch,
    run_online_layout,
    run_online_vector,
    sweep_layout,
    vectorizable,
)
from .prescan import per_server_lists, prescan_arrays, prev_same_server
from .replay import replay_fault_free

__all__ = [
    "BatchLayout",
    "batch_sweep_backend",
    "solve_offline_batch",
    "FrontierState",
    "ONLINE_KERNELS",
    "OnlineKernelRun",
    "decision_digest",
    "run_online_batch",
    "run_online_layout",
    "run_online_vector",
    "sweep_layout",
    "vectorizable",
    "per_server_lists",
    "prescan_arrays",
    "prev_same_server",
    "replay_fault_free",
]
