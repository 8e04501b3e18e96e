"""The frontier pivot accumulator — amortised ``O(n + m + P)`` DP sweep.

The reference oracle (:func:`repro.offline.naive.solve_offline_bisect`)
enumerates the cover set ``π(i)`` of Definition 8 afresh for every
request: ``m`` pivot probes per request, ``O(mn)`` probes total.  The
frontier sweep computes the identical recurrences without ever
*searching* for a pivot, by exploiting two monotonicity facts:

1. For a fixed server ``s``, the queries it issues are monotone: the
   ``i``-th request on ``s`` asks for pivots at ``q = p(i)``, which is
   exactly where its previous request sat.  So each server can simply
   *accumulate* its pivot candidates between its own consecutive
   requests instead of looking them back up.
2. Request ``k`` is a pivot candidate for server ``s`` iff ``s`` has a
   request in the half-open index window ``(p(k), k]`` — i.e. iff ``s``'s
   most recent request is *more recent* than ``p(k)``.  Servers ordered
   by recency of their last request form a move-to-front list, and the
   candidates of ``k`` are exactly a prefix of it.

The sweep therefore keeps, per server ``s``:

* ``open_q[s]`` — index of ``s``'s most recent request (its next
  request's ``p(i)``);
* ``run_min[s]`` / ``run_arg[s]`` — the running minimum of
  ``D(k) − B_k`` over the pivot candidates accumulated since
  ``open_q[s]``, and the argmin index;

plus one move-to-front list of servers ordered by ``open_q`` descending.
Processing request ``k`` walks the list head-first, pushing
``D(k) − B_k`` into each visited server's running minimum, and stops at
the first server with ``open_q ≤ p(k)`` — everything beyond it is older
and ineligible.  Each visit is one real pivot relationship, so the walk
work *is* ``P = Σ_i |π(i)|`` (for Poisson/Zipf-style workloads ``P ≈ n``;
the adversarial worst case, perfect round-robin, degrades to the
reference's ``O(mn)`` but with a far smaller constant).  Everything else
is ``O(1)`` per request: total ``O(n + m + P)``.

:class:`FrontierState` holds that state for the one-request-at-a-time
sweep of :class:`~repro.offline.streaming.StreamingSolver`; the batched
sweep of :mod:`repro.kernels.batch` (C and Python) runs the same loop
with the state inlined.  Bit-identity with the reference oracle
(asserted by ``tests/offline/test_kernels.py`` and
``tests/offline/test_batch_kernel.py``, gated by the DP kernel
benchmark under ``benchmarks/``):

* values: minima are order-independent, and ``D(i)``/``C(i)`` are
  assembled with the exact same floating-point expression, so ``C``,
  ``D`` and ``served_by_cache`` are byte-identical;
* argmins: the reference scans servers ``j = 0..m−1`` taking strict
  improvements, so its winner is the lexicographic minimum of
  ``(value, server)``.  The accumulator reproduces that by breaking
  value ties toward the candidate on the smaller server id, making
  ``choice_d_tag``/``choice_d_k`` — and hence reconstructed schedules —
  identical too.
"""

from __future__ import annotations

import math

__all__ = ["FrontierState"]

_INF = math.inf


class FrontierState:
    """Incremental pivot-accumulator state of the frontier sweep.

    One instance holds everything the sweep keeps between requests;
    :class:`~repro.offline.streaming.StreamingSolver` advances it one
    append at a time (the sweep is left-to-right, so batch and streaming
    runs of this state are the same computation).

    The move-to-front list is stored as ``fwd``/``bwd`` arrays over
    server ids with a virtual head sentinel ``-1``; servers enter the
    list at their first request.
    """

    __slots__ = (
        "m",
        "open_q",
        "run_min",
        "run_arg",
        "run_srv",
        "head",
        "fwd",
        "bwd",
        "listed",
        "advances",
    )

    def __init__(self, num_servers: int, origin: int):
        m = num_servers
        self.m = m
        self.open_q = [-1] * m
        self.run_min = [_INF] * m
        self.run_arg = [-1] * m
        # Server id of the current argmin candidate (value-tie breaker).
        self.run_srv = [m] * m
        self.head = origin
        self.fwd = [-1] * m  # next-older server in recency order
        self.bwd = [-1] * m  # next-newer server (-1 = head)
        self.listed = [False] * m
        self.listed[origin] = True
        self.open_q[origin] = 0
        # r_0's own candidate: D(0) = +inf, so it can never win, but it
        # keeps the accumulator total (π may legitimately contain r_0).
        self.run_arg[origin] = 0
        self.run_srv[origin] = origin
        #: Total pivot-pointer advances so far (the ``P`` of the bound).
        self.advances = 0

    def push(self, k: int, p_k: int, value: float, srv_k: int) -> None:
        """Offer ``D(k) − B_k`` to every server whose window covers ``k``.

        Walks the recency list head-first; a server qualifies while its
        last request is strictly newer than ``p(k)`` (then ``k`` is the
        first request of server ``srv_k`` at or after its ``open_q``,
        i.e. a genuine ``π`` member for its next request).
        """
        open_q = self.open_q
        run_min = self.run_min
        run_srv = self.run_srv
        fwd = self.fwd
        s = self.head
        adv = 0
        while s >= 0 and open_q[s] > p_k:
            adv += 1
            cur = run_min[s]
            if value < cur or (value == cur and srv_k < run_srv[s]):
                run_min[s] = value
                self.run_arg[s] = k
                run_srv[s] = srv_k
            s = fwd[s]
        self.advances += adv

    def reopen(self, server: int, k: int, value: float) -> None:
        """Reset ``server``'s window at its own request ``k``.

        The self-candidate ``D(k) − B_k`` seeds the running minimum
        (``k`` covers its own position: ``p(k) < k ≤ k``), and the
        server moves to the front of the recency list.
        """
        self.open_q[server] = k
        self.run_min[server] = value
        self.run_arg[server] = k
        self.run_srv[server] = server
        if self.head == server:
            return
        fwd, bwd = self.fwd, self.bwd
        if self.listed[server]:
            nxt, prv = fwd[server], bwd[server]
            fwd[prv] = nxt
            if nxt >= 0:
                bwd[nxt] = prv
        else:
            self.listed[server] = True
        fwd[server] = self.head
        bwd[self.head] = server
        bwd[server] = -1
        self.head = server
