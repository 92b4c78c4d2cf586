"""Fixed reference computation timed next to every benchmark operation.

The shared host this benchmark runs on changes speed by up to 1.9x in
regimes that last from seconds to minutes, longer than one run.  A run's
median therefore depends on which regimes it happened to overlap.  Timing
this fixed computation just before each operation measures the host's
current speed, and the gated timings are the operations' times divided by
it.  A change to stirapkit moves those ratios; a change of host speed moves
the numerator and the denominator together.

The computation uses the same kinds of work as stirapkit, but none of its
code: a short ``solve_ivp`` DOP853 integration of a small complex linear
system under Gaussian envelopes, and SVDs and Hermitian eigensolves of small
complex matrices.  Its inputs are fixed, so its cost never changes.
"""

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

DIM = 6
MATRICES = 12

_rng = np.random.default_rng(20240402)
_H1 = _rng.standard_normal((DIM, DIM))
_H1 = _H1 + _H1.T
_H2 = _rng.standard_normal((DIM, DIM))
_H2 = _H2 + _H2.T
_PSI0 = np.ones(DIM, dtype=complex) / math.sqrt(DIM)
_MATS = (_rng.standard_normal((MATRICES, 8, 8))
         + 1j * _rng.standard_normal((MATRICES, 8, 8)))


def _rhs(t, psi):
    return -1j * (math.exp(-t * t) * (_H1 @ psi)
                  + math.exp(-(t - 1.0) ** 2) * (_H2 @ psi))


def compute() -> float:
    """One run of the reference computation; returns a checksum."""
    sol = solve_ivp(_rhs, (-2.0, 3.0), _PSI0, method="DOP853",
                    rtol=1e-8, atol=1e-10)
    total = float(np.abs(sol.y[:, -1]).sum())
    for m in _MATS:
        total += float(np.linalg.svd(m, compute_uv=False)[0])
        total += float(np.linalg.eigvalsh(m + m.conj().T)[-1])
    return total


def seconds() -> float:
    """Wall time of one reference computation."""
    t0 = time.perf_counter()
    compute()
    return time.perf_counter() - t0
