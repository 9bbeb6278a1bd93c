"""Toy spectral factors for the operator tests: the spectrum is given, nothing is solved."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fracspec import SpectralFactor


@dataclass(frozen=True)
class ToyFactor(SpectralFactor):
    """A factor whose odd half is given, not solved for: its spectrum, identities and halves."""

    given_lam_odd: np.ndarray

    @cached_property
    def _odd(self):
        h, m = len(self.lam_even), len(self.given_lam_odd)
        return self.given_lam_odd, np.eye(m), 0.5 * np.eye(m), np.eye(h, m)


def toy_factor(lam):
    """Stand-in factor on the mirror pairs e_i +- e_(N-1-i), spectrum given directly.

    The first ceil(N/2) entries of ``lam`` are the even modes, the kernel
    among them, and the rest the odd ones.  P's half blocks are identities,
    so Pinv's halve the paired rows; a middle row counts once.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    h, m = (n + 1) // 2, n // 2
    return ToyFactor(
        N=n,
        P_even=np.eye(h),
        Pinv_even=np.diag(np.where(np.arange(h) < m, 0.5, 1.0)),
        lam_even=lam[:h],
        zero_index=int(np.argmin(np.abs(lam[:h]))),
        raw_zero_lambda=0.0,
        given_lam_odd=lam[h:],
    )
