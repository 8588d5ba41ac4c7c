"""Classic fair-share priority factor.

The paper's replay restores "fairshare values for each user" as part
of the interval's initial state.  We implement SLURM's classic
formula: each user's factor is ``2^(-U/S)`` where ``U`` is the user's
share of the (exponentially decayed) consumed core-seconds and ``S``
the user's share of the configured shares (equal here).  Usage decays
with a configurable half-life, applied lazily.

The decay multiplies the usage vector whenever time advances, with no
test for an all-zero vector first: usage is never negative, and a zero
times a factor in (0, 1] stays the same zero, so such a test could
only ever save time, never change a bit.  Nor may it be replaced by a
cached "has usage" flag: a fork install writes the usage vector
directly (``np.copyto``), which a flag kept by :meth:`record_usage`
would not see, so every forked replay would skip its decay.
"""

from __future__ import annotations

import numpy as np


class FairShare:
    """Decayed-usage fair-share factors for a fixed user population."""

    def __init__(
        self,
        n_users: int,
        *,
        half_life: float = 7 * 86400.0,
    ) -> None:
        if n_users <= 0:
            raise ValueError("n_users must be positive")
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.n_users = n_users
        self.half_life = half_life
        self._usage = np.zeros(n_users, dtype=np.float64)
        self._last_decay = 0.0

    def _decay_to(self, t: float) -> None:
        if t < self._last_decay:
            raise ValueError("time went backwards")
        if t > self._last_decay:
            self._usage *= 0.5 ** ((t - self._last_decay) / self.half_life)
        self._last_decay = t

    def decay_to(self, t: float) -> None:
        """Advance the lazy usage decay to time ``t``.

        Reading :meth:`factors` advances the decay as a side effect, so
        fast paths that skip a priority computation must still call
        this to keep the decay chain — and therefore every later
        factor — bit-identical to the full computation.
        """
        self._decay_to(t)

    def record_usage(self, user: int, core_seconds: float, t: float) -> None:
        """Charge ``core_seconds`` of usage to ``user`` at time ``t``."""
        if not 0 <= user < self.n_users:
            raise IndexError(f"unknown user {user}")
        if core_seconds < 0:
            raise ValueError("usage cannot be negative")
        self._decay_to(t)
        self._usage[user] += core_seconds

    def seed_usage(self, usage: np.ndarray) -> None:
        """Install initial per-user usage (the replay's initial state)."""
        usage = np.asarray(usage, dtype=np.float64)
        if usage.shape != (self.n_users,):
            raise ValueError("usage vector shape mismatch")
        if (usage < 0).any():
            raise ValueError("usage cannot be negative")
        self._usage = usage.copy()

    def factors(self, t: float) -> np.ndarray:
        """Fair-share factor per user in [0, 1] at time ``t``, as a new
        array the caller may modify.

        1.0 for an unused system; heavy users decay toward 0.  The
        exponent ``(U / total) / -(1 / n_users)`` is computed in one
        buffer; it equals ``-(U / total) / (1 / n_users)`` bit for bit,
        as IEEE division is sign-symmetric.
        """
        self._decay_to(t)
        total = np.add.reduce(self._usage)
        if total <= 0:
            return np.ones(self.n_users, dtype=np.float64)
        x = self._usage / total
        x /= -(1.0 / self.n_users)
        return np.power(2.0, x, out=x)

    def factor(self, user: int, t: float) -> float:
        if not 0 <= user < self.n_users:
            raise IndexError(f"unknown user {user}")
        return float(self.factors(t)[user])
