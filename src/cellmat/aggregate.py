"""Smooth maximum aggregation with magnitude-adaptive sharpness.

The exponential aggregate of many local measures only behaves when the
exponent matches their magnitude, which is unknown up front and changes
as a design evolves.  The aggregator therefore works with a relative
sharpness zeta and divides it by a running maximum of the values it has
seen.  The running maximum is frozen between refresh() calls so that one
optimization step always sees a fixed, smooth, exactly differentiable
function; the overshoot bound

    max v  <=  KS(v)  <=  max v + ln(count) * scale / zeta

holds with the scale that was actually used, which is kept in the log.
"""

import numpy as np

from .errors import ConfigError

FLOOR = 1e-8     # smallest prescale, keeps zeta_eff finite on all-zero values


def ks(values, zeta_eff):
    """Shifted exponential aggregate and its exact gradient weights."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ConfigError("cannot aggregate an empty list of values")
    if zeta_eff <= 0.0:
        raise ConfigError(f"aggregation sharpness must be positive, got {zeta_eff}")
    m = float(v.max())
    e = np.exp(zeta_eff * (v - m))
    s = e.sum()
    return m + np.log(s) / zeta_eff, e / s


class KSAggregator:
    """One aggregated measure with a frozen running-max prescale."""

    def __init__(self, zeta, tag):
        if zeta <= 0.0:
            raise ConfigError(f"aggregation sharpness must be positive, got {zeta}")
        self.zeta = zeta
        self.tag = tag
        self.scale = FLOOR
        self._seen = FLOOR
        self._primed = False
        self._iteration = 0
        self.history = []

    def refresh(self, iteration):
        """Unfreeze: adopt the largest value seen so far as the new scale."""
        self.scale = max(self.scale, self._seen)
        self._iteration = iteration

    @property
    def zeta_eff(self):
        return self.zeta / self.scale

    def __call__(self, values):
        """Aggregate with the frozen scale; returns (value, weights)."""
        v = np.asarray(values, dtype=float)
        if not self._primed:
            # bootstrap: the very first batch sets its own scale, there
            # is nothing meaningful to freeze yet
            self.scale = max(FLOOR, abs(float(v.max())))
            self._primed = True
        out, w = ks(values, self.zeta_eff)
        self._seen = max(self._seen, abs(float(v.max())))
        self.history.append((self._iteration, self.tag, v.size,
                             self.zeta_eff, float(v.max()), out))
        return out, w
