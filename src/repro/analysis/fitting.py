"""Scaling-law fitting for the Table-1 shape checks.

The reproduction's success criterion is not absolute numbers but
*shape*: messages ~ n^{3/2} sqrt(log n) for Theorem 4, ~ n^{1+1/k} for
Theorem 2, and so on.  This module fits power laws (optionally with
polylog corrections) to measured (n, y) series by least squares in
log-log space, and compares candidate models.

Both fits are one-variable least squares with closed forms, written in
pure Python so that the harness imports no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple


@dataclass
class PowerLawFit:
    """y ~ C * n^exponent, fit in log-log space.

    ``r_squared`` is the coefficient of determination of the log-log
    regression; close to 1 means a clean power law.
    """

    exponent: float
    constant: float
    r_squared: float

    def predict(self, n: float) -> float:
        """Model value C * n^exponent at size n."""
        return self.constant * n**self.exponent


def fit_power_law(ns: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of log y = a log n + b."""
    if len(ns) != len(ys):
        raise ValueError("ns and ys must have equal length")
    if len(ns) < 2:
        raise ValueError("need at least two points to fit")
    if any(x <= 0 for x in ns) or any(y <= 0 for y in ys):
        raise ValueError("power-law fit requires positive data")
    lx = [math.log(x) for x in ns]
    ly = [math.log(y) for y in ys]
    if min(lx) == max(lx):
        raise ValueError("power-law fit needs at least two distinct sizes")
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    dx = [x - mx for x in lx]
    dy = [y - my for y in ly]
    a = math.fsum(u * v for u, v in zip(dx, dy)) / math.fsum(u * u for u in dx)
    b = my - a * mx
    ss_res = math.fsum((v - a * u) ** 2 for u, v in zip(dx, dy))
    ss_tot = math.fsum(v * v for v in dy)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=a, constant=math.exp(b), r_squared=r2)


def fit_power_law_deloged(
    ns: Sequence[float],
    ys: Sequence[float],
    log_power: float,
) -> PowerLawFit:
    """Fit y / log(n)^log_power ~ C * n^a — i.e. strip a known polylog
    factor before fitting the polynomial exponent.

    Example: Theorem 3 predicts messages ~ n log n; fitting with
    log_power=1 should return exponent ~ 1.
    """
    adjusted = [
        y / (math.log(n) ** log_power) for n, y in zip(ns, ys)
    ]
    return fit_power_law(ns, adjusted)


def relative_residuals(
    ns: Sequence[float],
    ys: Sequence[float],
    model: Callable[[float], float],
) -> List[float]:
    """(measured - model) / model per point; the bench tables print
    these so a reader can see how tight each bound is."""
    return [
        (y - model(n)) / model(n) for n, y in zip(ns, ys)
    ]


def best_exponent_model(
    ns: Sequence[float],
    ys: Sequence[float],
    candidates: Sequence[float],
    log_power: float = 0.0,
) -> Tuple[float, Dict[float, float]]:
    """Pick the candidate exponent that minimizes log-space RMSE after
    optimally scaling the constant.

    Used for "who wins" checks: e.g. is Theorem-2 message data closer
    to n^{4/3} (the k=3 lower bound) than to n or n^2?
    """
    lx = [math.log(n) for n in ns]
    ly = [
        math.log(y / (math.log(n) ** log_power if log_power else 1.0))
        for n, y in zip(ns, ys)
    ]
    errors: Dict[float, float] = {}
    for a in candidates:
        resid = [v - a * u for u, v in zip(lx, ly)]
        b = math.fsum(resid) / len(resid)  # optimal constant in log space
        errors[a] = math.sqrt(math.fsum((r - b) ** 2 for r in resid) / len(resid))
    best = min(errors, key=errors.get)
    return best, errors


def doubling_ratio(ns: Sequence[float], ys: Sequence[float]) -> List[float]:
    """Empirical growth exponents between consecutive points:
    log(y2/y1) / log(n2/n1).  A quick sanity view of local slope."""
    out = []
    for (n1, y1), (n2, y2) in zip(zip(ns, ys), list(zip(ns, ys))[1:]):
        out.append(math.log(y2 / y1) / math.log(n2 / n1))
    return out
