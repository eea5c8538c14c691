"""Dense reference march of a linear semi-discretization ``u' = L u``.

Each step is built from the :data:`compactbp.timeint.METHODS` row
directly: the Shu-Osher stages while a multistep window fills (or always,
for a row without a tableau), then the multistep sum over the lags
``1 .. window`` of the states kept in a plain list.  It shares no
history array, slot rotation or coefficient row with
:class:`compactbp.timeint.SspIntegrator`, so it checks the integrator's
bookkeeping instead of repeating it.
"""

import numpy as np

from compactbp.timeint import METHODS, SspIntegrator


def dense_march(L, u0, dt, method, steps):
    """The states after steps ``1 .. steps`` of ``method`` from ``u0``.

    ``L`` maps a state to its time derivative.
    """
    row = METHODS[method]
    window = max(row.tableau[0]) if row.tableau is not None else 1
    states = [u0]
    for k in range(1, steps + 1):
        if row.tableau is not None and k >= window:
            alpha, beta = row.tableau
            u = sum(alpha.get(lag, 0.0) * states[k - lag]
                    + dt * beta.get(lag, 0.0) * L(states[k - lag])
                    for lag in range(1, window + 1))
        else:
            stage = [states[-1]]
            for terms in row.stages:
                stage.append(sum(a * stage[j] + dt * b * L(stage[j]) for j, a, b in terms))
            u = stage[-1]
        states.append(u)
    return states[1:]


def check_dense_march(scheme, L, u0, steps=10):
    """``steps`` steps of every method at its run share of ``scheme``'s
    admissible step, from ``u0`` with the limiter off, against
    :func:`dense_march`: step ``k`` within ``64 k N eps max|u0|``."""
    for method, row in METHODS.items():
        dt = row.schedule * scheme.admissible_dt_fe()
        integ = SspIntegrator(scheme, method, dt).start(u0)
        for k, ref in enumerate(dense_march(L, u0, dt, method, steps), 1):
            err = np.abs(integ.advance() - ref).max()
            assert err <= 64 * k * u0.size * np.finfo(float).eps * np.abs(u0).max(), (
                method, k, err)
