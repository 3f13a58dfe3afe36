"""The ODE defect of a sampled curve: the reference that an integrated
curve's samples satisfy the reduced system, independent of the solver."""

import numpy as np

from hqn.errors import DomainError, SingularBoundaryError
from hqn.reduction import case_rhs


def residual_column(case, h, s, states):
    """Central-difference residual of states sampled on the uniform grid s:
    at each interior sample, max over components of
    |(y[i+1] - y[i-1]) / (2 ds) - f(y[i])|. It is 0 at the two ends and
    at a sample where f raises DomainError or SingularBoundaryError, where
    the right-hand side is undefined, and everywhere on a grid of one
    repeated s (a curve that ends where it starts), where ds = 0."""
    out = np.zeros(len(s))
    if len(s) < 3 or s[1] == s[0]:
        return out
    rhs = case_rhs(case, h)
    df = (states[2:] - states[:-2]) / (2.0 * (s[1] - s[0]))
    f, defined = [], np.ones(len(df), dtype=bool)
    for i, (c1, c2, sigma) in enumerate(states[1:-1].tolist()):
        try:
            f.append(rhs(c1, c2, sigma))
        except (DomainError, SingularBoundaryError):
            f.append((0.0, 0.0, 0.0))
            defined[i] = False
    out[1:-1] = np.where(defined, np.max(np.abs(df - np.array(f)), axis=1), 0.0)
    return out
