"""Reference kernel table from the direct cos/sin phase block.

Each chunk of up to 1024 grid points forms its full (chunk x nodes) phase
block, takes cos and sin of every entry and contracts them with the weighted
integrand. bath._kernel_sums reaches the same sums by angle addition from
block-start and offset phases; the tests hold the two routes to round-off.
"""

import numpy as np

from polaron_deco.bath import sinc
from polaron_deco.numerics import OMEGA_TRUNCATION, composite_gk15_nodes


def direct_kernel_sums(model, grid):
    """(k_cos, k_sin, err_cos, err_sin) on grid, scaled like the table."""
    w = model.omega_c
    nodes, weights, err_weights = composite_gk15_nodes(
        OMEGA_TRUNCATION, w * (grid.t_max + model.s))
    g = nodes * np.exp(-nodes * nodes) * (1.0 - sinc(nodes * w * model.s))
    gw = g * weights
    ge = g * err_weights
    scale = 2.0 * model.strength * w**2

    n = len(grid)
    chunk = 1024
    out = np.empty((4, n))
    theta = w * grid.points
    for i in range(0, n, chunk):
        phase = np.outer(theta[i:i + chunk], nodes)
        c = np.cos(phase)
        s = np.sin(phase)
        out[0, i:i + chunk] = c @ gw
        out[1, i:i + chunk] = s @ gw
        out[2, i:i + chunk] = np.abs(c @ ge)
        out[3, i:i + chunk] = np.abs(s @ ge)
    return tuple(scale * row for row in out)
