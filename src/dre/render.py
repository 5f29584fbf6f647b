"""Raster and vector renders of environments and clusters.

Outputs are deterministic bytes for a given (environment, options): PGM is
plain-text P2 with a fixed palette, SVG uses fixed formatting.  Sites are
shaded by membership: communicating darkest, then backward-only,
forward-only, and background.  The top image row is the window's top edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitgrid import edge_mask, move_masks, reach_batch, reversed_moves, unpack_words
from .clusters import _check_origin
from .env import EnvironmentGrid, Site
from .errors import DimensionError

SHADE_BACKGROUND = 255
SHADE_FORWARD = 200
SHADE_BACKWARD = 120
SHADE_COMMUNICATING = 30

_SVG_FILL = {
    SHADE_BACKGROUND: "#ffffff",
    SHADE_FORWARD: "#9ecae1",
    SHADE_BACKWARD: "#fdae6b",
    SHADE_COMMUNICATING: "#54278f",
}


@dataclass(frozen=True)
class RenderResult:
    payload: bytes
    legend: str


def membership_shades(env: EnvironmentGrid, origin: Site) -> tuple[np.ndarray, dict]:
    if env.d != 2:
        raise DimensionError("rendering requires d=2")
    _check_origin(env, origin)
    # the shades need both full sets, so the forward and backward fixpoints
    # run as one batch of two
    moves = move_masks(env.arrows)[:, None]
    ix, iy = env.window.index(origin)
    sets, _ = reach_batch(np.concatenate([moves, reversed_moves(moves)], axis=1), ix, iy,
                          edge_mask(*env.window.shape))
    fwd, bwd = unpack_words(sets, env.window.shape[0])
    both = fwd & bwd
    shades = np.full(env.window.shape, SHADE_BACKGROUND, dtype=np.int64)
    shades[fwd] = SHADE_FORWARD
    shades[bwd] = SHADE_BACKWARD
    shades[both] = SHADE_COMMUNICATING
    counts = {
        "forward": int(fwd.sum()),
        "backward": int(bwd.sum()),
        "communicating": int(both.sum()),
    }
    return shades, counts


def _legend(env: EnvironmentGrid, origin: Site, counts: dict) -> str:
    lines = [
        f"origin={origin[0]},{origin[1]}",
        f"window={env.window.lo[0]}:{env.window.hi[0]},{env.window.lo[1]}:{env.window.hi[1]}",
        f"forward_count={counts['forward']}",
        f"backward_count={counts['backward']}",
        f"communicating_count={counts['communicating']}",
        f"shade_forward={SHADE_FORWARD}",
        f"shade_backward={SHADE_BACKWARD}",
        f"shade_communicating={SHADE_COMMUNICATING}",
    ]
    return "\n".join(lines) + "\n"


def render_pgm(env: EnvironmentGrid, origin: Site) -> RenderResult:
    shades, counts = membership_shades(env, origin)
    nx, ny = shades.shape
    rows = []
    for iy in range(ny - 1, -1, -1):
        rows.append(" ".join(str(int(v)) for v in shades[:, iy]))
    payload = (f"P2\n{nx} {ny}\n255\n" + "\n".join(rows) + "\n").encode("ascii")
    return RenderResult(payload, _legend(env, origin, counts))


def render_svg(env: EnvironmentGrid, origin: Site, cell: int = 4) -> RenderResult:
    shades, counts = membership_shades(env, origin)
    nx, ny = shades.shape
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{nx * cell}"'
        f' height="{ny * cell}" shape-rendering="crispEdges">'
    ]
    for ix in range(nx):
        for iy in range(ny):
            v = int(shades[ix, iy])
            if v == SHADE_BACKGROUND:
                continue
            x = ix * cell
            y = (ny - 1 - iy) * cell
            out.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}"'
                       f' fill="{_SVG_FILL[v]}"/>')
    out.append("</svg>")
    payload = ("\n".join(out) + "\n").encode("ascii")
    return RenderResult(payload, _legend(env, origin, counts))
