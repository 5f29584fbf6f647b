"""Bit-exact text snapshots of sampled environments.

Format:

    DRE 1 d=<d> seed=<u64> win=<x0>:<x1>,<y0>:<y1>[,...] model=<name>:<p>
    <one row of hex digits per highest-axis slice>

Each site contributes ceil(2d/4) hex digits, little-endian (lowest four
mask bits first).  Bit 0 = +e1, bit 1 = +e2, ..., bit d = -e1, and so on;
for d=2 that is one digit per site with bit 0 = E, 1 = N, 2 = W, 3 = S.
Rows run from the highest slice of the last axis down to the lowest; inside
a row the remaining coordinates run in odometer order with axis 0 fastest.
A grid without a catalog model is written as model=raw and reads back with
no attached measure.
"""

from __future__ import annotations

import io
import math
import re
from typing import TextIO

import numpy as np

from .env import EnvironmentGrid, Window
from .errors import ValidationError
from .models import ModelId, measure_for

_HEADER_RE = re.compile(
    r"^DRE 1 d=(?P<d>\d+) seed=(?P<seed>\d+) win=(?P<win>-?\d+:-?\d+(,-?\d+:-?\d+)*)"
    r" model=(?P<model>\S+)$", re.ASCII
)
_ROW_RE = re.compile(r"[0-9a-fA-F]*")


def _digits_per_site(d: int) -> int:
    return (2 * d + 3) // 4


def write_snapshot(env: EnvironmentGrid, out: TextIO) -> None:
    d = env.d
    seed = env.seed if env.seed is not None else 0
    win = ",".join(f"{a}:{b}" for a, b in zip(env.window.lo, env.window.hi))
    model = f"{env.model.name}:{env.model.p!r}" if env.model is not None else "raw"
    out.write(f"DRE 1 d={d} seed={seed} win={win} model={model}\n")

    ndig = _digits_per_site(d)
    arr = env.arrows
    # move the highest axis to the front, keep axis 0 fastest in each row
    rows = np.moveaxis(arr, -1, 0)
    for hi_index in range(rows.shape[0] - 1, -1, -1):
        plane = rows[hi_index]
        flat = plane.reshape(-1, order="F")  # axis 0 fastest
        chunks = []
        for mask in flat:
            m = int(mask)
            chunks.append("".join(format((m >> (4 * k)) & 0xF, "x") for k in range(ndig)))
        out.write("".join(chunks) + "\n")


def dumps(env: EnvironmentGrid) -> str:
    buf = io.StringIO()
    write_snapshot(env, buf)
    return buf.getvalue()


def save_snapshot(env: EnvironmentGrid, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        write_snapshot(env, fh)


def read_snapshot(inp: TextIO) -> EnvironmentGrid:
    header = inp.readline().rstrip("\n")
    m = _HEADER_RE.match(header)
    if m is None:
        raise ValidationError(f"not a DRE snapshot header: {header!r}")
    d = int(m.group("d"))
    seed = int(m.group("seed"))
    ranges = [tuple(map(int, part.split(":"))) for part in m.group("win").split(",")]
    if len(ranges) != d:
        raise ValidationError("window ranges do not match dimension")
    window = Window(*zip(*ranges))

    model = None
    measure = None
    if m.group("model") != "raw":
        name, _, p = m.group("model").rpartition(":")
        try:
            p = float(p)
        except ValueError:
            raise ValidationError(f"model p {p!r} is not a number") from None
        model = ModelId(name=name, p=p, d=d)
        measure = measure_for(model)

    ndig = _digits_per_site(d)
    shape = window.shape
    per_row = math.prod(shape[:-1])
    rows = []
    for _ in range(shape[-1]):
        line = inp.readline().rstrip("\n")
        if len(line) != per_row * ndig:
            raise ValidationError(
                f"snapshot row has {len(line)} digits, expected {per_row * ndig}"
            )
        if not _ROW_RE.fullmatch(line):
            raise ValidationError(f"snapshot row has a digit that is not hex: {line!r}")
        # a site's digits run lowest first
        vals = [int(line[i:i + ndig][::-1], 16) for i in range(0, len(line), ndig)]
        rows.append(np.array(vals, dtype=np.uint16).reshape(shape[:-1], order="F"))
    arr = np.stack(rows[::-1], axis=-1)
    if (arr >> 2 * d).any():
        raise ValidationError(f"snapshot masks set bits past the {2 * d} arrows of d={d}")
    env = EnvironmentGrid(window=window, arrows=arr, measure=measure,
                          model=model, seed=seed)
    if measure is not None:
        support = measure.support()
        bad = set(np.unique(arr).tolist()) - set(support)
        if bad:
            raise ValidationError(f"snapshot contains masks outside model support: {bad}")
    return env


def load_snapshot(path: str) -> EnvironmentGrid:
    # a byte past ASCII reads as U+FFFD, which no part of the format accepts
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return read_snapshot(fh)
