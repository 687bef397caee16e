"""SVG rendering of instances and solutions.

Every placed item is drawn at its exact translated integer coordinates; the
viewBox does the scaling, so output bytes are deterministic and diffable.
Unplaced items can be laid out in a tray strip to the right of the container.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .model import Instance, Solution
from .verifier import verify

PALETTES = {
    "default": ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
                "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac"),
    "mono": ("#bbbbbb", "#999999", "#777777", "#555555"),
}


class RenderOfInvalidSolution(ValueError):
    """The solution does not verify; pass force=True to draw it anyway."""


@dataclass(frozen=True)
class RenderSpec:
    instance: Instance
    solution: Optional[Solution] = None
    scale: float = 1.0
    palette: str = "default"
    tray: bool = False
    force: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


def _poly_points(coords, dx=0, dy=0) -> str:
    return " ".join(f"{x + dx},{y + dy}" for x, y in coords)


def render(spec: RenderSpec) -> bytes:
    inst = spec.instance
    colors = PALETTES.get(spec.palette)
    if colors is None:
        raise ValueError(f"unknown palette {spec.palette!r}; "
                         f"choose from {sorted(PALETTES)}")
    placed: dict[int, tuple[int, int]] = {}
    if spec.solution is not None:
        report = verify(inst, spec.solution)
        if not report.valid and not spec.force:
            raise RenderOfInvalidSolution(
                f"solution violates {report.violation.kind.value}; "
                "use force to render anyway")
        placed = {p.item_index: p.offset for p in spec.solution.placements}

    cb = inst.container.bbox
    span_x = cb[2] - cb[0]
    span_y = cb[3] - cb[1]
    margin = max(1, span_x // 50)
    stroke = f"{max(span_x, span_y) / 400:.4g}"

    parts = []
    tray_entries = []
    if spec.tray:
        unplaced = [i for i in range(inst.n_items) if i not in placed]
        tray_x = cb[2] + 2 * margin
        ty = cb[1]
        col_w = 0
        for i in unplaced:
            b = inst.items[i].polygon.bbox
            w, h = b[2] - b[0], b[3] - b[1]
            if ty + h > cb[3] and ty > cb[1]:
                tray_x += col_w + margin
                ty = cb[1]
                col_w = 0
            tray_entries.append((i, tray_x - b[0], ty - b[1]))
            ty += h + margin
            col_w = max(col_w, w)
        total_w = (tray_x + col_w) - cb[0] if unplaced else span_x
    else:
        total_w = span_x

    view = (cb[0] - margin, cb[1] - margin, total_w + 2 * margin, span_y + 2 * margin)
    if not math.isfinite(max(view[2], view[3]) * spec.scale):
        raise ValueError(f"scale {spec.scale} makes the picture size overflow")
    width_px = max(1, round(view[2] * spec.scale))
    height_px = max(1, round(view[3] * spec.scale))
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="{view[0]} {view[1]} {view[2]} {view[3]}">')
    # flip y so larger y is up, as in the coordinate model
    parts.append(f'<g transform="matrix(1 0 0 -1 0 {cb[1] + cb[3]})">')
    parts.append(
        f'<polygon points="{_poly_points(inst.container.coords)}" '
        f'fill="#f5f5f0" stroke="#222222" stroke-width="{stroke}"/>')
    for i, off in sorted(placed.items()):
        color = colors[i % len(colors)]
        parts.append(
            f'<polygon points="{_poly_points(inst.items[i].polygon.coords, *off)}" '
            f'fill="{color}" fill-opacity="0.85" stroke="#222222" '
            f'stroke-width="{stroke}"/>')
    for i, dx, dy in tray_entries:
        color = colors[i % len(colors)]
        parts.append(
            f'<polygon points="{_poly_points(inst.items[i].polygon.coords, dx, dy)}" '
            f'fill="{color}" fill-opacity="0.35" stroke="#888888" '
            f'stroke-width="{stroke}"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
