"""Jigsaw instances: cut a rectangular container into convex faces with
random lines, merge random adjacent faces into more complex pieces, then
nudge vertices to hinder trivial reassembly.

Exactness is the point of this family: every cut chord runs between lattice
points that lie exactly on face boundaries, so at all times the faces
partition the container with integer coordinates and exactly summing areas.
A cutting line is realized per crossed face as the chord between the two
boundary contact points snapped to their nearest lattice points on the
crossed edges; the snapped chord still splits the face into two convex
integer pieces, so the tiling invariant survives every cut.  With
perturbation disabled the identity placement of one copy reassembles the
container bit for bit.

Two faces merge by cancelling their shared edges: each face's edges are
split at the other face's vertices lying inside them, so the common
boundary becomes the same edges traversed in opposite directions.  Those
cancel, and `geom.trace_boundary` chains the remaining directed edges into
the merged piece, or rejects them if they are not a single cycle.  Nothing
here assumes the faces are convex.  Each piece then loses its straight
vertices (`geom.drop_straight`) and is moved to the origin
(`geom.to_origin`), which gives its identity translation.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ..geom import (GeometryError, Polygon, _bbox, _hull, _rect_extents, cross,
                    drop_straight, is_simple, round_ratio, signed_area2,
                    to_origin, trace_boundary)
from ..model import Instance, Item
from ..rng import Rng
from ..valuation import ValueSpec, assign_values
from .config import (STREAM_LINES, STREAM_MERGE, STREAM_PERTURB,
                     STREAM_VALUES, GenConfig, GenerationFailed)

Coord = tuple[int, int]

MIN_PIECE_AREA_FRACTION = Fraction(1, 500)  # reject merges below 0.2% of container
MAX_PIECE_AREA_FRACTION = Fraction(1, 5)
MAX_PIECE_ASPECT = 25
LINE_RETRIES = 50
PERTURB_RETRIES = 20


def _boundary_point(rng: Rng, width: int, height: int) -> Coord:
    side = rng.below(4)
    if side == 0:
        return (rng.in_range(0, width), 0)
    if side == 1:
        return (width, rng.in_range(0, height))
    if side == 2:
        return (rng.in_range(0, width), height)
    return (0, rng.in_range(0, height))


def _cut_line(rng: Rng, width: int, height: int) -> tuple[Coord, Coord]:
    for _ in range(LINE_RETRIES):
        p1 = _boundary_point(rng, width, height)
        p2 = _boundary_point(rng, width, height)
        if p1 == p2:
            continue
        if p1[0] == p2[0] and p1[0] in (0, width):
            continue  # collinear with a vertical side
        if p1[1] == p2[1] and p1[1] in (0, height):
            continue
        return p1, p2
    raise GenerationFailed("could not draw a usable cutting line")


def _midpoint_strictly_inside(pts, a: Coord, b: Coord) -> bool:
    # doubled coordinates keep the midpoint integral
    mx, my = a[0] + b[0], a[1] + b[1]
    n = len(pts)
    for i in range(n):
        (x1, y1), (x2, y2) = pts[i], pts[(i + 1) % n]
        if (2 * x2 - 2 * x1) * (my - 2 * y1) - (2 * y2 - 2 * y1) * (mx - 2 * x1) <= 0:
            return False
    return True


def _split_face(pts, p1: Coord, p2: Coord):
    """Split a convex CCW face by the lattice chord approximating line
    (p1, p2); returns two pieces or None when the line misses the face or
    snapping degenerates the cut."""
    n = len(pts)
    crs = [cross(p1, p2, v) for v in pts]
    if not (any(c > 0 for c in crs) and any(c < 0 for c in crs)):
        return None
    aug: list[Coord] = []
    contacts: list[Coord] = []
    for i, v in enumerate(pts):
        aug.append(v)
        if crs[i] == 0:
            contacts.append(v)
        ci, cj = crs[i], crs[(i + 1) % n]
        if ci != 0 and cj != 0 and (ci > 0) != (cj > 0):
            w = pts[(i + 1) % n]
            dx, dy = w[0] - v[0], w[1] - v[1]
            g = math.gcd(abs(dx), abs(dy))
            k = min(max(round_ratio(ci * g, ci - cj), 0), g)
            q = (v[0] + k * (dx // g), v[1] + k * (dy // g))
            if q == v or q == w:
                contacts.append(q)
            else:
                aug.append(q)
                contacts.append(q)
    contacts = sorted(set(contacts))
    if len(contacts) != 2:
        return None
    a, b = contacts
    if not _midpoint_strictly_inside(pts, a, b):
        return None
    ia, ib = aug.index(a), aug.index(b)
    if ia > ib:
        ia, ib = ib, ia
    piece1 = aug[ia:ib + 1]
    piece2 = aug[ib:] + aug[:ia + 1]
    if len(piece1) < 3 or len(piece2) < 3:
        return None
    if signed_area2(piece1) <= 0 or signed_area2(piece2) <= 0:
        return None
    return piece1, piece2


def _with_contacts(pts, other):
    """pts with every vertex of other that lies inside one of its edges
    inserted into that edge, in order along it."""
    out = []
    for i, a in enumerate(pts):
        b = pts[(i + 1) % len(pts)]
        dx, dy = b[0] - a[0], b[1] - a[1]
        inside = [v for v in other if cross(a, b, v) == 0
                  and 0 < (v[0] - a[0]) * dx + (v[1] - a[1]) * dy < dx * dx + dy * dy]
        inside.sort(key=lambda v: (v[0] - a[0]) * dx + (v[1] - a[1]) * dy)
        out.append(a)
        out.extend(inside)
    return out


def _merge_faces(f, g):
    """Union of two interior-disjoint CCW faces sharing boundary, or None
    when they share none or their union is not one simple polygon."""
    fc, gc = _with_contacts(f, g), _with_contacts(g, f)
    f_edges = list(zip(fc, fc[1:] + fc[:1]))
    edges = f_edges + list(zip(gc, gc[1:] + gc[:1]))
    present = set(edges)
    shared = {(a, b) for a, b in edges if (b, a) in present}
    # walk from where f's boundary leaves the shared part
    start = next((fc[i] for i in range(len(fc))
                  if f_edges[i - 1] in shared and f_edges[i] not in shared), None)
    if start is None:
        return None
    try:
        merged = trace_boundary([e for e in edges if e not in shared], start)
    except GeometryError:
        return None  # a pinch, a hole or a stray edge
    if len(merged) < 3 or signed_area2(merged) != signed_area2(f) + signed_area2(g):
        return None
    if not is_simple(merged):
        return None
    return merged


def _merge_phase(faces, cfg: GenConfig, rng: Rng, container_area2: int):
    order = list(range(len(faces)))
    rng.shuffle(order)
    used = [False] * len(faces)
    merged_out = []
    boxes = [_bbox(f) for f in faces]
    min_area2 = MIN_PIECE_AREA_FRACTION * container_area2
    max_area2 = MAX_PIECE_AREA_FRACTION * container_area2
    for idx in order:
        if used[idx] or not rng.chance(cfg.jigsaw_merge_fraction):
            continue
        bx = boxes[idx]
        partners = []
        for jdx in order:
            if jdx == idx or used[jdx]:
                continue
            bj = boxes[jdx]
            if bx[0] > bj[2] or bj[0] > bx[2] or bx[1] > bj[3] or bj[1] > bx[3]:
                continue
            partners.append(jdx)
        rng.shuffle(partners)
        for jdx in partners:
            merged = _merge_faces(faces[idx], faces[jdx])
            if merged is None:
                continue
            a2 = signed_area2(merged)
            if not min_area2 <= a2 <= max_area2:
                continue
            du, dw, _ = _rect_extents(_hull(merged))
            if max(du, dw) > MAX_PIECE_ASPECT * min(du, dw):
                continue
            used[idx] = used[jdx] = True
            merged_out.append(merged)
            break
    kept = [faces[i] for i in range(len(faces)) if not used[i]]
    return merged_out + kept


def _perturb(pts, rng: Rng, amplitude: int):
    for _ in range(PERTURB_RETRIES):
        cand = [(x + rng.in_range(-amplitude, amplitude),
                 y + rng.in_range(-amplitude, amplitude)) for x, y in pts]
        if signed_area2(cand) > 0 and is_simple(cand):
            return cand
    return list(pts)


def gen_jigsaw(cfg: GenConfig) -> Instance:
    width = cfg.container_width or 600
    height = cfg.container_height or 400
    container = Polygon([(0, 0), (width, 0), (width, height), (0, height)])
    pieces: list[tuple[list[Coord], Coord, int]] = []  # (points, origin, copy)

    for copy in range(cfg.jigsaw_copies):
        faces = [list(container.coords)]
        rng_lines = Rng(cfg.seed, stream=STREAM_LINES + copy)
        for _ in range(cfg.jigsaw_line_count):
            for _ in range(LINE_RETRIES):
                p1, p2 = _cut_line(rng_lines, width, height)
                new_faces = []
                cut_happened = False
                for f in faces:
                    split = _split_face(f, p1, p2)
                    if split is None:
                        new_faces.append(f)
                    else:
                        new_faces.extend(split)
                        cut_happened = True
                if cut_happened:
                    faces = new_faces
                    break
            else:
                raise GenerationFailed("arrangement degenerated; no line cuts any face")
        if sum(signed_area2(f) for f in faces) != container.area2:
            raise GenerationFailed("cutting broke the exact tiling invariant")

        rng_merge = Rng(cfg.seed, stream=STREAM_MERGE + copy)
        faces = _merge_phase(faces, cfg, rng_merge, container.area2)
        if sum(signed_area2(f) for f in faces) != container.area2:
            raise GenerationFailed("merging broke the exact tiling invariant")

        rng_pert = Rng(cfg.seed, stream=STREAM_PERTURB + copy)
        for f in faces:
            f = drop_straight(f)
            if cfg.jigsaw_perturb_amplitude > 0:
                f = _perturb(f, rng_pert, cfg.jigsaw_perturb_amplitude)
            pieces.append((*to_origin(f), copy))

    name = f"jigsaw_s{cfg.seed}_l{cfg.jigsaw_line_count}_c{cfg.jigsaw_copies}"
    meta: dict = {"generator": "jigsaw", "seed": cfg.seed,
                  "lines": cfg.jigsaw_line_count, "copies": cfg.jigsaw_copies}
    if cfg.jigsaw_perturb_amplitude == 0:
        # unperturbed pieces of the first copy reassemble the container
        first = [(i, org) for i, (_, org, cp) in enumerate(pieces) if cp == 0]
        meta["identity"] = {
            "item_indices": [i for i, _ in first],
            "x_translations": [org[0] for _, org in first],
            "y_translations": [org[1] for _, org in first],
        }
    items = tuple(Item(Polygon(pts), 1) for pts, _, _ in pieces)
    draft = Instance(name, container, items, meta)
    spec = ValueSpec(cfg.value_kind, cfg.value_noise,
                     seed=Rng(cfg.seed, stream=STREAM_VALUES).next_u64(),
                     global_scale=cfg.value_scale)
    return assign_values(draft, spec)
