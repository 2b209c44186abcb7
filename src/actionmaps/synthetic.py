"""Seeded generation of multi-room scenes with correlated side-information.

Scenes are a strip of rooms around a central corridor. Objects placed per
room type induce the ground-truth affordances (the category-activity rules),
object detections feed the object score channel, and room types feed the
scene-class channel, so appearance genuinely predicts function and transfers
across scenes. Sampled demonstrations and camera coverage are calibrated
against target sparsity ratios.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from actionmaps.baselines import CategoryActivityMap
from actionmaps.evaluation import EvalParams, view_rows
# GeneratedDataset, sample_demonstrations and GenerationError live in fileio,
# which the CLI loads without this generator; they are re-exported here
from actionmaps.fileio import GeneratedDataset, GenerationError, sample_demonstrations
from actionmaps.scene import (
    DEFAULT_ACTIVITIES,
    ActivityVocabulary,
    Cell,
    Demonstrations,
    GridPose,
    SceneGrid,
    check_field_types,
    grid_coords,
)
from actionmaps.sideinfo import aggregate_object_scores
from actionmaps.textfmt import q9

ROOM_TYPES = ("office", "kitchen", "common")
CLASS_NAMES = ("office", "corridor", "kitchen", "common", "wall")
CATEGORY_NAMES = ("chair", "desk", "sink", "door", "whiteboard", "bookshelf")
CATEGORY_AFFORDANCES = {
    "chair": ("sit",),
    "desk": ("type", "read"),
    "sink": ("wash",),
    "door": ("open-door",),
    "whiteboard": ("write-whiteboard",),
    "bookshelf": ("read",),
}
_CLASS_OF_ROOM_TYPE = {"office": 0, "kitchen": 2, "common": 3}
_CORRIDOR_CLASS = 1
_WALL_CLASS = 4


def default_category_activity_map() -> CategoryActivityMap:
    return CategoryActivityMap.from_names(
        {cat: acts for cat, acts in CATEGORY_AFFORDANCES.items()},
        CATEGORY_NAMES,
        DEFAULT_ACTIVITIES,
    )


_RANGE = {"takes": "a (lo, hi) integer pair"}
_WEIGHTS = f"{len(ROOM_TYPES)} finite weights >= 0 with a positive sum"


@dataclass(frozen=True)
class WorldSpec:
    """Layout ranges, noise levels, and sparsity targets for generation."""

    rooms_x: int = 3
    rooms_y: int = 1
    room_width: tuple[int, int] = field(default=(5, 7), metadata=_RANGE)
    room_height: tuple[int, int] = field(default=(5, 6), metadata=_RANGE)
    corridor_height: int = 2
    room_type_weights: tuple[float, float, float] = field(default=(0.5, 0.2, 0.3),
                                                          metadata={"takes": _WEIGHTS})
    feature_noise: float = 0.05
    feature_smoothing: float = 0.4
    detection_miss_rate: float = 0.0
    false_positive_rate: float = 0.0
    localization_jitter: float = 1.0
    object_margin: int = 0
    poses_per_room: int = 4
    corridor_poses: int = 6
    n_demonstrations: int = 60
    target_explored_ratio: Optional[float] = None
    target_action_ratio: Optional[float] = None
    max_layout_retries: int = 20

    def __post_init__(self):
        # checked by the annotations, so spec JSON cannot slip in a value of
        # the wrong type, a bool included
        check_field_types(self, GenerationError)
        for name in ("room_width", "room_height"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise GenerationError(f"{name} range ({lo}, {hi}) has lo > hi")
        if self.rooms_x < 1 or self.rooms_y not in (1, 2):
            raise GenerationError("rooms_x must be >= 1 and rooms_y 1 or 2")
        if self.room_width[0] < 3 or self.room_height[0] < 3:
            raise GenerationError("rooms must be at least 3 cells wide and tall")
        for name, v in (
            ("feature_noise", self.feature_noise),
            ("localization_jitter", self.localization_jitter),
        ):
            if not 0 <= v < math.inf:  # written so that NaN fails
                raise GenerationError(f"{name} must be finite and >= 0, got {v!r}")
        for name in ("detection_miss_rate", "false_positive_rate", "feature_smoothing",
                     "target_explored_ratio", "target_action_ratio"):
            v = getattr(self, name)
            if not (v is None or 0.0 <= v <= 1.0):  # only the target_ fields may be None
                raise GenerationError(f"{name} must be in [0, 1], got {v!r}")
        for name, low in (("corridor_height", 1), ("max_layout_retries", 1), ("poses_per_room", 0),
                          ("corridor_poses", 0), ("object_margin", 0), ("n_demonstrations", 0)):
            if getattr(self, name) < low:
                raise GenerationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        w = np.asarray(self.room_type_weights, dtype=float)
        if not ((w >= 0).all() and 0 < w.sum() < np.inf):
            raise GenerationError(f"room_type_weights must be {_WEIGHTS}, "
                                  f"got {self.room_type_weights!r}")

# ---------------------------------------------------------------------------
# layout and population
# ---------------------------------------------------------------------------


_NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _build_layout(spec: WorldSpec, rng: "np.random.Generator"):
    """The (W, H) room-id array (-1 walls, 0 corridor, 1.. rooms), the type
    of each room (room r at index r - 1) and the doorway cells."""
    widths = [int(rng.integers(spec.room_width[0], spec.room_width[1] + 1))
              for _ in range(spec.rooms_x)]
    h_top = int(rng.integers(spec.room_height[0], spec.room_height[1] + 1))
    h_bot = int(rng.integers(spec.room_height[0], spec.room_height[1] + 1))
    width = sum(widths) + spec.rooms_x + 1
    ch = spec.corridor_height
    if spec.rooms_y == 2:
        height = h_top + h_bot + ch + 4
    else:
        height = h_top + ch + 3
    room_id = np.full((width, height), -1, dtype=int)

    corridor_y0 = 1 + h_top + 1
    room_id[1 : width - 1, corridor_y0 : corridor_y0 + ch] = 0

    rooms: list[tuple[int, int, int, int]] = []  # x0, y0, w, h
    x0 = 1
    for w in widths:
        rooms.append((x0, 1, w, h_top))
        x0 += w + 1
    if spec.rooms_y == 2:
        y_bot = corridor_y0 + ch + 1
        x0 = 1
        for w in widths:
            rooms.append((x0, y_bot, w, h_bot))
            x0 += w + 1

    doorways: list[Cell] = []
    room_types = _assign_room_types(len(rooms), spec, rng)
    for r, (x0, y0, w, h) in enumerate(rooms, start=1):
        room_id[x0 : x0 + w, y0 : y0 + h] = r
        door_x = int(rng.integers(x0, x0 + w))
        door_y = y0 + h if y0 < corridor_y0 else y0 - 1
        room_id[door_x, door_y] = 0
        doorways.append((door_x, door_y))
    return room_id, room_types, doorways


def _assign_room_types(n_rooms: int, spec: WorldSpec, rng: "np.random.Generator"):
    """Random types with at least one office and (when possible) one kitchen."""
    weights = np.asarray(spec.room_type_weights, dtype=float)
    weights = weights / weights.sum()
    types = [str(rng.choice(ROOM_TYPES, p=weights)) for _ in range(n_rooms)]
    slots = rng.permutation(n_rooms)
    types[slots[0]] = "office"
    if n_rooms > 1:
        types[slots[1]] = "kitchen"
    return types


def _shifted(a: np.ndarray, di: int, dj: int, fill) -> np.ndarray:
    """a[i + di, j + dj] at every cell (i, j) of a (W, H, ...) grid array, and
    fill where that cell is off the grid."""
    w, h = a.shape[:2]
    out = np.full_like(a, fill)
    src = a[max(0, di) : max(0, w + di), max(0, dj) : max(0, h + dj)]
    i0, j0 = max(0, -di), max(0, -dj)
    out[i0 : i0 + src.shape[0], j0 : j0 + src.shape[1]] = src
    return out


def _interior(in_room: np.ndarray, margin: int) -> np.ndarray:
    """The cells whose (2 margin + 1)-cell square lies wholly in the room,
    found one axis at a time."""
    out = in_room
    for di, dj in ((1, 0), (0, 1)):
        shifts = [_shifted(out, d * di, d * dj, False) for d in range(-margin, margin + 1)]
        out = np.logical_and.reduce(shifts)
    return out


def _cell_row(row_at: np.ndarray, i: int, j: int) -> Optional[int]:
    """The row of cell (i, j), or None if the cell is off the grid."""
    w, h = row_at.shape
    return int(row_at[i, j]) if 0 <= i < w and 0 <= j < h else None


def _place_objects(room_id, room_types, doorways, coords, row_at, spec: WorldSpec,
                   rng: "np.random.Generator"):
    """Returns (category name, row, room) triples, one cell per object."""
    cells = tuple(coords.T)
    near_wall = np.logical_or.reduce(
        [_shifted(room_id == -1, di, dj, False) for di, dj in _NEIGHBOURS]
    )
    objects: list[tuple[str, int, int]] = []
    for room, rtype in enumerate(room_types, start=1):
        in_room = room_id == room
        interior = np.flatnonzero(_interior(in_room, spec.object_margin)[cells]).tolist()
        walls = interior
        if spec.object_margin == 0:
            walls = np.flatnonzero((in_room & near_wall)[cells]).tolist() or interior
        used: set[int] = set()

        def place(category: str, pool: list[int]) -> Optional[int]:
            """Put the object on a random free row of pool; that row, or None."""
            avail = [row for row in pool if row not in used]
            if not avail:
                return None
            row = avail[int(rng.integers(len(avail)))]
            used.add(row)
            objects.append((category, row, room))
            return row

        if rtype == "office":
            desk = place("desk", interior)
            if desk is not None:
                i, j = coords[desk]
                beside = [_cell_row(row_at, i + di, j + dj) for di, dj in _NEIGHBOURS]
                if place("chair", [row for row in beside if row in interior]) is None:
                    place("chair", interior)
            place("whiteboard", walls)
            if rng.random() < 0.5:
                place("bookshelf", walls)
        elif rtype == "kitchen":
            place("sink", walls)
            if rng.random() < 0.5:
                place("chair", interior)
        else:  # common room
            for _ in range(2):
                place("chair", interior)
            if rng.random() < 0.6:
                place("whiteboard", walls)
            if rng.random() < 0.4:
                place("bookshelf", walls)
    for door in doorways:
        objects.append(("door", int(row_at[door]), 0))
    return objects


def _ground_truth(rooms, coords, objects, vocabulary: ActivityVocabulary) -> np.ndarray:
    """The (n_cells, A) labels: cells within the detection-score radius of
    each object get its affordances; in-room objects do not label through
    walls."""
    labels = np.zeros((len(coords), len(vocabulary)), dtype=bool)
    for category, row, room in objects:
        near = (np.abs(coords - coords[row]) <= 1).all(axis=1)
        if category != "door":
            near &= rooms == room
        acts = [vocabulary.index(a) for a in CATEGORY_AFFORDANCES[category]]
        labels[np.ix_(near, acts)] = True
    return labels


def _detections(objects, floor, coords, spec: WorldSpec, rng: "np.random.Generator"):
    dets: list[tuple[int, tuple[float, float]]] = []
    for category, row, _room in objects:
        if rng.random() < spec.detection_miss_rate:
            continue
        i, j = coords[row]
        dets.append((CATEGORY_NAMES.index(category), (i + 0.5, j + 0.5)))
    n_fp = int(round(spec.false_positive_rate * len(floor)))
    for _ in range(n_fp):
        i, j = coords[floor[int(rng.integers(len(floor)))]]
        cat = int(rng.integers(len(CATEGORY_NAMES)))
        dets.append((cat, (i + 0.5, j + 0.5)))
    return dets


def _scene_class_scores(room_id, room_types, cells, spec: WorldSpec,
                        rng: "np.random.Generator") -> np.ndarray:
    """Own-class one-hot mixed with the 8-neighborhood mean, plus noise."""
    class_of = [_WALL_CLASS, _CORRIDOR_CLASS] + [_CLASS_OF_ROOM_TYPE[t] for t in room_types]
    base = np.eye(len(CLASS_NAMES))[np.array(class_of)[room_id + 1]]  # (W, H, C)
    around = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    nb_sum = sum(_shifted(base, di, dj, 0.0) for di, dj in around)
    nb_cnt = sum(_shifted(np.ones_like(base[..., :1]), di, dj, 0.0) for di, dj in around)
    s = spec.feature_smoothing
    p = (1.0 - s) * base + s * nb_sum / nb_cnt
    if spec.feature_noise > 0:
        p = p + rng.normal(0.0, spec.feature_noise, p.shape)
    return np.clip(p, 0.0, None)[cells]


def _pose_at(cell: Cell, target: tuple[float, float]) -> GridPose:
    pos = (cell[0] + 0.5, cell[1] + 0.5)
    vec = (target[0] - pos[0], target[1] - pos[1])
    norm = math.hypot(*vec)
    if norm < 1e-9:
        vec, norm = (1.0, 0.0), 1.0
    hx, hy = q9(vec[0] / norm), q9(vec[1] / norm)
    return GridPose(position=(q9(pos[0]), q9(pos[1])), heading=(hx, hy))


def _candidate_poses(rooms, coords, objects, spec: WorldSpec, rng: "np.random.Generator"):
    poses: list[GridPose] = []
    for room in range(1, rooms.max() + 1):
        room_rows = np.flatnonzero(rooms == room)
        targets = [row for _, row, r in objects if r == room]
        for _ in range(spec.poses_per_room):
            cell = coords[room_rows[int(rng.integers(len(room_rows)))]]
            if targets:
                t = coords[targets[int(rng.integers(len(targets)))]]
                target = (t[0] + 0.5, t[1] + 0.5)
            else:
                target = (cell[0] + 1.5, cell[1] + 0.5)
            poses.append(_pose_at(cell, target))
    corridor = coords[rooms == 0]
    xs = sorted(set(corridor[:, 0].tolist()))
    for k in range(spec.corridor_poses):
        x = xs[min(len(xs) - 1, int(round(k * (len(xs) - 1) / max(1, spec.corridor_poses - 1))))]
        ys = sorted(corridor[corridor[:, 0] == x, 1].tolist())
        cell = (x, ys[len(ys) // 2])
        target = (cell[0] + 0.5 + (1.0 if k % 2 == 0 else -1.0), cell[1] + 0.5)
        poses.append(_pose_at(cell, target))
    order = rng.permutation(len(poses))
    return [poses[i] for i in order]


class _Infeasible(Exception):
    pass


def _generate_once(
    spec: WorldSpec, seed_key, scene_id: str
) -> tuple[SceneGrid, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed_key)
    eval_params = EvalParams()
    room_id, room_types, doorways = _build_layout(spec, rng)
    w, h = room_id.shape
    total = w * h
    coords = grid_coords(w, h)  # the (i, j) of every row
    cells = tuple(coords.T)
    row_at = np.zeros((w, h), dtype=int)  # and back
    row_at[cells] = np.arange(total)
    rooms = room_id[cells]  # the room id of every row
    floor = np.flatnonzero(rooms >= 0)
    vocabulary = ActivityVocabulary()
    objects = _place_objects(room_id, room_types, doorways, coords, row_at, spec, rng)
    labels = _ground_truth(rooms, coords, objects, vocabulary)
    detections = _detections(objects, floor, coords, spec, rng)
    o_scores = aggregate_object_scores((w, h), detections, len(CATEGORY_NAMES))
    p_scores = _scene_class_scores(room_id, room_types, cells, spec, rng)

    candidates = _candidate_poses(rooms, coords, objects, spec, rng)
    target_cells = (
        int(round(spec.target_explored_ratio * total))
        if spec.target_explored_ratio is not None
        else None
    )
    explored = np.zeros(total, dtype=bool)
    used_poses: list[GridPose] = []

    def look(pose: GridPose):
        explored[view_rows(pose, (w, h), eval_params)] = True
        used_poses.append(pose)

    for pose in candidates:
        if target_cells is not None and explored.sum() >= target_cells and used_poses:
            break
        look(pose)
    if target_cells is not None:
        extra = 0
        while explored.sum() < target_cells and extra < 300:
            cell = coords[floor[int(rng.integers(len(floor)))]]
            angle = rng.uniform(0.0, 2.0 * math.pi)
            pose = _pose_at(cell, (cell[0] + 0.5 + math.cos(angle), cell[1] + 0.5 + math.sin(angle)))
            look(pose)
            extra += 1
        if explored.sum() < target_cells - int(0.05 * total):
            raise _Infeasible("cannot reach the explored-ratio target")

    # make sure enough labelled (row, activity) pairs are observable and
    # every labelled activity is observable somewhere
    gt_activities = np.flatnonzero(labels.any(axis=0))
    for _ in range(200):
        seen = labels & explored[:, None]
        missing = np.flatnonzero(labels.any(axis=0) & ~seen.any(axis=0))
        if seen.sum() >= spec.n_demonstrations and not missing.size:
            break
        unseen = labels.any(axis=1) & ~explored
        if missing.size:
            unseen &= labels[:, missing[0]]
        unseen = np.flatnonzero(unseen)
        if not unseen.size:
            break
        cell = coords[unseen[int(rng.integers(len(unseen)))]]
        look(_pose_at(cell, (cell[0] + 1.5, cell[1] + 0.5)))
    seen = labels & explored[:, None]
    if seen.sum() < spec.n_demonstrations:
        raise _Infeasible(
            f"only {seen.sum()} observable labelled pairs for "
            f"{spec.n_demonstrations} demonstrations"
        )

    # demonstrations cover every observable activity, then favor rows with
    # the richest affordance sets
    n_labels = labels.sum(axis=1)
    seen_rows = np.flatnonzero(seen.any(axis=1))
    order = rng.permutation(len(seen_rows))
    shuffled = sorted(seen_rows[order].tolist(), key=lambda row: -n_labels[row])  # stable
    chosen: list[int] = []
    for act in gt_activities:
        with_act = [row for row in shuffled if labels[row, act]]
        if with_act and not labels[chosen, act].any():
            chosen.append(with_act[0])
    n_cover = count = int(n_labels[chosen].sum())  # the cover rows' pairs
    for row in shuffled:
        if count >= spec.n_demonstrations:
            break
        if row not in chosen:
            chosen.append(row)
            count += n_labels[row]
    # the chosen rows' pairs row by row: the cover pairs first, then the
    # others in a random order
    k, acts = np.nonzero(labels[chosen])
    pair_order = np.concatenate([np.arange(n_cover), n_cover + rng.permutation(len(k) - n_cover)])
    keep = pair_order[: spec.n_demonstrations]
    source_rows = np.array(chosen, dtype=int)[k[keep]].tolist()
    demo_acts = acts[keep]
    demo_rows = _jitter_pairs(source_rows, demo_acts.tolist(), coords, row_at, rooms >= 0, spec, rng)

    if spec.target_action_ratio is not None:
        ratio = len(set(demo_rows)) / total
        if abs(ratio - spec.target_action_ratio) > 0.009:
            raise _Infeasible(f"action-cell ratio {ratio:.3f} off target")
    if spec.target_explored_ratio is not None:
        n_final = explored.sum() + len({row for row in demo_rows if not explored[row]})
        if abs(n_final / total - spec.target_explored_ratio) > 0.045:
            raise _Infeasible("explored ratio off target after demonstrations")

    demos = Demonstrations(demo_rows, demo_acts, np.ones(len(demo_rows)))
    scene = SceneGrid(
        scene_id, w, h, vocabulary=vocabulary, explored=explored,
        labels=labels, demonstrations=demos, poses=used_poses,
    )
    quantized = np.vectorize(q9, otypes=[float])
    return scene, quantized(p_scores), quantized(o_scores)


def _jitter_pairs(rows, acts, coords, row_at, on_floor, spec: WorldSpec,
                  rng: "np.random.Generator") -> list[int]:
    """Move demonstration rows by the localization error model.

    All pairs sharing a source row were observed from the same viewpoint, so
    they share one offset draw, and a drawn move is taken only onto a floor
    cell. A pair whose moved (row, activity) is taken goes back to its own
    row, or else to the nearest free floor cell, so pairs stay distinct. A
    pair that is not moved keeps its row, floor or not: door labels skip the
    room check and so reach the wall cells beside a doorway, and a
    demonstration can land there.
    """
    used: set[tuple[int, int]] = set()
    out: list[int] = []
    moved: dict[int, int] = {}
    for row, act in zip(rows, acts):
        if row not in moved:
            moved[row] = row
            if spec.localization_jitter > 0:
                i, j = coords[row]
                for _ in range(50):
                    di, dj = np.rint(
                        rng.normal(0.0, spec.localization_jitter, 2)
                    ).astype(int)
                    cand = _cell_row(row_at, i + di, j + dj)
                    if cand is not None and on_floor[cand]:
                        moved[row] = cand
                        break
        placed = moved[row]
        if (placed, act) in used:
            if (row, act) not in used:
                placed = row
            else:
                placed = _nearest_free(row, act, coords, row_at, on_floor, used)
        used.add((placed, act))
        out.append(placed)
    return out


def _nearest_free(row, act, coords, row_at, on_floor, used) -> int:
    i0, j0 = coords[row]
    w, h = row_at.shape
    for radius in range(1, max(w, h)):
        for i in range(i0 - radius, i0 + radius + 1):
            for j in range(j0 - radius, j0 + radius + 1):
                cand = _cell_row(row_at, i, j)
                if cand is not None and on_floor[cand] and (cand, act) not in used:
                    return cand
    raise _Infeasible("no free cell for a demonstration")


def generate_scene(
    spec: WorldSpec, seed: int, scene_id: str = "scene"
) -> tuple[SceneGrid, np.ndarray, np.ndarray]:
    """Generate one scene with its (P, O) feature arrays; deterministic in
    seed, retrying with derived sub-seeds when a layout is infeasible."""
    if seed < 0:  # generate_dataset's first scene takes its seed as is
        raise GenerationError(f"seed must be >= 0, got {seed}")
    last = "unknown"
    for attempt in range(spec.max_layout_retries):
        try:
            return _generate_once(spec, [seed, attempt], scene_id)
        except _Infeasible as exc:
            last = str(exc)
    raise GenerationError(
        f"infeasible layout after {spec.max_layout_retries} retries: {last}"
    )


def generate_dataset(
    spec: WorldSpec,
    seed: int,
    n_scenes: int = 1,
    scene_prefix: str = "scene",
) -> GeneratedDataset:
    """Generate scenes sharing vocabularies and feature channels; scene k
    draws its layout from seed + 1000 k."""
    if not 1 <= n_scenes <= 26:  # scene ids end in a..z
        raise GenerationError(f"n_scenes must be in 1..26, got {n_scenes}")
    scenes = []
    features = {}
    for k in range(n_scenes):
        scene_id = f"{scene_prefix}_{chr(ord('a') + k)}" if n_scenes > 1 else scene_prefix
        scene, p, o = generate_scene(spec, seed + 1000 * k, scene_id)
        scenes.append(scene)
        features[scene_id] = (p, o)
    return GeneratedDataset(scenes=scenes, features=features, catmap=default_category_activity_map(),
                            class_names=CLASS_NAMES, category_names=CATEGORY_NAMES)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

PRESETS: dict[str, WorldSpec] = {
    "mini": WorldSpec(
        rooms_x=2,
        rooms_y=1,
        room_width=(4, 5),
        room_height=(4, 4),
        poses_per_room=3,
        corridor_poses=4,
        n_demonstrations=12,
        localization_jitter=0.0,
        feature_noise=0.02,
    ),
    "office_a": WorldSpec(
        rooms_x=5,
        rooms_y=2,
        room_width=(8, 10),
        room_height=(7, 9),
        corridor_height=3,
        poses_per_room=4,
        corridor_poses=8,
        n_demonstrations=90,
        target_explored_ratio=0.59,
        target_action_ratio=0.03,
        localization_jitter=1.0,
        feature_noise=0.05,
    ),
    "pair": WorldSpec(
        rooms_x=3,
        rooms_y=1,
        room_width=(5, 7),
        room_height=(5, 6),
        poses_per_room=4,
        corridor_poses=6,
        n_demonstrations=45,
        localization_jitter=0.5,
        feature_noise=0.05,
        detection_miss_rate=0.3,
        false_positive_rate=0.02,
    ),
}
