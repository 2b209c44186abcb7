"""Seeded generation of multi-room scenes with correlated side-information.

Scenes are a strip of rooms around a central corridor. Objects placed per
room type induce the ground-truth affordances (the category-activity rules),
object detections feed the object score channel, and room types feed the
scene-class channel, so appearance genuinely predicts function and transfers
across scenes. Demonstration sampling and camera coverage are calibrated
against target sparsity ratios.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from actionmaps.baselines import CategoryActivityMap
from actionmaps.evaluation import EvalParams, ViewTriangle, cells_in_triangle
from actionmaps.scene import (
    DEFAULT_ACTIVITIES,
    ActivityVocabulary,
    Cell,
    Demonstration,
    GlobalIndex,
    GridPose,
    SceneGrid,
    stack_scenes,
)
from actionmaps.sideinfo import LocationFeatures, aggregate_object_scores
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
LABEL_RADIUS = math.sqrt(2.0)  # matches the detection score support


class GenerationError(ValueError):
    """Invalid world spec or infeasible layout."""


def default_category_activity_map() -> CategoryActivityMap:
    return CategoryActivityMap.from_names(
        {cat: acts for cat, acts in CATEGORY_AFFORDANCES.items()},
        CATEGORY_NAMES,
        DEFAULT_ACTIVITIES,
    )


@dataclass(frozen=True)
class WorldSpec:
    """Layout ranges, noise levels, and sparsity targets for generation."""

    rooms_x: int = 3
    rooms_y: int = 1
    room_width: tuple[int, int] = (5, 7)
    room_height: tuple[int, int] = (5, 6)
    corridor_height: int = 2
    room_type_weights: tuple[float, float, float] = (0.5, 0.2, 0.3)
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
        if self.rooms_x < 1 or self.rooms_y not in (1, 2):
            raise GenerationError("rooms_x must be >= 1 and rooms_y 1 or 2")
        if self.room_width[0] < 3 or self.room_height[0] < 3:
            raise GenerationError("rooms must be at least 3 cells wide and tall")
        for name, v in (
            ("feature_noise", self.feature_noise),
            ("localization_jitter", self.localization_jitter),
        ):
            if v < 0:
                raise GenerationError(f"{name} must be >= 0")
        for name, v in (
            ("detection_miss_rate", self.detection_miss_rate),
            ("false_positive_rate", self.false_positive_rate),
            ("feature_smoothing", self.feature_smoothing),
        ):
            if not 0.0 <= v <= 1.0:
                raise GenerationError(f"{name} must be in [0, 1]")
        if self.n_demonstrations < 0:
            raise GenerationError("n_demonstrations must be >= 0")


@dataclass
class GeneratedDataset:
    """Scenes plus their per-cell feature arrays and the true category map."""

    scenes: list[SceneGrid]
    features: dict[str, tuple[np.ndarray, np.ndarray]]  # scene_id -> (P, O)
    catmap: CategoryActivityMap
    class_names: tuple[str, ...] = CLASS_NAMES
    category_names: tuple[str, ...] = CATEGORY_NAMES
    _index: Optional[GlobalIndex] = field(default=None, repr=False)

    @property
    def vocabulary(self) -> ActivityVocabulary:
        return self.scenes[0].vocabulary

    def scene(self, scene_id: str) -> SceneGrid:
        for scene in self.scenes:
            if scene.scene_id == scene_id:
                return scene
        raise GenerationError(f"unknown scene {scene_id!r}")

    def index(self) -> GlobalIndex:
        if self._index is None:
            self._index = stack_scenes(self.scenes)
        return self._index

    def location_features(self) -> LocationFeatures:
        """Stacked side-information of every cell, in global row order."""
        coords = [np.indices((s.width, s.height)).reshape(2, -1).T for s in self.scenes]
        codes = [np.full(s.n_cells, k) for k, s in enumerate(self.scenes)]
        return LocationFeatures(
            x=np.concatenate(coords),
            p=self.stacked_scene_scores(),
            o=self.stacked_object_scores(),
            scene_codes=np.concatenate(codes),
        )

    def stacked_scene_scores(self) -> np.ndarray:
        return np.vstack([self.features[s.scene_id][0] for s in self.scenes])

    def stacked_object_scores(self) -> np.ndarray:
        return np.vstack([self.features[s.scene_id][1] for s in self.scenes])

    def explored_rows(self) -> np.ndarray:
        return np.concatenate([s.explored_rows() for s in self.scenes])

    def with_demo_fraction(self, fraction: float, seed: int) -> "GeneratedDataset":
        scenes = [
            s.copy_with_demonstrations(sample_demonstrations(s, fraction, seed))
            for s in self.scenes
        ]
        return GeneratedDataset(
            scenes=scenes,
            features=self.features,
            catmap=self.catmap,
            class_names=self.class_names,
            category_names=self.category_names,
        )


def sample_demonstrations(
    scene: SceneGrid, fraction: float, seed: int
) -> tuple[Demonstration, ...]:
    """Seeded prefix sample: the 10% subset is contained in the 80% subset."""
    if not 0.0 <= fraction <= 1.0:
        raise GenerationError(f"fraction must be in [0, 1], got {fraction}")
    demos = scene.demonstrations
    order = np.random.default_rng(seed).permutation(len(demos))
    take = int(round(fraction * len(demos)))
    return tuple(demos[i] for i in order[:take])


# ---------------------------------------------------------------------------
# layout and population
# ---------------------------------------------------------------------------


@dataclass
class _Layout:
    room_id: np.ndarray  # (W, H): -1 walls, 0 corridor, 1.. rooms
    room_types: list[str]  # 1-based, index 0 unused
    doorways: list[Cell]

    @property
    def shape(self) -> tuple[int, int]:
        return self.room_id.shape

    def floor_cells(self) -> list[Cell]:
        w, h = self.shape
        return [(i, j) for i in range(w) for j in range(h) if self.room_id[i, j] >= 0]

    def room_cells(self, room: int) -> list[Cell]:
        w, h = self.shape
        return [(i, j) for i in range(w) for j in range(h) if self.room_id[i, j] == room]


def _build_layout(spec: WorldSpec, rng: np.random.Generator) -> _Layout:
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

    room_types = ["corridor"]
    doorways: list[Cell] = []
    type_order = _assign_room_types(len(rooms), spec, rng)
    for r, (x0, y0, w, h) in enumerate(rooms, start=1):
        room_id[x0 : x0 + w, y0 : y0 + h] = r
        room_types.append(type_order[r - 1])
        door_x = int(rng.integers(x0, x0 + w))
        door_y = y0 + h if y0 < corridor_y0 else y0 - 1
        room_id[door_x, door_y] = 0
        doorways.append((door_x, door_y))
    return _Layout(room_id=room_id, room_types=room_types, doorways=doorways)


def _assign_room_types(n_rooms: int, spec: WorldSpec, rng: np.random.Generator):
    """Random types with at least one office and (when possible) one kitchen."""
    weights = np.asarray(spec.room_type_weights, dtype=float)
    weights = weights / weights.sum()
    types = [str(rng.choice(ROOM_TYPES, p=weights)) for _ in range(n_rooms)]
    slots = rng.permutation(n_rooms)
    types[slots[0]] = "office"
    if n_rooms > 1:
        types[slots[1]] = "kitchen"
    return types


def _interior_cells(layout: _Layout, room: int, margin: int) -> list[Cell]:
    cells = layout.room_cells(room)
    if margin <= 0:
        return cells
    w, h = layout.shape
    out = []
    for i, j in cells:
        ok = True
        for di in range(-margin, margin + 1):
            for dj in range(-margin, margin + 1):
                ni, nj = i + di, j + dj
                if not (0 <= ni < w and 0 <= nj < h) or layout.room_id[ni, nj] != room:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append((i, j))
    return out


def _wall_adjacent(layout: _Layout, room: int) -> list[Cell]:
    w, h = layout.shape
    out = []
    for i, j in layout.room_cells(room):
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < w and 0 <= nj < h and layout.room_id[ni, nj] == -1:
                out.append((i, j))
                break
    return out


def _place_objects(layout: _Layout, spec: WorldSpec, rng: np.random.Generator):
    """Returns (category name, cell, room) triples, one cell per object."""
    objects: list[tuple[str, Cell, int]] = []
    for room in range(1, len(layout.room_types)):
        rtype = layout.room_types[room]
        interior = _interior_cells(layout, room, spec.object_margin)
        if spec.object_margin > 0:
            walls = interior
        else:
            walls = _wall_adjacent(layout, room) or interior
        used: set[Cell] = set()

        def pick(pool: list[Cell]) -> Optional[Cell]:
            avail = [c for c in pool if c not in used]
            if not avail:
                return None
            cell = avail[int(rng.integers(len(avail)))]
            used.add(cell)
            return cell

        def neighbors(cell: Cell) -> list[Cell]:
            i, j = cell
            return [
                c
                for c in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
                if c in interior
            ]

        if rtype == "office":
            desk = pick(interior)
            if desk:
                objects.append(("desk", desk, room))
                chair = pick(neighbors(desk)) or pick(interior)
                if chair:
                    objects.append(("chair", chair, room))
            wb = pick(walls)
            if wb:
                objects.append(("whiteboard", wb, room))
            if rng.random() < 0.5:
                shelf = pick(walls)
                if shelf:
                    objects.append(("bookshelf", shelf, room))
        elif rtype == "kitchen":
            sink = pick(walls)
            if sink:
                objects.append(("sink", sink, room))
            if rng.random() < 0.5:
                chair = pick(interior)
                if chair:
                    objects.append(("chair", chair, room))
        else:  # common room
            for _ in range(2):
                chair = pick(interior)
                if chair:
                    objects.append(("chair", chair, room))
            if rng.random() < 0.6:
                wb = pick(walls)
                if wb:
                    objects.append(("whiteboard", wb, room))
            if rng.random() < 0.4:
                shelf = pick(walls)
                if shelf:
                    objects.append(("bookshelf", shelf, room))
    for door_cell in layout.doorways:
        objects.append(("door", door_cell, 0))
    return objects


def _ground_truth(layout: _Layout, objects, vocabulary: ActivityVocabulary):
    """Cells within the detection-score radius of each object get its
    affordances; in-room objects do not label through walls."""
    w, h = layout.shape
    labels: dict[Cell, set[int]] = {}
    for category, (ci, cj), room in objects:
        acts = [vocabulary.index(a) for a in CATEGORY_AFFORDANCES[category]]
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ni, nj = ci + di, cj + dj
                if not (0 <= ni < w and 0 <= nj < h):
                    continue
                if category != "door" and layout.room_id[ni, nj] != room:
                    continue
                labels.setdefault((ni, nj), set()).update(acts)
    return labels


def _detections(layout, objects, spec: WorldSpec, rng: np.random.Generator):
    dets: list[tuple[int, tuple[float, float]]] = []
    for category, (i, j), _room in objects:
        if rng.random() < spec.detection_miss_rate:
            continue
        dets.append((CATEGORY_NAMES.index(category), (i + 0.5, j + 0.5)))
    floor = layout.floor_cells()
    n_fp = int(round(spec.false_positive_rate * len(floor)))
    for _ in range(n_fp):
        i, j = floor[int(rng.integers(len(floor)))]
        cat = int(rng.integers(len(CATEGORY_NAMES)))
        dets.append((cat, (i + 0.5, j + 0.5)))
    return dets


def _cell_classes(layout: _Layout) -> np.ndarray:
    w, h = layout.shape
    cls = np.full((w, h), _WALL_CLASS, dtype=int)
    for i in range(w):
        for j in range(h):
            r = layout.room_id[i, j]
            if r == 0:
                cls[i, j] = _CORRIDOR_CLASS
            elif r > 0:
                cls[i, j] = _CLASS_OF_ROOM_TYPE[layout.room_types[r]]
    return cls


def _scene_class_scores(layout: _Layout, spec: WorldSpec, rng: np.random.Generator):
    """Own-class one-hot mixed with the 8-neighborhood mean, plus noise."""
    w, h = layout.shape
    n_classes = len(CLASS_NAMES)
    base = np.eye(n_classes)[_cell_classes(layout)]  # (W, H, C)
    nb_sum = np.zeros_like(base)
    nb_cnt = np.zeros((w, h, 1))
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            src_i = slice(max(0, -di), min(w, w - di))
            src_j = slice(max(0, -dj), min(h, h - dj))
            dst_i = slice(max(0, di), min(w, w + di))
            dst_j = slice(max(0, dj), min(h, h + dj))
            nb_sum[dst_i, dst_j] += base[src_i, src_j]
            nb_cnt[dst_i, dst_j] += 1.0
    s = spec.feature_smoothing
    p = (1.0 - s) * base + s * nb_sum / nb_cnt
    if spec.feature_noise > 0:
        p = p + rng.normal(0.0, spec.feature_noise, p.shape)
    return np.clip(p, 0.0, None).reshape(w * h, n_classes)


def _pose_at(cell: Cell, target: tuple[float, float]) -> GridPose:
    pos = (cell[0] + 0.5, cell[1] + 0.5)
    vec = (target[0] - pos[0], target[1] - pos[1])
    norm = math.hypot(*vec)
    if norm < 1e-9:
        vec, norm = (1.0, 0.0), 1.0
    hx, hy = q9(vec[0] / norm), q9(vec[1] / norm)
    return GridPose(position=(q9(pos[0]), q9(pos[1])), heading=(hx, hy))


def _candidate_poses(layout: _Layout, objects, spec: WorldSpec, rng: np.random.Generator):
    poses: list[GridPose] = []
    for room in range(1, len(layout.room_types)):
        cells = layout.room_cells(room)
        room_objects = [c for cat, c, r in objects if r == room]
        for _ in range(spec.poses_per_room):
            cell = cells[int(rng.integers(len(cells)))]
            if room_objects:
                t = room_objects[int(rng.integers(len(room_objects)))]
                target = (t[0] + 0.5, t[1] + 0.5)
            else:
                target = (cell[0] + 1.5, cell[1] + 0.5)
            poses.append(_pose_at(cell, target))
    corridor = layout.room_cells(0)
    xs = sorted({c[0] for c in corridor})
    for k in range(spec.corridor_poses):
        x = xs[min(len(xs) - 1, int(round(k * (len(xs) - 1) / max(1, spec.corridor_poses - 1))))]
        ys = sorted(j for i, j in corridor if i == x)
        cell = (x, ys[len(ys) // 2])
        target = (cell[0] + 0.5 + (1.0 if k % 2 == 0 else -1.0), cell[1] + 0.5)
        poses.append(_pose_at(cell, target))
    order = rng.permutation(len(poses))
    return [poses[i] for i in order]


class _Infeasible(Exception):
    pass


def _triangle_cells(pose: GridPose, shape, eval_params: EvalParams):
    tri = ViewTriangle(
        apex=pose.position,
        heading=pose.heading,
        fov_deg=eval_params.fov_deg,
        range_cells=eval_params.range_cells,
    )
    return cells_in_triangle(tri, shape)


def _generate_once(
    spec: WorldSpec, seed_key, scene_id: str
) -> tuple[SceneGrid, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed_key)
    eval_params = EvalParams()
    layout = _build_layout(spec, rng)
    w, h = layout.shape
    total = w * h
    vocabulary = ActivityVocabulary()
    objects = _place_objects(layout, spec, rng)
    labels = _ground_truth(layout, objects, vocabulary)
    detections = _detections(layout, objects, spec, rng)
    o_scores = aggregate_object_scores((w, h), detections, len(CATEGORY_NAMES))
    p_scores = _scene_class_scores(layout, spec, rng)

    candidates = _candidate_poses(layout, objects, spec, rng)
    target_cells = (
        int(round(spec.target_explored_ratio * total))
        if spec.target_explored_ratio is not None
        else None
    )
    explored: set[Cell] = set()
    used_poses: list[GridPose] = []
    for pose in candidates:
        if target_cells is not None and len(explored) >= target_cells and used_poses:
            break
        explored.update(_triangle_cells(pose, (w, h), eval_params))
        used_poses.append(pose)
    if target_cells is not None:
        floor = layout.floor_cells()
        extra = 0
        while len(explored) < target_cells and extra < 300:
            cell = floor[int(rng.integers(len(floor)))]
            angle = rng.uniform(0.0, 2.0 * math.pi)
            pose = _pose_at(cell, (cell[0] + 0.5 + math.cos(angle), cell[1] + 0.5 + math.sin(angle)))
            explored.update(_triangle_cells(pose, (w, h), eval_params))
            used_poses.append(pose)
            extra += 1
        if len(explored) < target_cells - int(0.05 * total):
            raise _Infeasible("cannot reach the explored-ratio target")

    # make sure enough labelled (cell, activity) pairs are observable and
    # every labelled activity is observable somewhere
    def observable_pairs():
        return [
            (cell, act)
            for cell in sorted(labels)
            if cell in explored
            for act in sorted(labels[cell])
        ]

    gt_activities = sorted({a for acts in labels.values() for a in acts})
    guard = 0
    while guard < 200:
        covered = {act for _, act in observable_pairs()}
        missing = [a for a in gt_activities if a not in covered]
        enough = len(observable_pairs()) >= spec.n_demonstrations and not missing
        if enough:
            break
        if missing:
            unseen = [c for c in sorted(labels) if c not in explored and missing[0] in labels[c]]
        else:
            unseen = [c for c in sorted(labels) if c not in explored]
        if not unseen:
            break
        cell = unseen[int(rng.integers(len(unseen)))]
        pose = _pose_at(cell, (cell[0] + 1.5, cell[1] + 0.5))
        explored.update(_triangle_cells(pose, (w, h), eval_params))
        used_poses.append(pose)
        guard += 1
    pairs_avail = observable_pairs()
    if len(pairs_avail) < spec.n_demonstrations:
        raise _Infeasible(
            f"only {len(pairs_avail)} observable labelled pairs for "
            f"{spec.n_demonstrations} demonstrations"
        )

    # demonstrations cover every observable activity, then favor cells with
    # the richest affordance sets
    cell_list = sorted({cell for cell, _ in pairs_avail})
    order = rng.permutation(len(cell_list))
    shuffled = [cell_list[i] for i in order]
    shuffled.sort(key=lambda c: -len(labels[c]))
    chosen: list[Cell] = []
    count = 0
    for act in gt_activities:
        if any(act in labels[c] for c in chosen):
            continue
        with_act = [c for c in shuffled if act in labels[c] and c not in chosen]
        if with_act:
            chosen.append(with_act[0])
            count += len(labels[with_act[0]])
    cover_pairs = [(cell, act) for cell in chosen for act in sorted(labels[cell])]
    for cell in shuffled:
        if count >= spec.n_demonstrations:
            break
        if cell in chosen:
            continue
        chosen.append(cell)
        count += len(labels[cell])
    extra = [
        (cell, act)
        for cell in chosen
        for act in sorted(labels[cell])
        if (cell, act) not in set(cover_pairs)
    ]
    pair_order = rng.permutation(len(extra))
    pairs = (cover_pairs + [extra[i] for i in pair_order])[: spec.n_demonstrations]

    demo_cells = _jitter_pairs(pairs, layout, spec, rng)

    if spec.target_action_ratio is not None:
        ratio = len({cell for cell, _ in demo_cells}) / total
        if abs(ratio - spec.target_action_ratio) > 0.009:
            raise _Infeasible(f"action-cell ratio {ratio:.3f} off target")
    if spec.target_explored_ratio is not None:
        final_explored = explored | {cell for cell, _ in demo_cells}
        if abs(len(final_explored) / total - spec.target_explored_ratio) > 0.045:
            raise _Infeasible("explored ratio off target after demonstrations")

    scene = SceneGrid(scene_id, w, h, vocabulary=vocabulary)
    for cell, acts in labels.items():
        for a in acts:
            scene.add_label(cell, a)
    for cell in explored:
        scene.mark_explored(cell)
    for pose in used_poses:
        scene.add_pose(pose)
    for (cell, act) in demo_cells:
        scene.add_demonstration(Demonstration(scene_id, cell, act, 1.0))

    p_q = np.array([[q9(v) for v in row] for row in p_scores])
    o_q = np.array([[q9(v) for v in row] for row in o_scores])
    return scene, p_q, o_q


def _jitter_pairs(pairs, layout: _Layout, spec: WorldSpec, rng: np.random.Generator):
    """Perturb demonstration cells by the localization error model.

    All pairs sharing a source cell were observed from the same viewpoint, so
    they share one offset draw; (cell, activity) pairs stay distinct and on
    floor cells.
    """
    w, h = layout.shape
    used: set[tuple[Cell, int]] = set()
    out: list[tuple[Cell, int]] = []
    floor = set(layout.floor_cells())
    offsets: dict[Cell, Cell] = {}
    for cell, act in pairs:
        if cell not in offsets:
            moved = cell
            if spec.localization_jitter > 0:
                for _ in range(50):
                    di, dj = np.rint(
                        rng.normal(0.0, spec.localization_jitter, 2)
                    ).astype(int)
                    cand = (cell[0] + int(di), cell[1] + int(dj))
                    if cand in floor:
                        moved = cand
                        break
            offsets[cell] = moved
        placed = offsets[cell]
        if (placed, act) in used:
            if (cell, act) not in used:
                placed = cell
            else:
                placed = _nearest_free(cell, act, floor, used, (w, h))
        used.add((placed, act))
        out.append((placed, act))
    return out


def _nearest_free(cell, act, floor, used, shape):
    w, h = shape
    for radius in range(1, max(w, h)):
        for i in range(cell[0] - radius, cell[0] + radius + 1):
            for j in range(cell[1] - radius, cell[1] + radius + 1):
                cand = (i, j)
                if cand in floor and (cand, act) not in used:
                    return cand
    raise _Infeasible("no free cell for a demonstration")


def generate_scene(
    spec: WorldSpec, seed: int, scene_id: str = "scene"
) -> tuple[SceneGrid, np.ndarray, np.ndarray]:
    """Generate one scene with its (P, O) feature arrays; deterministic in
    seed, retrying with derived sub-seeds when a layout is infeasible."""
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
    identical_layouts: bool = False,
) -> GeneratedDataset:
    """Generate scenes sharing vocabularies and feature channels.

    identical_layouts replays the same sub-seed for every scene (useful for
    controlled experiments); otherwise layouts are randomized per scene.
    """
    scenes = []
    features = {}
    for k in range(n_scenes):
        scene_seed = seed if identical_layouts else seed + 1000 * k
        scene_id = f"{scene_prefix}_{chr(ord('a') + k)}" if n_scenes > 1 else scene_prefix
        scene, p, o = generate_scene(spec, scene_seed, scene_id)
        scenes.append(scene)
        features[scene_id] = (p, o)
    return GeneratedDataset(scenes=scenes, features=features, catmap=default_category_activity_map())


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
