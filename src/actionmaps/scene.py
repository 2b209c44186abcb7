"""Discretized scene grids, activity demonstrations, and multi-scene stacking.

A scene is a rectangular grid of square floor cells. Cells are addressed as
(i, j) with 0 <= i < width and 0 <= j < height, and enumerated in row-major
order (i outer, j inner), which also fixes the row order of the stacked
location-by-activity matrix. Only this module computes that order; the others
pass row indices and read coordinates from grid_coords.
"""

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_ACTIVITIES = ("sit", "type", "open-door", "read", "write-whiteboard", "wash")
DEFAULT_CELL_SIZE_M = 0.25

Cell = tuple[int, int]


class SceneError(ValueError):
    """Invalid scene construction or mutation."""


def grid_coords(width: int, height: int) -> np.ndarray:
    """The (i, j) of every row of a width x height grid, as (n_cells, 2) ints."""
    return np.indices((width, height)).reshape(2, -1).T


@dataclass(frozen=True)
class ActivityVocabulary:
    """Ordered activity labels shared by all scenes of a dataset."""

    names: tuple[str, ...] = DEFAULT_ACTIVITIES

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise SceneError(f"duplicate activity names: {self.names}")
        if not self.names:
            raise SceneError("vocabulary must contain at least one activity")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SceneError(f"unknown activity {name!r}") from None


@dataclass(frozen=True)
class Demonstration:
    """One localized activity observation.

    value is 1.0 for a labelled demonstration and the detector confidence in
    [0, 1] for a detection.
    """

    scene_id: str
    cell: Cell
    activity: int
    value: float = 1.0

    def __post_init__(self):
        if not self.value >= 0:  # written so that NaN fails
            raise SceneError(f"demonstration value must be >= 0, got {self.value}")


@dataclass(frozen=True)
class GridPose:
    """Camera pose in grid coordinates: continuous position plus unit heading."""

    position: tuple[float, float]
    heading: tuple[float, float]

    def __post_init__(self):
        norm = float(np.hypot(*self.heading))
        if not abs(norm - 1.0) <= 1e-6:  # written so that NaN fails
            raise SceneError(f"heading must be a unit vector, norm={norm}")


@dataclass(frozen=True)
class SceneStats:
    """Sparsity statistics: explored ratio, action-cell ratio, demo count."""

    r_e: float
    r_a: float
    demo_count: int


class SceneGrid:
    """Discretized floor with an explored (width, height) mask, ground-truth
    labels as a boolean (n_cells, A) matrix in row order, and demos."""

    def __init__(
        self,
        scene_id: str,
        width: int,
        height: int,
        cell_size_m: float = DEFAULT_CELL_SIZE_M,
        vocabulary: Optional[ActivityVocabulary] = None,
    ):
        if width < 1 or height < 1:
            raise SceneError(f"grid dims must be >= 1, got {width}x{height}")
        if not cell_size_m > 0:
            raise SceneError(f"cell size must be positive, got {cell_size_m}")
        self.scene_id = scene_id
        self.width = int(width)
        self.height = int(height)
        self.cell_size_m = float(cell_size_m)
        self.vocabulary = vocabulary or ActivityVocabulary()
        self.explored = np.zeros((self.width, self.height), dtype=bool)
        self.labels = np.zeros((self.n_cells, self.n_activities), dtype=bool)
        self.poses: list[GridPose] = []
        self._demos: dict[tuple[Cell, int], float] = {}
        self._frozen = False

    # -- geometry of the index space ------------------------------------

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    @property
    def n_activities(self) -> int:
        return len(self.vocabulary)

    def in_bounds(self, cell: Cell) -> bool:
        i, j = cell
        return 0 <= i < self.width and 0 <= j < self.height

    def row_of(self, cell: Cell) -> int:
        if not self.in_bounds(cell):
            raise SceneError(f"cell {cell} outside {self.width}x{self.height} grid")
        return cell[0] * self.height + cell[1]

    def cell_of(self, row: int) -> Cell:
        if not 0 <= row < self.n_cells:
            raise SceneError(f"row {row} outside scene with {self.n_cells} cells")
        return (row // self.height, row % self.height)

    # -- mutation ---------------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise SceneError(f"scene {self.scene_id!r} is frozen after stacking")

    def mark_explored(self, cell: Cell):
        self._check_mutable()
        if not self.in_bounds(cell):
            raise SceneError(f"cell {cell} outside {self.width}x{self.height} grid")
        self.explored[cell] = True

    def add_label(self, cell: Cell, activity: int):
        self._check_mutable()
        row = self.row_of(cell)
        if not 0 <= activity < self.n_activities:
            raise SceneError(
                f"activity index {activity} out of range for A={self.n_activities}"
            )
        self.labels[row, activity] = True

    def add_demonstration(self, demo: Demonstration):
        """Register a demonstration; marks its cell explored.

        Duplicate (cell, activity) pairs keep the maximum value.
        """
        self._check_mutable()
        if demo.scene_id != self.scene_id:
            raise SceneError(
                f"demonstration for scene {demo.scene_id!r} added to {self.scene_id!r}"
            )
        if not 0 <= demo.activity < self.n_activities:
            raise SceneError(
                f"activity index {demo.activity} out of range for A={self.n_activities}"
            )
        self.mark_explored(demo.cell)
        key = (demo.cell, demo.activity)
        prev = self._demos.get(key)
        if prev is None or demo.value > prev:
            self._demos[key] = demo.value

    def add_pose(self, pose: GridPose):
        self._check_mutable()
        self.poses.append(pose)

    def freeze(self):
        """Forbid mutation, through the methods and through the arrays."""
        self._frozen = True
        self.explored.setflags(write=False)
        self.labels.setflags(write=False)

    # -- queries ----------------------------------------------------------

    @property
    def demonstrations(self) -> tuple[Demonstration, ...]:
        return tuple(
            Demonstration(self.scene_id, cell, act, value)
            for (cell, act), value in self._demos.items()
        )

    def labelled_cells(self) -> list[tuple[Cell, tuple[int, ...]]]:
        """(cell, sorted activities) of every labelled cell, in row order."""
        coords = grid_coords(self.width, self.height).tolist()
        return [
            (tuple(coords[row]), tuple(np.flatnonzero(self.labels[row]).tolist()))
            for row in np.flatnonzero(self.labels.any(axis=1))
        ]

    def explored_rows(self) -> np.ndarray:
        return self.explored.reshape(-1).copy()

    def stats(self) -> SceneStats:
        total = self.n_cells
        action_cells = {cell for (cell, _act) in self._demos}
        return SceneStats(
            r_e=float(self.explored.sum()) / total,
            r_a=len(action_cells) / total,
            demo_count=len(self._demos),
        )

    def copy_with_demonstrations(self, demos: Sequence[Demonstration]) -> "SceneGrid":
        """Unfrozen copy with the same mask/labels/poses and the given demos."""
        out = SceneGrid(
            self.scene_id, self.width, self.height, self.cell_size_m, self.vocabulary
        )
        out.explored = self.explored.copy()
        out.labels = self.labels.copy()
        out.poses = list(self.poses)
        for demo in demos:
            out.add_demonstration(demo)
        return out


def create_scene(
    width: int,
    height: int,
    cell_size_m: float = DEFAULT_CELL_SIZE_M,
    gt_spec: Optional[Iterable[tuple[Cell, Iterable[int]]]] = None,
    scene_id: str = "scene",
    vocabulary: Optional[ActivityVocabulary] = None,
) -> SceneGrid:
    """Build a grid with an empty explored mask and labels from gt_spec."""
    scene = SceneGrid(scene_id, width, height, cell_size_m, vocabulary)
    for cell, acts in gt_spec or ():
        for a in acts:
            scene.add_label(cell, a)
    return scene


class GlobalIndex:
    """Bijection between global matrix rows and (scene, cell) pairs.

    Scenes are stacked in the given order, cells in row-major order within
    each scene. Building the index freezes the scenes.
    """

    def __init__(self, scenes: Sequence[SceneGrid]):
        if not scenes:
            raise SceneError("cannot stack zero scenes")
        names = scenes[0].vocabulary.names
        for scene in scenes[1:]:
            if scene.vocabulary.names != names:
                raise SceneError(
                    f"scene {scene.scene_id!r} has a different activity vocabulary"
                )
        ids = [s.scene_id for s in scenes]
        if len(set(ids)) != len(ids):
            raise SceneError(f"duplicate scene ids: {ids}")
        self.scenes = tuple(scenes)
        self.offsets: dict[str, int] = {}
        off = 0
        for scene in scenes:
            self.offsets[scene.scene_id] = off
            off += scene.n_cells
            scene.freeze()
        self.total_rows = off

    @property
    def vocabulary(self) -> ActivityVocabulary:
        return self.scenes[0].vocabulary

    def scene(self, scene_id: str) -> SceneGrid:
        for scene in self.scenes:
            if scene.scene_id == scene_id:
                return scene
        raise SceneError(f"unknown scene {scene_id!r}")

    def row(self, scene_id: str, cell: Cell) -> int:
        return self.offsets[scene_id] + self.scene(scene_id).row_of(cell)

    def location(self, row: int) -> tuple[str, Cell]:
        if not 0 <= row < self.total_rows:
            raise SceneError(f"row {row} outside global index of size {self.total_rows}")
        for scene in reversed(self.scenes):
            off = self.offsets[scene.scene_id]
            if row >= off:
                return scene.scene_id, scene.cell_of(row - off)
        raise AssertionError("unreachable")

    def rows_of(self, scene_id: str) -> slice:
        scene = self.scene(scene_id)
        off = self.offsets[scene_id]
        return slice(off, off + scene.n_cells)
