"""Discretized scene grids, activity demonstrations, and multi-scene stacking.

A scene is a rectangular grid of square floor cells. Cells are addressed as
(i, j) with 0 <= i < width and 0 <= j < height, and enumerated in row-major
order (i outer, j inner), which also fixes the row order of the stacked
location-by-activity matrix. Only this module computes that order; the others
pass row indices and read coordinates from grid_coords.
"""

from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Optional, Sequence, Union, get_args, get_origin

import numpy as np

DEFAULT_ACTIVITIES = ("sit", "type", "open-door", "read", "write-whiteboard", "wash")
DEFAULT_CELL_SIZE_M = 0.25

Cell = tuple[int, int]


class SceneError(ValueError):
    """Invalid scene construction."""


_FIELD_KINDS = {int: (Integral, "an integer"), float: (Real, "a number"), str: (str, "a string")}


def check_field_types(record, error: type[ValueError]) -> None:
    """Raise error, naming the field, where a dataclass record holds a value
    outside its annotation: int fields take integers, float fields real
    numbers, str fields strings, and none takes a bool. Optional[T] fields
    also take None, and tuple[T1, ..., Tn] fields a tuple or list of n
    values of those types. A float count would reach numpy as a bare
    TypeError, and True would count as 1. The message says what the field
    takes: its metadata's "takes", or else the noun of its type."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not _takes(f.type, value):
            noun = f.metadata.get("takes") or _FIELD_KINDS[_scalar_type(f.type)][1]
            raise error(f"{f.name} must be {noun}, got {value!r}")


def _scalar_type(annotation):
    """T of Optional[T] or tuple[T, ...], or the annotation itself."""
    args = get_args(annotation)
    return args[0] if args else annotation


def _takes(annotation, value) -> bool:
    """Whether value fits the annotation (see check_field_types)."""
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Union:  # Optional[T]
        return value is None or _takes(args[0], value)
    if origin is tuple:
        return (isinstance(value, (tuple, list)) and len(value) == len(args)
                and all(map(_takes, args, value)))
    kind = _FIELD_KINDS[annotation][0]
    return isinstance(value, kind) and not isinstance(value, bool)


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

    def check(self, activity: int) -> int:
        """The activity index itself, if it names an activity."""
        if not 0 <= activity < len(self.names):
            raise SceneError(f"activity index {activity} out of range for A={len(self.names)}")
        return activity


def _read_only(values, dtype) -> np.ndarray:
    """A read-only copy of values."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Demonstrations:
    """A scene's localized activity observations, in order, as three read-only
    arrays: observation k is activity activities[k] at scene row rows[k] with
    value values[k], which is 1.0 for a labelled demonstration and the
    detector confidence in [0, 1] for a detection."""

    rows: np.ndarray
    activities: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name, dtype in (("rows", int), ("activities", int), ("values", float)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        if self.rows.ndim != 1 or not self.rows.shape == self.activities.shape == self.values.shape:
            raise SceneError("demonstration rows, activities and values must be 1-d, of one length")
        negative = self.values[~(self.values >= 0)]  # written so that NaN fails
        if negative.size:
            raise SceneError(f"demonstration value must be >= 0, got {negative[0]}")

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, indices) -> "Demonstrations":
        """The observations at the given positions, in that order."""
        return Demonstrations(self.rows[indices], self.activities[indices], self.values[indices])


@dataclass(frozen=True)
class GridPose:
    """Camera pose in grid coordinates: continuous position plus unit heading."""

    position: tuple[float, float]
    heading: tuple[float, float]

    def __post_init__(self):
        norm = float(np.hypot(*self.heading))
        if not abs(norm - 1.0) <= 1e-6:  # written so that NaN fails
            raise SceneError(f"heading must be a unit vector, norm={norm}")


class SceneGrid:
    """A discretized floor, fixed when it is built. explored is the (n_cells,)
    explored mask and labels the boolean (n_cells, A) ground truth, both in
    row order; poses are the camera poses. Every array is a read-only copy,
    and every demonstrated row counts as explored."""

    def __init__(
        self,
        scene_id: str,
        width: int,
        height: int,
        cell_size_m: float = DEFAULT_CELL_SIZE_M,
        vocabulary: Optional[ActivityVocabulary] = None,
        explored: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        demonstrations: Optional[Demonstrations] = None,
        poses: Sequence[GridPose] = (),
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
        n, n_act = self.n_cells, self.n_activities
        labels = _read_only(np.zeros((n, n_act)) if labels is None else labels, bool)
        explored = np.array(np.zeros(n) if explored is None else explored, dtype=bool)
        for name, array, shape in (("labels", labels, (n, n_act)), ("explored", explored, (n,))):
            if array.shape != shape:
                raise SceneError(f"{name} must have shape {shape}, got {array.shape}")
        demos = Demonstrations((), (), ()) if demonstrations is None else demonstrations
        for name, values, stop in (("row", demos.rows, n), ("activity", demos.activities, n_act)):
            outside = values[(values < 0) | (values >= stop)]
            if outside.size:
                raise SceneError(f"demonstration {name} {outside[0]} outside [0, {stop})")
        # a set, not np.unique or np.sort: on a CLI run these raised peak RSS
        # by about 1 and 0.3 MiB (np.unique imports numpy.ma)
        if len(set(zip(demos.rows.tolist(), demos.activities.tolist()))) != len(demos):
            raise SceneError("each (row, activity) pair may be demonstrated once")
        explored[demos.rows] = True
        explored.setflags(write=False)
        self.explored, self.labels = explored, labels
        self.demonstrations = demos
        self.poses = tuple(poses)

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    @property
    def n_activities(self) -> int:
        return len(self.vocabulary)

    def row_of(self, cell: Cell) -> int:
        i, j = cell
        if not (0 <= i < self.width and 0 <= j < self.height):
            raise SceneError(f"cell {cell} outside {self.width}x{self.height} grid")
        return i * self.height + j

    def labelled_cells(self) -> list[tuple[Cell, tuple[int, ...]]]:
        """(cell, sorted activities) of every labelled cell, in row order."""
        coords = grid_coords(self.width, self.height).tolist()
        return [
            (tuple(coords[row]), tuple(np.flatnonzero(self.labels[row]).tolist()))
            for row in np.flatnonzero(self.labels.any(axis=1))
        ]

    def with_demonstrations(self, demonstrations: Demonstrations) -> "SceneGrid":
        """This scene with the given demonstrations in place of its own."""
        return SceneGrid(
            self.scene_id, self.width, self.height, self.cell_size_m, self.vocabulary,
            self.explored, self.labels, demonstrations, self.poses,
        )


class GlobalIndex:
    """Bijection between global matrix rows and (scene, cell) pairs.

    Scenes are stacked in the given order, cells in row-major order within
    each scene.
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

    def rows_of(self, scene_id: str) -> slice:
        scene = self.scene(scene_id)
        off = self.offsets[scene_id]
        return slice(off, off + scene.n_cells)
