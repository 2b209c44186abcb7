"""Line-oriented, whitespace-delimited file formats, and every output file the
commands write (reports, tables, curves, greymaps).

Every document starts with a schema-version line and ends with `end`. All
numeric output uses 9 significant digits; generated data is quantized to that
precision at creation, so write/read round-trips are exact and every file is
byte-deterministic given a seed.
"""

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from actionmaps.baselines import CategoryActivityMap
from actionmaps.evaluation import SUMMARY_METRICS, ScoreResult
from actionmaps.experiments import EvalReport, TransferReport
from actionmaps.localization import DiscrepancyCurve
from actionmaps.scene import (
    ActivityVocabulary, Demonstrations, GlobalIndex, GridPose, SceneGrid, grid_coords
)
from actionmaps.sideinfo import LocationFeatures
from actionmaps.solver import FactorPair, FitResult
from actionmaps.textfmt import fmt9

SCENE_SCHEMA = "amscene 1"
DATASET_SCHEMA = "amdataset 1"
CATMAP_SCHEMA = "amcatmap 1"
FACTORS_SCHEMA = "amfactors 1"
ACTIONMAP_SCHEMA = "amactionmap 1"
SUMMARY_HEADERS = ("W. Max F1", "W. Mean F1", "Max F1", "Mean F1")


class SchemaError(ValueError):
    """Malformed or version-mismatched document, with file/line context."""

    def __init__(self, path, lineno: int, msg: str):
        super().__init__(f"{path}:{lineno}: {msg}")
        self.path = path
        self.lineno = lineno


class _Reader:
    def __init__(self, path):
        self.path = path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                self.lines = fh.read().splitlines()
        except OSError as exc:
            raise SchemaError(path, 0, f"cannot read file: {exc}") from exc
        self.pos = 0

    def __enter__(self) -> "_Reader":
        return self

    def __exit__(self, exc_type, exc, tb):
        # a value that the objects built from the document reject (SceneError,
        # BaselineError, numpy shape errors) is reported at the line holding it
        if isinstance(exc, ValueError) and not isinstance(exc, SchemaError):
            raise self.error(str(exc)) from exc
        return False

    def error(self, msg: str) -> SchemaError:
        return SchemaError(self.path, self.pos, msg)

    def next(self) -> list[str]:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            tokens = line.split()
            if tokens:
                return tokens
        raise SchemaError(self.path, self.pos, "unexpected end of file")

    def expect(self, tag: str) -> list[str]:
        tokens = self.next()
        if tokens[0] != tag:
            raise self.error(f"expected section {tag!r}, found {tokens[0]!r}")
        return tokens[1:]

    def expect_end(self):
        """The closing `end` line, after which only blank lines may follow."""
        if self.expect("end"):
            raise self.error("'end' takes no values")
        while self.pos < len(self.lines):
            self.pos += 1
            if self.lines[self.pos - 1].strip():
                raise self.error("content after 'end'")

    def expect_value(self, tag: str) -> str:
        """The single value of a `tag value` line."""
        tokens = self.expect(tag)
        if len(tokens) != 1:
            raise self.error(f"{tag!r} needs exactly one value, found {len(tokens)}")
        return tokens[0]

    def expect_count(self, tag: str) -> int:
        """The entry count of a `tag n` section header."""
        n = self.int_(self.expect_value(tag))
        if n < 0:
            raise self.error(f"{tag!r} count must be >= 0, found {n}")
        return n

    def expect_names(self, tag: str) -> tuple[str, ...]:
        """The names of a `tag n name_1 ... name_n` line."""
        tokens = self.expect(tag)
        if not tokens:
            raise self.error(f"{tag!r} needs a count")
        n = self.int_(tokens[0])
        if len(tokens) != n + 1:
            raise self.error(f"{tag!r} announces {n} names, found {len(tokens) - 1}")
        return tuple(tokens[1:])

    def check_schema(self, schema: str):
        tokens = self.next()
        if " ".join(tokens) != schema:
            raise self.error(
                f"schema-version mismatch: expected {schema!r}, found {' '.join(tokens)!r}"
            )

    def int_(self, tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise self.error(f"expected an integer, found {tok!r}") from None

    def float_(self, tok: str) -> float:
        try:
            value = float(tok)
        except ValueError:
            raise self.error(f"expected a number, found {tok!r}") from None
        if not math.isfinite(value):
            raise self.error(f"expected a finite number, found {tok!r}")
        return value

    def entries(self, n: int, width: Optional[int] = None, need: str = ""):
        """The tokens of each of the next n lines, yielded while that line is
        current, so an error raised on them names it. A line with other than
        width tokens (None: any count) fails with `{need} need N values`."""
        for _ in range(n):
            tokens = self.next()
            if width is not None and len(tokens) != width:
                noun = "value" if width == 1 else "values"
                raise self.error(f"{need} need {width} {noun}, found {len(tokens)}")
            yield tokens

    def cell(self, grid: SceneGrid, i: str, j: str) -> int:
        """The row of the cell `i j` of grid."""
        return grid.row_of((self.int_(i), self.int_(j)))

    def values(self, tokens: Sequence[str], what: str) -> list[float]:
        """Finite numbers >= 0, one per token."""
        try:
            values = list(map(float, tokens))
        except ValueError:
            values = None
        if values is None or not math.isfinite(sum(values)):
            values = [self.float_(t) for t in tokens]  # names the first bad token
        if min(values, default=0.0) < 0:
            raise self.error(f"{what} must be >= 0, got {min(values)}")
        return values


def _check_token(name: str):
    if not name or any(c.isspace() for c in name):
        raise ValueError(f"names in documents cannot be empty or contain spaces: {name!r}")


def _write_text(path, lines: list[str]):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


class GenerationError(ValueError):
    """Invalid world spec, infeasible layout or demonstration fraction."""


@dataclass
class GeneratedDataset:
    """Scenes plus their per-cell feature arrays, the true category map and
    the names of the feature channels."""

    scenes: list[SceneGrid]
    features: dict[str, tuple[np.ndarray, np.ndarray]]  # scene_id -> (P, O)
    catmap: CategoryActivityMap
    class_names: tuple[str, ...]
    category_names: tuple[str, ...]
    _index: Optional[GlobalIndex] = field(default=None, repr=False)

    @property
    def vocabulary(self) -> ActivityVocabulary:
        return self.scenes[0].vocabulary

    def index(self) -> GlobalIndex:
        if self._index is None:
            self._index = GlobalIndex(self.scenes)
        return self._index

    def location_features(self) -> LocationFeatures:
        """Stacked side-information of every cell, in global row order."""
        coords = [grid_coords(s.width, s.height) for s in self.scenes]
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

    def stacked_explored(self) -> np.ndarray:
        return np.concatenate([s.explored for s in self.scenes])

    def with_demo_fraction(self, fraction: float, seed: int) -> "GeneratedDataset":
        scenes = [
            s.with_demonstrations(sample_demonstrations(s, fraction, seed)) for s in self.scenes
        ]
        return GeneratedDataset(
            scenes=scenes,
            features=self.features,
            catmap=self.catmap,
            class_names=self.class_names,
            category_names=self.category_names,
        )


def sample_demonstrations(scene: SceneGrid, fraction: float, seed: int) -> Demonstrations:
    """Seeded prefix sample: the 10% subset is contained in the 80% subset."""
    if not 0.0 <= fraction <= 1.0:
        raise GenerationError(f"fraction must be in [0, 1], got {fraction}")
    if seed < 0:
        raise GenerationError(f"seed must be >= 0, got {seed}")
    demos = scene.demonstrations
    order = np.random.default_rng(seed).permutation(len(demos))
    return demos.take(order[: int(round(fraction * len(demos)))])


# ---------------------------------------------------------------------------
# scene documents
# ---------------------------------------------------------------------------


def write_scene(
    scene: SceneGrid,
    p_scores: np.ndarray,
    o_scores: np.ndarray,
    class_names: Sequence[str],
    category_names: Sequence[str],
    path,
):
    n_classes = len(class_names)
    n_categories = len(category_names)
    if p_scores.shape != (scene.n_cells, n_classes):
        raise ValueError(f"scene-class scores must be {(scene.n_cells, n_classes)}")
    if o_scores.shape != (scene.n_cells, n_categories):
        raise ValueError(f"object scores must be {(scene.n_cells, n_categories)}")
    for name in (scene.scene_id, *scene.vocabulary.names, *class_names, *category_names):
        _check_token(name)
    lines = [
        SCENE_SCHEMA,
        f"scene {scene.scene_id}",
        f"dims {scene.width} {scene.height} {fmt9(scene.cell_size_m)}",
        f"activities {scene.n_activities} " + " ".join(scene.vocabulary.names),
        f"classes {n_classes} " + " ".join(class_names),
        f"categories {n_categories} " + " ".join(category_names),
    ]
    coords = grid_coords(scene.width, scene.height)
    explored = coords[scene.explored].tolist()
    lines.append(f"explored {len(explored)}")
    lines.extend(f"{i} {j}" for i, j in explored)
    labelled = scene.labelled_cells()
    lines.append(f"gt {len(labelled)}")
    for (i, j), acts in labelled:
        lines.append(f"{i} {j} {len(acts)} " + " ".join(str(a) for a in acts))
    demos = scene.demonstrations
    lines.append(f"demos {len(demos)}")
    for (i, j), act, value in zip(
        coords[demos.rows].tolist(), demos.activities.tolist(), demos.values.tolist()
    ):
        lines.append(f"{i} {j} {act} {fmt9(value)}")
    lines.append(f"poses {len(scene.poses)}")
    for pose in scene.poses:
        lines.append(
            f"{fmt9(pose.position[0])} {fmt9(pose.position[1])} "
            f"{fmt9(pose.heading[0])} {fmt9(pose.heading[1])}"
        )
    lines.append(f"features {scene.n_cells}")
    for (i, j), p_row, o_row in zip(coords.tolist(), p_scores, o_scores):
        vals = [fmt9(v) for v in p_row] + [fmt9(v) for v in o_row]
        lines.append(f"{i} {j} " + " ".join(vals))
    lines.append("end")
    _write_text(path, lines)


def read_scene(path):
    """Returns (scene, P, O, class_names, category_names)."""
    with _Reader(path) as r:
        r.check_schema(SCENE_SCHEMA)
        scene_id = r.expect_value("scene")
        dims = r.expect("dims")
        if len(dims) != 3:
            raise r.error("dims needs width, height, cell size")
        width, height = r.int_(dims[0]), r.int_(dims[1])
        cell_size = r.float_(dims[2])
        # an empty scene of the declared shape checks the dims, then each cell, at its line
        grid = SceneGrid(scene_id, width, height, cell_size)
        vocab = ActivityVocabulary(r.expect_names("activities"))
        class_names = r.expect_names("classes")
        category_names = r.expect_names("categories")
        n_classes, n_categories = len(class_names), len(category_names)
        n_cells = grid.n_cells
        explored = np.zeros(n_cells, dtype=bool)
        for i, j in r.entries(r.expect_count("explored"), 2, "explored entries"):
            explored[r.cell(grid, i, j)] = True
        labels = np.zeros((n_cells, len(vocab)), dtype=bool)
        for toks in r.entries(r.expect_count("gt")):
            if len(toks) < 3:
                raise r.error("gt entries need cell, count, and activity indices")
            k = r.int_(toks[2])
            if len(toks) != 3 + k:
                raise r.error(f"gt entry announces {k} labels but has {len(toks) - 3}")
            row = r.cell(grid, toks[0], toks[1])
            for tok in toks[3:]:
                labels[row, vocab.check(r.int_(tok))] = True
        demos: dict[tuple[int, int], float] = {}  # (row, activity) -> value, in file order
        for i, j, act, value in r.entries(r.expect_count("demos"), 4, "demo entries"):
            key = (r.cell(grid, i, j), vocab.check(r.int_(act)))
            (value,) = r.values([value], "demonstration value")
            if key not in demos or value > demos[key]:  # a repeated pair keeps its largest value
                demos[key] = value
        poses = [
            GridPose(position=(r.float_(x), r.float_(y)), heading=(r.float_(hx), r.float_(hy)))
            for x, y, hx, hy in r.entries(r.expect_count("poses"), 4, "pose entries")
        ]
        if r.expect_count("features") != n_cells:
            raise r.error(f"feature section must cover all {n_cells} cells")
        p_scores = np.zeros((n_cells, n_classes))
        o_scores = np.zeros((n_cells, n_categories))
        seen = np.zeros(n_cells, dtype=bool)
        for toks in r.entries(n_cells, 2 + n_classes + n_categories, "feature rows"):
            row = r.cell(grid, toks[0], toks[1])
            if seen[row]:
                raise r.error(f"duplicate feature row for cell {toks[0]},{toks[1]}")
            seen[row] = True
            vals = r.values(toks[2:], "feature scores")
            p_scores[row] = vals[:n_classes]
            o_scores[row] = vals[n_classes:]
        r.expect_end()
        pairs = np.array(list(demos), dtype=int).reshape(-1, 2)
        scene = SceneGrid(
            scene_id, width, height, cell_size, vocab, explored, labels,
            Demonstrations(pairs[:, 0], pairs[:, 1], list(demos.values())), poses,
        )
    return scene, p_scores, o_scores, class_names, category_names


# ---------------------------------------------------------------------------
# category-activity map and dataset manifests
# ---------------------------------------------------------------------------


def write_catmap(
    catmap: CategoryActivityMap,
    category_names: Sequence[str],
    activity_names: Sequence[str],
    path,
):
    for name in (*category_names, *activity_names):
        _check_token(name)
    lines = [
        CATMAP_SCHEMA,
        f"categories {len(category_names)} " + " ".join(category_names),
        f"activities {len(activity_names)} " + " ".join(activity_names),
        f"map {len(catmap.mapping)}",
    ]
    for cat in sorted(catmap.mapping):
        acts = sorted(catmap.mapping[cat])
        lines.append(
            f"{category_names[cat]} " + " ".join(activity_names[a] for a in acts)
        )
    lines.append("end")
    _write_text(path, lines)


def read_catmap(path):
    with _Reader(path) as r:
        r.check_schema(CATMAP_SCHEMA)
        category_names = r.expect_names("categories")
        activity_names = r.expect_names("activities")
        pairs: dict[str, list[str]] = {}
        for cat, *acts in r.entries(r.expect_count("map")):
            if cat not in category_names:
                raise r.error(f"unknown category {cat!r}")
            if cat in pairs:
                raise r.error(f"category {cat!r} is mapped twice")
            for a in acts:
                if a not in activity_names:
                    raise r.error(f"unknown activity {a!r}")
            pairs[cat] = acts
        r.expect_end()
        catmap = CategoryActivityMap.from_names(pairs, category_names, activity_names)
    return catmap, category_names, activity_names


def write_dataset(dataset: GeneratedDataset, outdir, name: str = "dataset") -> str:
    """Write all scene documents, the category map, and the manifest."""
    scene_files = []
    for scene in dataset.scenes:
        fname = f"{scene.scene_id}.scene"
        p, o = dataset.features[scene.scene_id]
        write_scene(
            scene, p, o, dataset.class_names, dataset.category_names,
            os.path.join(outdir, fname),
        )
        scene_files.append(fname)
    catmap_file = "catmap.txt"
    write_catmap(
        dataset.catmap,
        dataset.category_names,
        dataset.vocabulary.names,
        os.path.join(outdir, catmap_file),
    )
    manifest = os.path.join(outdir, f"{name}.txt")
    lines = [DATASET_SCHEMA, f"scenes {len(scene_files)}"]
    lines.extend(scene_files)
    lines.append(f"catmap {catmap_file}")
    lines.append("end")
    _write_text(manifest, lines)
    return manifest


def _read_named(read, manifest_path, lineno: int, base: str, fname: str):
    """read() of the file that a manifest line names, relative to base; a
    file that cannot be opened is reported at that manifest line."""
    try:
        return read(os.path.join(base, fname))
    except SchemaError as exc:
        if isinstance(exc.__cause__, OSError):
            raise SchemaError(manifest_path, lineno,
                              f"cannot read {fname!r}: {exc.__cause__}") from exc.__cause__
        raise


def load_dataset(manifest_path) -> GeneratedDataset:
    r = _Reader(manifest_path)
    r.check_schema(DATASET_SCHEMA)
    n_scenes = r.expect_count("scenes")
    if n_scenes == 0:
        raise r.error("a dataset needs at least one scene")
    base = os.path.dirname(os.path.abspath(manifest_path))
    # (file name, manifest line) of each scene
    scene_files = [(fname, r.pos) for (fname,) in r.entries(n_scenes, 1, "scene entries")]
    catmap_file = r.expect_value("catmap")
    catmap_line = r.pos
    r.expect_end()

    scenes = []
    features = {}
    names = None  # the first scene's class, category and activity names
    for fname, lineno in scene_files:
        scene, p, o, cls, cats = _read_named(read_scene, manifest_path, lineno, base, fname)
        if scene.scene_id in features:
            raise SchemaError(manifest_path, lineno, f"scene id {scene.scene_id!r} repeats")
        if names is None:
            names = (cls, cats, scene.vocabulary.names)
        elif (cls, cats, scene.vocabulary.names) != names:
            raise SchemaError(
                manifest_path, lineno,
                f"scene {scene.scene_id!r} uses different class/category/activity names",
            )
        scenes.append(scene)
        features[scene.scene_id] = (p, o)
    class_names, category_names, activity_names = names
    catmap, cats, acts = _read_named(read_catmap, manifest_path, catmap_line, base, catmap_file)
    if cats != category_names:
        raise SchemaError(manifest_path, catmap_line, "category map names do not match scenes")
    if acts != activity_names:
        raise SchemaError(manifest_path, catmap_line,
                          "category map activities do not match scenes")
    return GeneratedDataset(
        scenes=scenes,
        features=features,
        catmap=catmap,
        class_names=class_names,
        category_names=category_names,
    )


# ---------------------------------------------------------------------------
# factors, traces, action maps
# ---------------------------------------------------------------------------


def write_factors(factors: FactorPair, path):
    m, d = factors.U.shape
    a = factors.V.shape[0]
    lines = [FACTORS_SCHEMA, f"shape {m} {a} {d}", "U"]
    lines.extend(" ".join(fmt9(v) for v in row) for row in factors.U)
    lines.append("V")
    lines.extend(" ".join(fmt9(v) for v in row) for row in factors.V)
    lines.append("end")
    _write_text(path, lines)


def read_factors(path) -> FactorPair:
    with _Reader(path) as r:
        r.check_schema(FACTORS_SCHEMA)
        shape = r.expect("shape")
        if len(shape) != 3:
            raise r.error("shape needs M, A, D")
        m, a, d = (r.int_(t) for t in shape)
        if min(m, a, d) < 1:
            raise r.error(f"shape counts must be >= 1, found {m} {a} {d}")
        u = _read_factor_rows(r, "U", m, d)
        v = _read_factor_rows(r, "V", a, d)
        r.expect_end()
    return FactorPair(U=u, V=v)


def _read_factor_rows(r: _Reader, name: str, n: int, d: int) -> np.ndarray:
    """The section `name`: a line holding only its name, then n rows of d
    non-negative values; a bad row fails at its own line."""
    if r.next() != [name]:
        raise r.error(f"expected section {name!r}")
    return np.array([r.values(row, f"{name} values") for row in r.entries(n, d, f"{name} rows")])


def describe_fit(result: FitResult) -> str:
    return (
        f"iterations={len(result.trace) - 1} "
        f"objective={fmt9(result.trace[-1])} stop={result.stop_reason}"
    )


def write_trace(trace: np.ndarray, path):
    lines = ["iteration\tobjective"]
    lines.extend(f"{k}\t{fmt9(j)}" for k, j in enumerate(trace))
    _write_text(path, lines)


def write_action_map(am: np.ndarray, index, path):
    """Normalized action map with scene/cell row labels."""
    names = index.vocabulary.names
    lines = [
        ACTIONMAP_SCHEMA,
        f"activities {len(names)} " + " ".join(names),
        f"rows {index.total_rows}",
    ]
    for scene in index.scenes:
        coords = grid_coords(scene.width, scene.height).tolist()
        for (i, j), values in zip(coords, am[index.rows_of(scene.scene_id)]):
            vals = " ".join(fmt9(v) for v in values)
            lines.append(f"{scene.scene_id} {i} {j} {vals}")
    lines.append("end")
    _write_text(path, lines)


def read_action_map(path, index) -> np.ndarray:
    with _Reader(path) as r:
        r.check_schema(ACTIONMAP_SCHEMA)
        names = r.expect_names("activities")
        if names != index.vocabulary.names:
            raise r.error("action map activities do not match the dataset")
        n_act = len(names)
        n_rows = r.expect_count("rows")
        if n_rows != index.total_rows:
            raise r.error(
                f"action map has {n_rows} rows, dataset expects {index.total_rows}"
            )
        am = np.zeros((index.total_rows, n_act))
        seen = np.zeros(index.total_rows, dtype=bool)
        for toks in r.entries(index.total_rows, 3 + n_act, "action map rows"):
            if toks[0] not in index.offsets:
                raise r.error(f"unknown scene {toks[0]!r}")
            row = index.row(toks[0], (r.int_(toks[1]), r.int_(toks[2])))
            if seen[row]:
                raise r.error(f"duplicate action map row for {toks[0]} {toks[1]},{toks[2]}")
            seen[row] = True
            am[row] = r.values(toks[3:], "action map values")
        r.expect_end()
    return am


# ---------------------------------------------------------------------------
# reports, curves, heatmaps
# ---------------------------------------------------------------------------


def write_evaluation(scores: ScoreResult, activity_names: Sequence[str], txt_path, tsv_path):
    """Per-activity and summary F1 of one scored map, as text and as TSV."""
    summary = scores.summary()
    lines = [f"{'activity':<18}{'Max F1':>12}{'Mean F1':>12}{'GT count':>12}"]
    for a, name in enumerate(activity_names):
        lines.append(
            f"{name:<18}{fmt9(scores.per_activity_max[a]):>12}"
            f"{fmt9(scores.per_activity_mean[a]):>12}{int(scores.gt_counts[a]):>12}"
        )
    lines.append("")
    for metric, header in zip(SUMMARY_METRICS, SUMMARY_HEADERS):
        lines.append(f"{header:<18}{fmt9(summary[metric]):>12}")
    _write_text(txt_path, lines)
    rows = ["metric\tvalue"]
    rows.extend(f"{m}\t{fmt9(summary[m])}" for m in SUMMARY_METRICS)
    for a, name in enumerate(activity_names):
        rows.append(f"max_f1[{name}]\t{fmt9(scores.per_activity_max[a])}")
        rows.append(f"mean_f1[{name}]\t{fmt9(scores.per_activity_mean[a])}")
    _write_text(tsv_path, rows)


def write_elapse(results: Sequence[tuple[float, ScoreResult]], path):
    """One summary row per demonstration fraction."""
    lines = ["fraction\t" + "\t".join(SUMMARY_METRICS)]
    for fraction, scores in results:
        summary = scores.summary()
        lines.append("\t".join([fmt9(fraction)] + [fmt9(summary[m]) for m in SUMMARY_METRICS]))
    _write_text(path, lines)


def format_summary_value(metric: str, stats: tuple[float, float, float]) -> str:
    mx, mean, std = stats
    if metric.endswith("max_f1"):
        return fmt9(mx)
    return f"{fmt9(mean)} +- {fmt9(std)}"


def write_report(report: EvalReport, tsv_path, txt_path):
    rows = ["variant\talpha\tlambda\tgamma\tseed\tw_max_f1\tw_mean_f1\tmax_f1\tmean_f1\terror"]
    for row in report.rows:
        if row.scores is None:
            vals = ["nan"] * 4
        else:
            s = row.scores.summary()
            vals = [fmt9(s[m]) for m in SUMMARY_METRICS]
        rows.append(
            "\t".join(
                [
                    row.variant,
                    fmt9(row.alpha),
                    fmt9(row.lam),
                    fmt9(row.gamma),
                    str(row.seed),
                    *vals,
                    row.error.replace("\t", " ").replace("\n", " "),
                ]
            )
        )
    _write_text(tsv_path, rows)

    title = "Cross-run summary (max for Max metrics, mean +- stdev for Mean metrics)"
    _write_text(txt_path, [title, "", *_summary_table("variant", {}, report)])


def write_transfer(report: TransferReport, txt_path, tsv_path):
    """Method table (baselines, then each variant's cross-run summary) at
    txt_path; the variants' grid report at tsv_path and txt_path.variants."""
    _write_text(txt_path, _summary_table("method", report.baselines, report.grid))
    write_report(report.grid, tsv_path, f"{txt_path}.variants")


def _summary_table(first: str, baselines: dict[str, ScoreResult], report: EvalReport) -> list[str]:
    """A 10-wide name column headed first and 34-wide cells under
    SUMMARY_HEADERS: a row per baseline's scores, then per variant's
    cross-run summary in report."""
    table = [(first, SUMMARY_HEADERS)]
    for method, scores in baselines.items():
        summary = scores.summary()
        table.append((method, [fmt9(summary[m]) for m in SUMMARY_METRICS]))
    for variant, stats in report.summaries().items():
        table.append((variant, [format_summary_value(m, stats[m]) for m in SUMMARY_METRICS]))
    return [f"{name:<10}" + "".join(f"{c:>34}" for c in cells) for name, cells in table]


def write_curve(curve: DiscrepancyCurve, activity_names: Sequence[str], path):
    lines = ["k\tactivity\tmean_discrepancy"]
    for act, values in curve.per_activity.items():
        for k, v in zip(curve.k_values, values):
            lines.append(f"{k}\t{activity_names[act]}\t{fmt9(v)}")
    for k, v in zip(curve.k_values, curve.aggregate):
        lines.append(f"{k}\tall\t{fmt9(v)}")
    _write_text(path, lines)


def write_heatmaps(am: np.ndarray, index: GlobalIndex, out_dir) -> list[str]:
    """Per scene, a cell-by-activity table and one greymap per activity;
    am must lie in [0, 1]. Returns the written paths."""
    names = index.vocabulary.names
    written = []
    for scene in index.scenes:
        am_scene = am[index.rows_of(scene.scene_id)]
        table = ["i\tj\t" + "\t".join(names)]
        for (i, j), values in zip(grid_coords(scene.width, scene.height).tolist(), am_scene):
            table.append(f"{i}\t{j}\t" + "\t".join(fmt9(v) for v in values))
        table_path = os.path.join(out_dir, f"{scene.scene_id}_am.tsv")
        _write_text(table_path, table)
        written.append(table_path)
        for a, name in enumerate(names):
            pgm_path = os.path.join(out_dir, f"{scene.scene_id}_{name}.pgm")
            write_pgm(am_scene[:, a].reshape(scene.width, scene.height), pgm_path)
            written.append(pgm_path)
    return written


def write_pgm(values: np.ndarray, path):
    """ASCII portable greymap; grey = round(255 * value), values in [0, 1]."""
    if not (values.min() >= 0 and values.max() <= 1):  # NaN fails too
        raise ValueError("heatmap values must lie in [0, 1]")
    width, height = values.shape
    grey = np.floor(values * 255.0 + 0.5).astype(int)
    lines = ["P2", f"{width} {height}", "255"]
    for j in range(height):
        lines.append(" ".join(str(grey[i, j]) for i in range(width)))
    _write_text(path, lines)
