import numpy as np
import pytest

from actionmaps.scene import ActivityVocabulary, Demonstrations, SceneGrid
from actionmaps.synthetic import PRESETS, generate_dataset


@pytest.fixture(scope="session")
def mini_dataset():
    return generate_dataset(PRESETS["mini"], seed=7)


@pytest.fixture(scope="session")
def pair_dataset():
    return generate_dataset(PRESETS["pair"], seed=3, n_scenes=2, scene_prefix="office")


@pytest.fixture()
def tiny_scene():
    """A 3x2 scene with one demo and one extra label, built by hand: rows
    0, 2 and 5 are the cells (0, 0), (1, 0) and (2, 1)."""
    labels = np.zeros((6, 2), dtype=bool)
    labels[0, 0] = labels[5, 1] = True
    return SceneGrid(
        "tiny", 3, 2, 0.25, ActivityVocabulary(("sit", "wash")),
        explored=np.arange(6) == 2,
        labels=labels,
        demonstrations=Demonstrations([0], [0], [1.0]),
    )


def random_bundle(rng, m=12, a=4, density=0.5):
    """Random weighted instance with explored/unexplored structure."""
    from actionmaps.solver import ActionMatrixBundle

    w = rng.uniform(0.2, 1.0, size=(m, a)) * (rng.random((m, a)) < density)
    r = rng.uniform(0.0, 1.0, size=(m, a)) * (w > 0)
    return ActionMatrixBundle(R=r, W=w)


def random_kernel(rng, m):
    b = rng.uniform(0.0, 1.0, size=(m, m))
    k = (b + b.T) / 2.0
    np.fill_diagonal(k, 1.0)
    return k


def random_gram(rng, m):
    """random_kernel as the GramMatrix the solver takes."""
    from tests.kernel_oracles import checked_gram

    return checked_gram(random_kernel(rng, m))
