import os
import pathlib

import pytest

import gbs
from gbs import wordcore
from gbs.words import GbsGroup

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Environment for test subprocesses: they import the gbs that the tests import.
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(pathlib.Path(gbs.__file__).resolve().parent.parent),
    os.environ.get("PYTHONPATH")])))

BS23_TEXT = (FIXTURES / "bs23.gbs").read_text()
GBS2_TEXT = (FIXTURES / "gbs2.gbs").read_text()
TWO_VERTEX_TEXT = (FIXTURES / "two_vertex.gbs").read_text()
CHAIN3_TEXT = (FIXTURES / "chain3.gbs").read_text()


def pytest_configure(config):
    # With database=None Hypothesis keeps no examples, but during collection
    # it still caches the constants of local modules in its home directory,
    # .hypothesis/ in the working directory by default.  Keep that cache in
    # pytest's own cache directory instead.
    if config.pluginmanager.has_plugin("cacheprovider"):
        from hypothesis import configuration
        configuration.set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def bs_text(n, m):
    """BS(n, m) encoding: t a^m t^-1 = a^n, so alpha_y = m, alpha_ybar = n."""
    return f"vertex P\nedge y : P -> P alpha {m} {n}\n"


@pytest.fixture(scope="session")
def bs23():
    return GbsGroup.from_text(BS23_TEXT)


@pytest.fixture(scope="session")
def gbs2():
    return GbsGroup.from_text(GBS2_TEXT)


@pytest.fixture(scope="session")
def two_vertex():
    return GbsGroup.from_text(TWO_VERTEX_TEXT)


@pytest.fixture(scope="session")
def chain3():
    return GbsGroup.from_text(CHAIN3_TEXT)


def kernel_conjugate(group, g, h):
    """Canonical items of h^-1 g h, for items ``g`` of a closed word and
    a canonical path word ``h`` from the base: h^-1 swept to canonical
    form, then two kernel products.  The seam readers form one product
    and stop at the seam; this is their independent reference."""
    alpha = group.graph.alpha
    h_inv = wordcore.sweep_items(wordcore.inv_items(list(h)), alpha)
    return wordcore.mul_items(wordcore.mul_items(h_inv, list(g), alpha),
                              list(h), alpha)


def random_graph_text(rng):
    """A random connected graph in the text format: 1-5 vertices, a random
    spanning tree plus up to three extra edges (loops and parallel edges
    allowed), alphas in +-{1..6}, declared edges in shuffled order; the tree
    and the base are declared about half the time each."""
    verts = [f"V{i}" for i in range(rng.randint(1, 5))]
    ends, tree = [], []
    for i in range(1, len(verts)):
        pair = [verts[i], verts[rng.randrange(i)]]
        rng.shuffle(pair)
        tree.append(len(ends))
        ends.append(pair)
    for _ in range(rng.randint(0, 3)):
        ends.append([rng.choice(verts), rng.choice(verts)])
    order = list(range(len(ends)))
    rng.shuffle(order)
    name = {idx: f"e{k}" for k, idx in enumerate(order)}
    lines = [f"vertex {v}" for v in verts]
    for idx in order:
        o, t = ends[idx]
        af, ab = (rng.randint(1, 6) * rng.choice((1, 1, -1)) for _ in range(2))
        lines.append(f"edge {name[idx]} : {o} -> {t} alpha {af} {ab}")
    if tree and rng.random() < 0.5:
        lines.append("tree " + " ".join(name[i] for i in tree))
    if rng.random() < 0.5:
        lines.append(f"base {rng.choice(verts)}")
    return "\n".join(lines) + "\n"
