"""Parity between the compiled kernel and the pure-Python fallback.

When ``gbs._wordcore`` is not installed, the checked-in ``_wordcore.c`` is
compiled into a temporary directory with the interpreter's C compiler and
loaded from there; the kernel selector in ``gbs.wordcore`` is left as is.
The tests skip only when there is no compiler or no ``Python.h``.
"""

import importlib.util
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import gbs
from gbs import _wordcore_py as pure
from gbs import wordcore

from conftest import SUBPROCESS_ENV


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    try:
        from gbs import _wordcore
        return _wordcore
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = Path(sysconfig.get_paths()["include"])
    if not shutil.which(cc[0]) or not (include / "Python.h").is_file():
        pytest.skip("no C compiler or no Python.h to build _wordcore.c")
    source = Path(gbs.__file__).with_name("_wordcore.c")
    target = (tmp_path_factory.mktemp("wordcore")
              / ("_wordcore" + sysconfig.get_config_var("EXT_SUFFIX")))
    subprocess.run(cc + ["-shared", "-fPIC", "-O0", f"-I{include}",
                         str(source), "-o", str(target)],
                   check=True, capture_output=True)
    spec = importlib.util.spec_from_file_location("gbs._wordcore", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

ALPHA = (3, 2, 4, 5, -2, 7)   # three edge pairs, one negative injection


def random_raw(rng, max_edges=8, exp=40):
    """Arbitrary (possibly pinch-laden) item list over the alpha table."""
    n = rng.randint(0, max_edges)
    items = [rng.randint(-exp, exp)]
    for _ in range(n):
        items.append(rng.randrange(len(ALPHA)))
        items.append(rng.randint(-exp, exp))
    return items


def test_reduce_sweep_canon_inv_parity(compiled):
    rng = random.Random(101)
    for _ in range(2000):
        items = random_raw(rng)
        assert compiled.reduce_items(list(items), ALPHA) == \
            pure.reduce_items(list(items), ALPHA)
        red = pure.reduce_items(list(items), ALPHA)
        assert compiled.sweep_items(list(red), ALPHA) == \
            pure.sweep_items(list(red), ALPHA)
        assert compiled.canon_items(list(items), ALPHA) == \
            pure.canon_items(list(items), ALPHA)
        assert compiled.inv_items(list(items)) == pure.inv_items(list(items))


def test_mul_parity_and_equivalence(compiled):
    rng = random.Random(103)
    for _ in range(2000):
        a = pure.canon_items(random_raw(rng), ALPHA)
        b = pure.canon_items(random_raw(rng), ALPHA)
        got_c = compiled.mul_items(list(a), list(b), ALPHA)
        got_p = pure.mul_items(list(a), list(b), ALPHA)
        assert got_c == got_p
        joined = list(a)
        joined[-1] += b[0]
        joined.extend(b[1:])
        assert got_p == pure.canon_items(joined, ALPHA)


def test_bignum_exponents_survive(compiled):
    big = 3 ** 120 + 1
    items = [big, 0, 3 ** 121, 1, -big]
    assert compiled.canon_items(list(items), ALPHA) == \
        pure.canon_items(list(items), ALPHA)
    # the pinch condition fires on exact multiples only
    exact = [0, 0, 3 ** 121, 1, 0]
    out = compiled.reduce_items(list(exact), ALPHA)
    assert out == [2 * 3 ** 120]


_SELECTOR_PROBE = """\
import os, sys, types
KERNEL = ("reduce_items", "sweep_items", "canon_items", "inv_items",
          "mul_items")
# a stand-in extension, in place before gbs (and its selector) loads
ext = types.ModuleType("gbs._wordcore")
for name in KERNEL:
    setattr(ext, name, lambda *args: None)
sys.modules["gbs._wordcore"] = ext
from gbs import _wordcore_py, wordcore
if os.environ.get("GBS_PURE_KERNEL"):
    want, impl = "python", _wordcore_py
else:
    want, impl = "cython", ext
assert wordcore.backend() == want, wordcore.backend()
for name in KERNEL:
    assert getattr(wordcore, name) is getattr(impl, name), name
"""


def test_selected_backend_reported():
    assert wordcore.backend() in ("cython", "python")
    # GBS_PURE_KERNEL=1 must pick the pure kernel even where the extension
    # imports; the benchmark relies on it.  Fresh interpreters, since the
    # selector runs once at import; without the variable the stand-in
    # extension must win, which shows the probe can fail.
    for pure_flag in ("1", ""):
        env = dict(SUBPROCESS_ENV, GBS_PURE_KERNEL=pure_flag)
        r = subprocess.run([sys.executable, "-c", _SELECTOR_PROBE], env=env,
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
