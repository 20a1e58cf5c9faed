"""Set-up probe: a fresh interpreter imports gbs (numpy and scipy with it)
and loads graph files into groups, as every CLI invocation does.

Usage: python3 setup_probe.py SRC_DIR FIXTURE...
"""

import sys
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))

import gbs.cli  # noqa: E402,F401  (loads every layer)
from gbs.graphs import parse_graph  # noqa: E402
from gbs.words import GbsGroup  # noqa: E402

if Path(gbs.__file__).resolve().parent != src / "gbs":
    sys.exit(f"imported gbs from {gbs.__file__}, not {src}")
for path in sys.argv[2:]:
    GbsGroup(*parse_graph(Path(path).read_text()))
