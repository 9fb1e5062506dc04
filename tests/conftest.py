"""The checkout's ``src`` first on the import path, for this process and the Python
processes tests start, so the suite runs from a bare checkout; one hypothesis
profile for the whole suite: derandomized, so every run draws the same examples,
with no deadline and a bounded example count; and the ``knn_widths`` fixture."""
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from derainkit.filters import SpatialIndex  # noqa: E402  (needs SRC on the path)

settings.register_profile("derainkit", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("derainkit")


@pytest.fixture
def knn_widths(monkeypatch):
    """(cloud size, width) of each kNN table that filters ask their indexes for, in call order."""
    widths = []
    knn_dists = SpatialIndex.knn_dists

    def recording(index, k):
        widths.append((index.count, k))
        return knn_dists(index, k)

    monkeypatch.setattr(SpatialIndex, "knn_dists", recording)
    return widths
