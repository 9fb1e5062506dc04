"""One hypothesis profile for the whole suite: derandomized, so every run draws
the same examples, with no deadline and a bounded example count; and the
``knn_widths`` fixture."""
import pytest
from hypothesis import settings

from derainkit.filters import SpatialIndex

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
