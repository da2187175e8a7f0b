"""Each config value rule has one definition, shared by config and library.

A flag and a config line go through config._PARSERS; the library entry
points check the same values with the consuming module's own rule. Over
one shared list of texts, the two must accept exactly the same ones.
"""

import numpy as np
import pytest

from coreseg.config import _PARSERS
from coreseg.coreset import SelectionManifest
from coreseg.errors import (
    ConfigError,
    FusionError,
    GridError,
    MetricsError,
    ReportError,
    SelectionError,
)
from coreseg.instance_metrics import match_instances
from coreseg.label_fusion import Connectivity, connectivity_kind
from coreseg.patch_grid import plan_grid
from coreseg.report import MetricsRecord, build_curve, first_surpass
from coreseg.volume_io import new_volume

CANDIDATES = [
    "nan", "inf", "-0.0", "0.5", "1.0", "1e-400", "1_0", " zero", "Face6", "18",
    "0.9", "zero", "reflect", "coreset", "random", "6", "26", "face6", "full26",
]

VOLUME = new_volume(np.ones((1, 1, 1), dtype=np.uint32))
CURVE = build_curve({1: MetricsRecord.from_counts(1, 0, 0, 1.0)})

# The library entry point that consumes each key, as a call on the text
# (numbers converted first), and the errors by which it refuses one.
LIBRARY = {
    "pad_mode": (lambda t: plan_grid((2, 2, 2), (1, 1, 1), t), GridError),
    "connectivity": (lambda t: Connectivity(connectivity_kind(t, FusionError)), FusionError),
    "method": (lambda t: SelectionManifest(t, 0, 0, 0).validate(), SelectionError),
    "iou_threshold": (
        lambda t: match_instances(VOLUME, VOLUME, float(t)),
        (ValueError, MetricsError),
    ),
    "surpass_fraction": (
        lambda t: first_surpass(CURVE, "f1", float(t)),
        (ValueError, ReportError),
    ),
}


def accepted(call, error):
    texts = []
    for text in CANDIDATES:
        try:
            call(text)
        except error:
            continue
        texts.append(text)
    return texts


@pytest.mark.parametrize("key", sorted(LIBRARY))
def test_config_accepts_what_the_library_accepts(key):
    call, error = LIBRARY[key]
    library = accepted(call, error)
    assert library, "no candidate is valid; the comparison would be empty"
    assert accepted(_PARSERS[key], ConfigError) == library
