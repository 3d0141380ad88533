"""Settings and helpers shared by every test module."""

import json
from pathlib import Path

import pytest
from hypothesis import settings

# Property tests run whole filter passes, whose time varies a lot on shared
# CI runners; wall-clock bounds live in the acceptance tests instead.
settings.register_profile("trafficstate", deadline=None)
settings.load_profile("trafficstate")


def _not_json(constant: str):
    raise ValueError(f"summary.json holds {constant}, which is not valid JSON")


@pytest.fixture
def read_summary():
    """Parse a run directory's summary.json strictly: NaN or Infinity fails the test."""

    def read(out_dir: Path) -> dict:
        return json.loads((Path(out_dir) / "summary.json").read_text(), parse_constant=_not_json)

    return read
