from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import strategies as st

from pointloc.geometry import Pose, UnitQuaternion

finite_component = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def quaternions(draw):
    w = draw(finite_component)
    x = draw(finite_component)
    y = draw(finite_component)
    z = draw(finite_component)
    if w * w + x * x + y * y + z * z < 1e-6:
        w = 1.0
    return UnitQuaternion(w, x, y, z)


@st.composite
def poses(draw):
    q = draw(quaternions())
    t = np.array([draw(st.floats(-20, 20)) for _ in range(3)])
    return Pose(q, t)


def random_pose(rng: np.random.Generator) -> Pose:
    v = rng.normal(size=4)
    while np.linalg.norm(v) < 1e-3:
        v = rng.normal(size=4)
    q = UnitQuaternion(*v)
    return Pose(q, rng.uniform(-5.0, 5.0, size=3))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def assert_each_rejected(tmp_path):
    """check(load, blobs, error): load(path) raises ``error`` on the file
    holding each blob, all blobs within 30 s."""

    def check(load, blobs, error):
        outcomes = []

        def run():
            for blob in blobs:
                (tmp_path / "bad.bin").write_bytes(blob)
                try:
                    load(tmp_path / "bad.bin")
                    outcomes.append(None)
                except Exception as e:  # checked below
                    outcomes.append(e)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(30.0)
        assert not worker.is_alive(), f"still loading after 30 s ({len(outcomes)} done)"
        assert len(outcomes) == len(blobs)
        for i, outcome in enumerate(outcomes):
            assert isinstance(outcome, error), (i, outcome)

    return check
