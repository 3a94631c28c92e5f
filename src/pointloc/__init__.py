"""Point-grid RGB-D place recognition toolkit.

Synthetic indoor scene datasets on a regular grid of camera "Points",
a classical localization pipeline (global retrieval, binary local features,
robust 3D-3D registration), and recall-at-threshold evaluation.
"""

from pointloc.geometry import (
    CameraIntrinsics,
    Pose,
    UnitQuaternion,
    backproject,
    compose,
    intrinsics_from_fov,
    rotation_error,
    translation_error,
)

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "Pose",
    "UnitQuaternion",
    "backproject",
    "compose",
    "intrinsics_from_fov",
    "rotation_error",
    "translation_error",
    "__version__",
]
