"""geovos: geometry-aware video object segmentation toolkit.

File-based machinery for 3D-aware VOS work: pinhole geometry and
frustum-overlap frame sampling, a desk-scale attention feature-merger
reference with verified gradients, class-agnostic 3D instance construction
from tracked masks, the IoU / positive IoU / successful IoU evaluation
protocol, and bit-exact scene file formats with a synthetic box-world
generator for exact oracles.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
