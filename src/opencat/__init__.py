"""Open quantum cat maps on the quantized torus: build, diagonalize, verify."""

from .catmap import ARNOLD, CatMap, CatMapAnalysis, RationalPoint, analyze, guard_radius
from .quantizer import BumpSpec, TorusSymbol, op_left_separable, op_weyl
from .metaplectic import egorov_residual, factor_sl2z, quantize_map
from .experiments import (build_open_operator, cutoff_sectors, nontrapping_sweep,
                          open_spectrum, theorem_targets, trapped_sweep)

__all__ = [
    "ARNOLD", "CatMap", "CatMapAnalysis", "RationalPoint", "analyze",
    "guard_radius", "BumpSpec", "TorusSymbol", "op_left_separable", "op_weyl",
    "egorov_residual", "factor_sl2z", "quantize_map", "build_open_operator",
    "cutoff_sectors", "nontrapping_sweep", "open_spectrum", "theorem_targets", "trapped_sweep",
]
