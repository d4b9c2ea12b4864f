"""A serial fast multipole method over the library's trees and
multipole operators: example code (``fmm_comparison.py`` runs it), not
part of the ``repro`` package."""

from .fmm import FMMStats, fmm_potentials
from .local_expansion import l2l, l2p, m2l, p2l

__all__ = ["FMMStats", "fmm_potentials", "l2l", "l2p", "m2l", "p2l"]
