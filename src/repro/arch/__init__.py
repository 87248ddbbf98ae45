"""Cycle-level hardware models of the GCC accelerator and its baselines.

The paper evaluates GCC with a Python cycle-accurate simulator layered on top
of a functionally-correct rendering pipeline (Section 5.1).  This subpackage
rebuilds that layer:

* :mod:`repro.arch.params` — technology constants, DRAM presets, energy and
  clock parameters.
* :mod:`repro.arch.memory` — DRAM bandwidth/traffic model and the per-pixel
  accumulation state width.
* :mod:`repro.arch.energy` — energy accounting.
* :mod:`repro.arch.area` — published area/power breakdowns (Table 4).
* :mod:`repro.arch.units` — the pipelined unit model and the per-operation
  costs both designs charge.
* :mod:`repro.arch.report` — the per-frame report and the energy tail both
  simulations end with.
* :mod:`repro.arch.gcc` — the GCC accelerator: ``gcc_units`` (RCA, Projection
  Unit, SH Unit, Sort Unit, Alpha Unit, Blending Unit) and Compatibility
  Mode.
* :mod:`repro.arch.gscore` — the GSCore baseline (standard two-stage,
  tile-wise dataflow) and ``gscore_units``.
* :mod:`repro.arch.gpu` — analytical GPU timing model used by the Discussion
  section (Figure 15).
"""

from repro.arch.gcc import GccAccelerator, GccConfig
from repro.arch.gscore import GScoreAccelerator, GScoreConfig
from repro.arch.params import DRAM_PRESETS, EnergyParams, TechnologyParams
from repro.arch.report import SimulationReport

__all__ = [
    "DRAM_PRESETS",
    "EnergyParams",
    "GccAccelerator",
    "GccConfig",
    "GScoreAccelerator",
    "GScoreConfig",
    "SimulationReport",
    "TechnologyParams",
]
