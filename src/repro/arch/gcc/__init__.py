"""GCC accelerator model (Section 4 of the paper).

The accelerator is a pipeline of dedicated modules — RCA, Projection Unit,
SH Unit, Sort Unit, Alpha Unit, Blending Unit — fed by a shared buffer
hierarchy and an LPDDR interface.

* :mod:`repro.arch.gcc.accelerator` — ``gcc_units``, the modules as one
  table of :class:`~repro.arch.units.Unit` rows, and
  :class:`~repro.arch.gcc.accelerator.GccAccelerator`, which charges the
  work counts of the functional Gaussian-wise renderer to them to estimate
  per-frame cycles, DRAM traffic and energy.
* :mod:`repro.arch.gcc.config` — :class:`GccConfig`, what an experiment
  varies (PE array, Image Buffer, DRAM preset, the two ablation switches).
* :mod:`repro.arch.gcc.cmode` — Compatibility Mode sub-view planning.
"""

from repro.arch.gcc.accelerator import GccAccelerator
from repro.arch.gcc.config import GccConfig

__all__ = ["GccAccelerator", "GccConfig"]
