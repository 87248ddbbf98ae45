"""Golden digest of every number the two accelerator models simulate.

The ledger rounds what it derives from a :class:`SimulationReport` to six
significant digits, and the ``stack`` benchmark reads only per-frame
aggregates, so neither would notice a last-bit change in a cycle count, an
operation count or an energy term.  This test hashes the ``float.hex`` of
every report field — ``total_cycles``, ``stage_cycles``,
``dram_traffic.as_dict()``, ``sram_bytes``, ``compute_ops``, ``energy_pj``,
``area_mm2`` and ``extra`` — over the six quick presets and every
configuration an experiment varies, so a refactor of ``repro.arch`` that
claims "no behaviour change" proves it here.

:data:`GOLDEN` was recorded before the GCC unit modules and GSCore's inline
units were folded into one unit model.  To re-record after an *intended*
model change::

    PYTHONPATH=src:tests python -c "import test_arch_golden as t; print(t.digest())"
"""

from __future__ import annotations

import hashlib

from repro.arch.gcc import GccConfig
from repro.arch.gscore import GScoreConfig
from repro.eval.runner import EvalSetup, run_gcc_sim, run_gscore_sim
from repro.gaussians.presets import EVAL_SCENES

GCC_CONFIGS = {
    "default": GccConfig(),
    "no-cc": GccConfig(enable_cc=False),
    "aabb": GccConfig(enable_alpha_boundary=False),
    "buffer-512k": GccConfig(image_buffer_bytes=512 * 1024),
    "array-16": GccConfig(alpha_array_size=16),
    "lpddr5": GccConfig(dram="LPDDR5-6400"),
}
GSCORE_CONFIGS = {
    "default": GScoreConfig(),
    "lpddr5": GScoreConfig(dram="LPDDR5-6400"),
}

GOLDEN = "d39753872298a7758e8868f857c9172f3ad2bef4716edb0ac373b9f87e1a0fc7"


def _feed(hasher, value) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            hasher.update(f"{key}=".encode())
            _feed(hasher, value[key])
    else:
        hasher.update(float.hex(float(value)).encode() + b";")


def report_fields(report) -> dict:
    """The simulated fields of one report, by name."""
    return {
        "total_cycles": report.total_cycles,
        "stage_cycles": report.stage_cycles,
        "dram_traffic": report.dram_traffic.as_dict(),
        "sram_bytes": report.sram_bytes,
        "compute_ops": report.compute_ops,
        "energy_pj": report.energy_pj,
        "area_mm2": report.area_mm2,
        "extra": report.extra,
    }


def digest() -> str:
    """sha256 over every simulated field of every (preset, configuration)."""
    hasher = hashlib.sha256()
    for scene in EVAL_SCENES:
        setup = EvalSetup(scene, quick=True)
        runs = [(f"gcc/{name}", run_gcc_sim, config) for name, config in GCC_CONFIGS.items()]
        runs += [(f"gscore/{name}", run_gscore_sim, config) for name, config in GSCORE_CONFIGS.items()]
        for label, simulate, config in runs:
            hasher.update(f"{scene}/{label}:".encode())
            _feed(hasher, report_fields(simulate(setup, config)))
    return hasher.hexdigest()


def test_every_simulated_field_matches_the_golden_digest():
    assert digest() == GOLDEN
