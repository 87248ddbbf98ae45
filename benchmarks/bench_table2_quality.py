"""Table 2 — rendering quality of GSCore and GCC against the GPU reference.

Paper shape: PSNR differences below 0.1 dB and identical LPIPS — the GCC
dataflow is visually lossless.  In this reproduction GSCore's image is the
GPU reference (its subtile skip only changes the alpha-evaluation count), so
its columns read ``inf`` dB and 0; GCC differs from it only through
bounding-rule fringe pixels, so its PSNR is far above any visibility
threshold.
"""

from __future__ import annotations

from conftest import run_once

from repro.eval import experiments, reporting


def test_table2_rendering_quality(benchmark, save_report):
    rows = run_once(benchmark, experiments.table2)
    report = reporting.report_table2(rows)
    save_report("table2_quality", report)

    for row in rows:
        assert row["gscore_psnr"] > 35.0
        assert row["gcc_psnr"] > 35.0
        # The offline perceptual proxy is not calibrated to LPIPS values; it
        # is ~0 for identical images and grows toward 1 for unrelated ones.
        assert row["gscore_lpips"] < 0.4
        assert row["gcc_lpips"] < 0.4
