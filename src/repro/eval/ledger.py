"""The paper ledger: GCC's evaluation run once, beside the paper's numbers
and claims.

:data:`PAPER` is the one home of the numbers the paper reports.
:func:`ledger` runs the 14 experiments of :mod:`repro.eval.experiments` and
returns three parts:

- ``experiments``: every experiment's full output;
- ``numbers``: one row per paper number and scene — the paper's range, the
  reproduced value, their ratio and whether the value lies inside;
- ``claims``: one row per claim.  A *guarded* claim is a shape the
  reproduction must keep (``benchmarks/bench_paper_figures.py`` fails when
  one breaks).  An *unguarded* claim is one of the paper's qualitative
  statements held as a predicate; where it reads false the models measure
  something else, and the row says so instead of failing.

Every number comes from integer counters fed through the deterministic
``repro.arch`` models.  Floats are still rounded to 6 significant digits,
because a few (Table 2's PSNR and perceptual proxy) move in the last ulp
with numpy's SIMD dispatch; integers stay exact and non-finite values
become ``None``.  :func:`render` prints the numbers and claims tables; the
committed ``BENCH_paper_figures.json`` and EXPERIMENTS.md hold its output.
"""

from __future__ import annotations

import inspect
import math
from typing import NamedTuple

import numpy as np

from repro.eval import experiments
from repro.eval.reporting import format_table

#: The experiments of :mod:`repro.eval.experiments`, in the paper's order,
#: with the label each row of the ledger carries.
FIGURES = {
    "figure2": "Fig. 2",
    "table1": "Table 1",
    "figure4": "Fig. 4",
    "figure6": "Fig. 6",
    "table2": "Table 2",
    "figure10": "Fig. 10",
    "figure11": "Fig. 11",
    "table3": "Table 3",
    "table4": "Table 4",
    "figure12": "Fig. 12",
    "figure13a": "Fig. 13(a)",
    "figure13b": "Fig. 13(b)",
    "figure14": "Fig. 14",
    "figure15": "Fig. 15",
}


class Paper(NamedTuple):
    """One number the paper reports, as the low–high range it quotes.

    ``quantity`` names a field of the experiment's per-scene rows (one
    ledger row per scene) or of its result (one row, keyed ``geomean``).
    ``point`` is the headline value quoted with the range, if any: Figure
    10's geomeans come with the per-scene range, which a geomean of values
    inside it cannot leave.
    """

    experiment: str
    quantity: str
    low: float
    high: float
    point: float | None = None


PAPER = (
    Paper("figure2", "in_frustum_fraction", 0.64, 0.83),
    Paper("figure2", "avg_loads_per_gaussian", 3.17, 6.45),
    Paper("figure10", "speedup", 4.27, 6.22),
    Paper("figure10", "geomean_speedup", 4.27, 6.22, point=5.24),
    Paper("figure10", "energy_efficiency", 3.05, 3.72),
    Paper("figure10", "geomean_energy_efficiency", 3.05, 3.72, point=3.35),
)


def _run_experiments(quick: bool = False) -> dict:
    """Every experiment's output at the given scale, keyed by function name."""
    results = {}
    for name in FIGURES:
        function = getattr(experiments, name)
        takes_quick = "quick" in inspect.signature(function).parameters
        results[name] = function(quick=quick) if takes_quick else function()
    return results


def _series(result, quantity: str) -> dict:
    """``key -> value`` of one quantity: per scene, or the one ``geomean``."""
    if isinstance(result, dict) and quantity in result:
        return {"geomean": result[quantity]}
    rows = result["rows"] if isinstance(result, dict) else result
    return {row["scene"]: row[quantity] for row in rows}


def _numbers(results: dict) -> list[dict]:
    """One row per :data:`PAPER` number and scene."""
    rows = []
    for paper in PAPER:
        reference = paper.point if paper.point is not None else (paper.low + paper.high) / 2
        for key, value in _series(results[paper.experiment], paper.quantity).items():
            rows.append(
                {
                    "figure": FIGURES[paper.experiment],
                    "quantity": paper.quantity,
                    "key": key,
                    "paper_low": paper.low,
                    "paper_high": paper.high,
                    "reproduced": value,
                    "ratio": value / reference,
                    "inside": bool(paper.low <= value <= paper.high),
                }
            )
    return rows


def _by(rows: list[dict], field: str) -> dict:
    return {row[field]: row for row in rows}


def _motivation_claims(r: dict) -> list[tuple]:
    """Figures 2, 4 and 6 and Tables 1 and 2: the shapes the reproduction keeps."""
    fig2, table1, table2 = r["figure2"], r["table1"], r["table2"]
    fig4 = _by(r["figure4"], "opacity")
    fig6 = [_by(rows, "subview") for rows in r["figure6"].values()]
    return [
        ("figure2", "rendered / in-frustum < 0.6 on every scene",
         all(row["rendered_fraction"] < 0.6 for row in fig2)),
        ("figure2", "loads per Gaussian > 1.5 on every scene",
         all(row["avg_loads_per_gaussian"] > 1.5 for row in fig2)),
        ("table1", "AABB pixels > OBB pixels on every scene",
         all(row["aabb_pixels"] > row["obb_pixels"] for row in table1)),
        ("table1", "OBB pixels >= alpha pixels on every scene",
         all(row["obb_pixels"] >= row["alpha_pixels"] for row in table1)),
        ("table1", "rendered pixels < 0.8x AABB pixels on every scene",
         all(row["rendered_pixels"] < row["aabb_pixels"] * 0.8 for row in table1)),
        ("figure4", "AABB pixels equal at opacity 1 and 0.01",
         fig4[1.0]["aabb"] == fig4[0.01]["aabb"]),
        ("figure4", "OBB pixels equal at opacity 1 and 0.01",
         fig4[1.0]["obb"] == fig4[0.01]["obb"]),
        ("figure4", "alpha pixels at opacity 0.01 < 0.5x those at opacity 1",
         fig4[0.01]["alpha"] < 0.5 * fig4[1.0]["alpha"]),
        ("figure6", "duplication at 1024 <= 1.5x that at 128, both scenes",
         all(s[1024]["duplication"] <= s[128]["duplication"] * 1.5 for s in fig6)),
        ("figure6", "duplication at 16 > that at 128, both scenes",
         all(s[16]["duplication"] > s[128]["duplication"] for s in fig6)),
        ("table2", "GSCore PSNR > 35 dB on every scene",
         all(row["gscore_psnr"] > 35.0 for row in table2)),
        ("table2", "GCC PSNR > 35 dB on every scene",
         all(row["gcc_psnr"] > 35.0 for row in table2)),
        ("table2", "GSCore LPIPS proxy < 0.4 on every scene",
         all(row["gscore_lpips"] < 0.4 for row in table2)),
        ("table2", "GCC LPIPS proxy < 0.4 on every scene",
         all(row["gcc_lpips"] < 0.4 for row in table2)),
    ]


def _pairs(fig12: list[dict]) -> list[tuple[dict, dict]]:
    """Figure 12's ``(GSCore, GCC)`` rows, one pair per scene."""
    by_key = {(row["scene"], row["accelerator"]): row for row in fig12}
    scenes = dict.fromkeys(row["scene"] for row in fig12)
    return [(by_key[scene, "GSCore"], by_key[scene, "GCC"]) for scene in scenes]


def _main_claims(r: dict) -> list[tuple]:
    """Figures 10–12 and Tables 3 and 4: the shapes the reproduction keeps."""
    fig10, fig11, pairs = r["figure10"], r["figure11"], _pairs(r["figure12"])
    table3, table4 = _by(r["table3"], "design"), _by(r["table4"], "component")
    gcc = next(row for name, row in table3.items() if "GCC" in name)
    gscore = next(row for name, row in table3.items() if "GSCore" in name)
    metavrain, a6000 = table3["MetaVRain (ISSCC'23)"], table3["NVIDIA A6000"]
    return [
        ("figure10", "speedup > 1 on every scene",
         all(row["speedup"] > 1.0 for row in fig10["rows"])),
        ("figure10", "energy efficiency > 1 on every scene",
         all(row["energy_efficiency"] > 1.0 for row in fig10["rows"])),
        ("figure10", "geomean speedup > 2", fig10["geomean_speedup"] > 2.0),
        ("figure10", "geomean energy efficiency > 1.5", fig10["geomean_energy_efficiency"] > 1.5),
        ("figure11", "GW+CC speedup >= 0.95x GW speedup on every scene",
         all(row["speedup_gw_cc"] >= row["speedup_gw"] * 0.95 for row in fig11)),
        ("figure11", "GW DRAM bytes <= baseline's on every scene",
         all(row["dram_gw"]["total"] <= row["dram_baseline"]["total"] for row in fig11)),
        ("figure11", "GW+CC DRAM bytes <= 1.001x GW's on every scene",
         all(row["dram_gw_cc"]["total"] <= row["dram_gw"]["total"] * 1.001 for row in fig11)),
        ("figure11", "the baseline has key-value DRAM traffic on every scene",
         all(row["dram_baseline"]["key_value"] > 0 for row in fig11)),
        ("figure11", "GW+CC has no key-value DRAM traffic on any scene",
         all(row["dram_gw_cc"]["key_value"] == 0 for row in fig11)),
        ("figure11", "GCC alpha evaluations <= 1.15x the baseline's on every scene",
         all(row["render_ops_gcc"] <= row["render_ops_baseline"] * 1.15 for row in fig11)),
        ("table3", "FPS/mm2: GCC > GSCore > MetaVRain",
         gcc["fps_per_mm2"] > gscore["fps_per_mm2"] > metavrain["fps_per_mm2"]),
        ("table3", "FPS/mm2: GCC > NVIDIA A6000", gcc["fps_per_mm2"] > a6000["fps_per_mm2"]),
        ("table3", "GCC area < GSCore area", gcc["area_mm2"] < gscore["area_mm2"]),
        ("table4", "compute + buffer area = GCC total within 0.01 mm2",
         abs(table4["Compute Total"]["area_mm2"] + table4["Buffer Total"]["area_mm2"]
             - table4["GCC Total"]["area_mm2"]) <= 0.01),
        ("table4", "GCC area < GSCore area",
         table4["GCC Total"]["area_mm2"] < table4["GSCore Total"]["area_mm2"]),
        ("table4", "GCC power < GSCore power",
         table4["GCC Total"]["power_mw"] < table4["GSCore Total"]["power_mw"]),
        ("figure12", "GSCore off-chip > on-chip energy on every scene",
         all(gs["offchip_mj"] > gs["onchip_mj"] for gs, _ in pairs)),
        ("figure12", "GSCore off-chip > compute energy on every scene",
         all(gs["offchip_mj"] > gs["compute_mj"] for gs, _ in pairs)),
        ("figure12", "GCC off-chip < 0.5x GSCore's on every scene",
         all(g["offchip_mj"] < 0.5 * gs["offchip_mj"] for gs, g in pairs)),
        ("figure12", "GCC total energy < GSCore's on every scene",
         all(g["total_mj"] < gs["total_mj"] for gs, g in pairs)),
    ]


def _monotone(values: list[float]) -> bool:
    return all(b >= a * 0.999 for a, b in zip(values, values[1:]))


def _sensitivity_claims(r: dict) -> list[tuple]:
    """Figures 13–15: the shapes the reproduction keeps."""
    buffers, arrays = _by(r["figure13a"], "buffer_kb"), _by(r["figure13b"], "array_size")
    best = max(r["figure13b"], key=lambda row: row["fps_per_mm2"])
    fig14 = sorted(r["figure14"], key=lambda row: row["bandwidth_gbps"])
    gcc_fps, gscore_fps = [row["gcc_fps"] for row in fig14], [row["gscore_fps"] for row in fig14]
    accel = [row for row in r["figure15"] if row["platform"] == "GSCore / GCC"]
    gpus = [row for row in r["figure15"] if row["platform"] != "GSCore / GCC"]
    return [
        ("figure13a", "FPS/mm2 at 8192 KB < at 128 KB",
         buffers[8192]["fps_per_mm2"] < buffers[128]["fps_per_mm2"]),
        ("figure13a", "a 32 KB buffer forces Compatibility Mode", bool(buffers[32]["cmode"])),
        ("figure13a", "an 8192 KB buffer needs no Compatibility Mode", not buffers[8192]["cmode"]),
        ("figure13b", "FPS at 8x8 >= at 4x4", arrays[8]["fps"] >= arrays[4]["fps"]),
        ("figure13b", "FPS/mm2 peaks at 4x4, 8x8 or 16x16", best["array_size"] in (4, 8, 16)),
        ("figure13b", "FPS/mm2 at 64x64 < the peak",
         arrays[64]["fps_per_mm2"] < best["fps_per_mm2"]),
        ("figure14", "GCC FPS never falls below 0.999x with more bandwidth",
         _monotone(gcc_fps)),
        ("figure14", "GSCore FPS never falls below 0.999x with more bandwidth",
         _monotone(gscore_fps)),
        ("figure14", "GCC FPS > GSCore FPS at every bandwidth",
         all(g > s for g, s in zip(gcc_fps, gscore_fps))),
        ("figure14", "GCC's FPS gain, slowest to fastest DRAM, <= GSCore's",
         gcc_fps[-1] / gcc_fps[0] <= gscore_fps[-1] / gscore_fps[0] + 1e-9),
        ("figure15", "on the accelerators GCC's frame time < GSCore's on every scene",
         all(row["gcc_total_s"] < row["standard_total_s"] for row in accel)),
        ("figure15", "on GPUs GCC's render share >= 0.99x the standard's on every scene",
         all(row["gcc"]["render"] >= row["standard"]["render"] * 0.99 for row in gpus)),
    ]


def _paper_claims(r: dict) -> list[tuple]:
    """The paper's qualitative statements no guard asserts, as predicates.

    Each bound for a word ("slightly", "comparable", "marginal",
    "steeply", "~40 %") is chosen here and stated in the row.
    """
    fig4 = _by(r["figure4"], "opacity")
    fig6 = [_by(rows, "subview") for rows in r["figure6"].values()]
    fig11, pairs = r["figure11"], _pairs(r["figure12"])
    cc_gain = {row["scene"]: row["speedup_gw_cc"] / row["speedup_gw"] for row in fig11}
    buffers, fig13b = _by(r["figure13a"], "buffer_kb"), r["figure13b"]
    fps_per_mm2 = (buffers[128]["fps_per_mm2"], buffers[512]["fps_per_mm2"])
    fig14 = sorted(r["figure14"], key=lambda row: row["bandwidth_gbps"])
    low, next_up = fig14[0], fig14[1]
    below = [row for row in fig14 if row["bandwidth_gbps"] < 220][-1]
    top = fig14[-1]
    accel = [row for row in r["figure15"] if row["platform"] == "GSCore / GCC"]
    gpus = [row for row in r["figure15"] if row["platform"] != "GSCore / GCC"]
    return [
        ("figure4", "at opacity 1 the alpha region fills most (> 0.5x) of the OBB",
         fig4[1.0]["alpha"] > 0.5 * fig4[1.0]["obb"]),
        ("figure6", "duplication is marginal (<= 1.25x) at 128x128 and above, both scenes",
         all(s[size]["duplication"] <= 1.25 for s in fig6 for size in s if size >= 128)),
        ("figure6", "duplication grows steeply (>= 2x) from 64x64 to 16x16, both scenes",
         all(s[16]["duplication"] >= 2 * s[64]["duplication"] for s in fig6)),
        ("figure11", "(a) GW alone beats the baseline on every scene",
         all(row["speedup_gw"] > 1.0 for row in fig11)),
        ("figure11", "(a) CC's further gain is largest on drjohnson",
         max(cc_gain, key=cc_gain.get) == "drjohnson"),
        ("figure11", "(c) rendering computations drop: GCC alpha evaluations < baseline's "
         "on every scene",
         all(row["render_ops_gcc"] < row["render_ops_baseline"] for row in fig11)),
        ("figure12", "DRAM dominates both designs: off-chip is each design's largest term "
         "on every scene",
         all(row["offchip_mj"] > max(row["onchip_mj"], row["compute_mj"])
             for pair in pairs for row in pair)),
        ("figure12", "slightly increasing SRAM activity: GCC on-chip 1-1.25x GSCore's "
         "on every scene",
         all(1.0 <= g["onchip_mj"] / gs["onchip_mj"] <= 1.25 for gs, g in pairs)),
        ("figure13a", "128 KB and 512 KB are comparable: FPS/mm2 within 1.25x",
         max(fps_per_mm2) <= 1.25 * min(fps_per_mm2)),
        ("figure13b", "the 8x8 array is the sweet spot: FPS/mm2 peaks at 8x8",
         max(fig13b, key=lambda row: row["fps_per_mm2"])["array_size"] == 8),
        ("figure14", "both designs gain FPS from the slowest DRAM to the next",
         next_up["gcc_fps"] > low["gcc_fps"] and next_up["gscore_fps"] > low["gscore_fps"]),
        ("figure14", "beyond ~220 GB/s GCC is flat (gains < 1 %) and GSCore still gains FPS",
         top["gcc_fps"] < 1.01 * below["gcc_fps"] and top["gscore_fps"] > below["gscore_fps"]),
        ("figure15", "on GPUs rendering is the standard dataflow's largest stage on every scene",
         all(row["standard"]["render"] > max(share for stage, share in row["standard"].items()
                                             if stage != "render") for row in gpus)),
        ("figure15", "on the accelerators the standard dataflow spends ~40 % (30-50 %) "
         "on preprocessing",
         all(0.3 <= row["standard"]["preprocess"] <= 0.5 for row in accel)),
        ("figure15", "GCC largely removes it: GCC's preprocessing < 0.5x GSCore's on every scene",
         all(row["gcc"]["preprocess"] < 0.5 * row["standard"]["preprocess"] for row in accel)),
    ]


def _claims(results: dict) -> list[dict]:
    """Guarded claims first, then the paper's unguarded ones."""
    guarded = _motivation_claims(results) + _main_claims(results) + _sensitivity_claims(results)
    return [
        {"figure": FIGURES[name], "text": text, "holds": bool(holds), "guarded": is_guarded}
        for is_guarded, claims in ((True, guarded), (False, _paper_claims(results)))
        for name, text, holds in claims
    ]


def _rounded(value):
    """``value`` with every float at 6 significant digits, non-finite as None."""
    if isinstance(value, dict):
        return {key: _rounded(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(inner) for inner in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{value:.6g}") if math.isfinite(value) else None
    return value


def ledger(quick: bool = False) -> dict:
    """Run every experiment once; return its outputs, numbers and claims."""
    results = _run_experiments(quick)
    return _rounded(
        {
            "experiments": results,
            "numbers": _numbers(results),
            "claims": _claims(results),
        }
    )


def render(book: dict) -> str:
    """The numbers and claims tables of a :func:`ledger` as text."""
    numbers = format_table(
        ["figure", "quantity", "key", "paper low", "paper high", "reproduced", "ratio", "inside"],
        [
            (r["figure"], r["quantity"], r["key"], r["paper_low"], r["paper_high"],
             r["reproduced"], r["ratio"], r["inside"])
            for r in book["numbers"]
        ],
        title="Paper numbers (ratio: reproduced / the paper's point, else its range's middle)",
    )
    claims = format_table(
        ["figure", "guarded", "holds", "claim"],
        [(r["figure"], r["guarded"], r["holds"], r["text"]) for r in book["claims"]],
        title="Paper claims (a false guarded claim fails the benchmark; "
        "a false unguarded one is a finding)",
    )
    # format_table pads the last column; a quoted block keeps no trailing blanks.
    return "\n".join(line.rstrip() for line in f"{numbers}\n\n{claims}".splitlines())
