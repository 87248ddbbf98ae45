"""Frame-level simulation of the GSCore baseline accelerator.

The standard dataflow has three phases executed back-to-back for each frame:

1. **Preprocessing** — every 3D Gaussian (59 floats) is fetched from DRAM,
   culled against the frustum, projected to 2D and colour-evaluated; the
   resulting 2D records are written back to DRAM because the on-chip buffers
   cannot hold a whole frame's worth.
2. **Sorting** — Gaussian-tile key-value pairs are generated and depth-sorted
   per tile with a bitonic network (radix-style passes over DRAM-resident
   key-value arrays).
3. **Tile-wise rendering** — for each tile, the overlapping 2D Gaussians are
   re-fetched (once per tile they appear in — the duplicated-loading problem
   of Figure 2b) and alpha-blended by the 16x16 volume-rendering array with
   OBB subtile skipping and per-tile early termination.
"""

from __future__ import annotations

from repro.arch.area import GSCORE_TOTAL_AREA_MM2
from repro.arch.energy import compute_energy_breakdown
from repro.arch.gcc.sort_unit import bitonic_passes
from repro.arch.gscore.config import GScoreConfig
from repro.arch.memory import DramModel
from repro.arch.params import dram_preset
from repro.arch.report import SimulationReport
from repro.arch.units import PipelinedUnit
from repro.gaussians.camera import Camera
from repro.gaussians.model import BYTES_PER_GAUSSIAN, GaussianScene
from repro.gaussians.sh import count_sh_flops
from repro.render.common import RenderConfig
from repro.render.tile_raster import TileWiseResult, render_tilewise

#: Fixed per-frame overhead (configuration load, pipeline fill/drain).
FRAME_OVERHEAD_CYCLES = 2000.0

#: FMA operations per Gaussian in projection (same transform as GCC's Stage II).
PROJECTION_OPS_PER_GAUSSIAN = 120.0
PROJECTION_SFU_PER_GAUSSIAN = 8.0

#: Operations per alpha-evaluated pixel and per blended pixel.
ALPHA_FMA_PER_PIXEL = 4.0
ALPHA_SFU_PER_PIXEL = 1.0
BLEND_FMA_PER_PIXEL = 4.0


class GScoreAccelerator:
    """Analytical model of the GSCore baseline for one rendered frame."""

    def __init__(self, config: GScoreConfig | None = None) -> None:
        self.config = config or GScoreConfig()

    def _render(self, scene: GaussianScene, camera: Camera) -> TileWiseResult:
        """Run the functional tile-wise renderer (GSCore's dataflow)."""
        return render_tilewise(scene, camera, RenderConfig(radius_rule="3sigma"))

    def simulate(
        self,
        scene: GaussianScene,
        camera: Camera,
        render_result: TileWiseResult | None = None,
    ) -> SimulationReport:
        """Simulate one frame; ``render_result`` may be passed to avoid re-rendering."""
        config = self.config
        result = render_result or self._render(scene, camera)
        stats = result.stats

        dram = DramModel(preset=dram_preset(config.dram), tech=config.tech)
        # Phase 1: every 3D Gaussian is streamed in, all 59 floats.
        dram.record("gaussian_3d", stats.num_total * BYTES_PER_GAUSSIAN)
        # Preprocessed 2D Gaussians spilled to DRAM, then re-fetched once per
        # processed Gaussian-tile pair during rendering.
        dram.record("gaussian_2d", stats.num_preprocessed * config.bytes_2d_gaussian)
        dram.record("gaussian_2d", stats.num_pairs_processed * config.bytes_2d_gaussian)
        # Key-value pairs: written after tile assignment, read for sorting and
        # again for rendering.
        dram.record("key_value", stats.num_tile_pairs * config.bytes_key_value * 3)

        # ------------------------------------------------------------------
        # Phase 1: preprocessing cycles.
        # ------------------------------------------------------------------
        cull_unit = PipelinedUnit(
            name="cull", items_per_cycle=float(config.preprocess_units), ops_per_item=6.0
        )
        projection_unit = PipelinedUnit(
            name="projection",
            items_per_cycle=config.preprocess_units / config.projection_cycles_per_gaussian,
            latency_cycles=16,
            ops_per_item=PROJECTION_OPS_PER_GAUSSIAN,
        )
        sh_unit = PipelinedUnit(
            name="sh",
            items_per_cycle=config.sh_units / config.sh_cycles_per_gaussian,
            latency_cycles=8,
            ops_per_item=float(count_sh_flops(1)),
        )
        cull_cycles = cull_unit.process(stats.num_total)
        proj_cycles = projection_unit.process(stats.num_depth_passed)
        sh_cycles = sh_unit.process(stats.num_preprocessed)
        preprocess_compute = cull_cycles + max(proj_cycles, sh_cycles)
        preprocess_dram_bytes = (
            stats.num_total * BYTES_PER_GAUSSIAN
            + stats.num_preprocessed * config.bytes_2d_gaussian
        )
        preprocess_cycles = max(
            preprocess_compute, preprocess_dram_bytes / dram.bytes_per_cycle
        )

        # ------------------------------------------------------------------
        # Phase 2: tile assignment and sorting.
        # ------------------------------------------------------------------
        sorter_cycles_per_element = bitonic_passes(256, config.sort_width) / 256.0
        sort_unit = PipelinedUnit(
            name="sort",
            items_per_cycle=1.0 / max(sorter_cycles_per_element, 1e-9),
            latency_cycles=4,
            ops_per_item=max(sorter_cycles_per_element, 1.0),
        )
        sort_compute = sort_unit.process(stats.num_tile_pairs, batches=max(stats.num_occupied_tiles, 1))
        sort_dram_bytes = stats.num_tile_pairs * config.bytes_key_value * 2
        sort_cycles = max(sort_compute, sort_dram_bytes / dram.bytes_per_cycle)

        # ------------------------------------------------------------------
        # Phase 3: tile-wise rendering.
        # ------------------------------------------------------------------
        vru_alpha = PipelinedUnit(
            name="vru-alpha",
            items_per_cycle=float(config.vru_pes),
            ops_per_item=ALPHA_FMA_PER_PIXEL,
        )
        vru_blend = PipelinedUnit(
            name="vru-blend",
            items_per_cycle=float(config.vru_pes),
            ops_per_item=BLEND_FMA_PER_PIXEL,
        )
        alpha_cycles = vru_alpha.process(stats.alpha_evaluations)
        blend_cycles = vru_blend.process(stats.pixels_blended)
        pair_overhead = stats.num_pairs_processed * config.vru_pair_overhead
        render_compute = alpha_cycles + blend_cycles + pair_overhead
        render_dram_bytes = (
            stats.num_pairs_processed * config.bytes_2d_gaussian
            + stats.num_tile_pairs * config.bytes_key_value
        )
        render_cycles = max(render_compute, render_dram_bytes / dram.bytes_per_cycle)

        total_cycles = (
            preprocess_cycles + sort_cycles + render_cycles + FRAME_OVERHEAD_CYCLES
        )

        # On-chip traffic: staged Gaussian parameters, key-value buffers and
        # the tile-buffer read-modify-write per blended pixel.
        sram_bytes = (
            2 * stats.num_preprocessed * config.bytes_2d_gaussian
            + 2 * stats.num_tile_pairs * config.bytes_key_value
            + stats.alpha_evaluations * 4
            + stats.pixels_blended * config.bytes_per_pixel * 2
        )

        compute_ops = {
            "fma": (
                projection_unit.activity.ops
                + sh_unit.activity.ops
                + vru_alpha.activity.ops
                + vru_blend.activity.ops
            ),
            "sfu": (
                stats.num_depth_passed * PROJECTION_SFU_PER_GAUSSIAN
                + stats.num_preprocessed * 3
                + stats.alpha_evaluations * ALPHA_SFU_PER_PIXEL
            ),
            "cmp": cull_unit.activity.ops + sort_unit.activity.ops,
        }

        frame_time_s = total_cycles / config.tech.clock_hz
        energy = compute_energy_breakdown(
            dram_bytes=dram.traffic.total,
            sram_bytes=sram_bytes,
            compute_ops=compute_ops,
            frame_time_s=frame_time_s,
            energy=config.energy,
            dram=dram.preset,
        )

        stage_cycles = {
            "preprocess": preprocess_cycles,
            "sort": sort_cycles,
            "render": render_cycles,
            "render_compute": render_compute,
            "render_dram": render_dram_bytes / dram.bytes_per_cycle,
        }

        return SimulationReport(
            accelerator="GSCore",
            scene=scene.name,
            clock_hz=config.tech.clock_hz,
            total_cycles=total_cycles,
            stage_cycles=stage_cycles,
            dram_traffic=dram.traffic,
            sram_bytes=sram_bytes,
            compute_ops=compute_ops,
            energy_pj=energy,
            area_mm2=GSCORE_TOTAL_AREA_MM2,
            extra={
                "num_preprocessed": float(stats.num_preprocessed),
                "num_rendered": float(stats.num_rendered),
                "num_tile_pairs": float(stats.num_tile_pairs),
                "num_pairs_processed": float(stats.num_pairs_processed),
                "avg_loads_per_gaussian": stats.avg_loads_per_gaussian,
                "alpha_evaluations": float(stats.alpha_evaluations),
                "pixels_blended": float(stats.pixels_blended),
            },
        )
