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
from repro.arch.gscore.config import GScoreConfig
from repro.arch.memory import PIXEL_STATE_BYTES, DramModel
from repro.arch.params import dram_preset
from repro.arch.report import SimulationReport, frame_report
from repro.arch.units import (
    ALPHA_FMA_PER_PIXEL,
    ALPHA_SFU_PER_PIXEL,
    BLEND_FMA_PER_PIXEL,
    FRAME_OVERHEAD_CYCLES,
    PROJECTION_FMA_PER_GAUSSIAN,
    PROJECTION_SFU_PER_GAUSSIAN,
    SH_FMA_PER_GAUSSIAN,
    SH_SFU_PER_GAUSSIAN,
    Unit,
    bitonic_sorter,
)
from repro.gaussians.camera import Camera
from repro.gaussians.model import BYTES_PER_GAUSSIAN, GaussianScene
from repro.render.common import RenderConfig
from repro.render.tile_raster import TileWiseResult, render_tilewise

#: Bytes of the 2D (projected) Gaussian record exchanged with DRAM.
BYTES_2D_GAUSSIAN = 80
#: Bytes per Gaussian-tile key-value pair.
BYTES_KEY_VALUE = 8
#: Fixed per-pair overhead in the Volume Rendering Unit (fetch + setup), cycles.
VRU_PAIR_OVERHEAD_CYCLES = 2.0


def gscore_units() -> dict[str, Unit]:
    """GSCore's published configuration as pipelined units.

    Four-way culling, conversion and SH (the parallelism the GCC paper says
    its balanced dataflow lets it cut to 2-way/1-way), a 16-element bitonic
    sorter and a 16x16-pixel volume rendering array.
    """
    return {
        # Four culling lanes, one frustum test (six comparisons) a cycle each.
        "cull": Unit("cull", items_per_cycle=4.0, ops_per_item=6.0),
        # Four conversion (projection) lanes, one Gaussian a cycle each; the
        # same Stage-II transform as GCC's Projection Unit.
        "projection": Unit(
            "projection",
            items_per_cycle=4 / 1.0,
            latency_cycles=16,
            ops_per_item=PROJECTION_FMA_PER_GAUSSIAN,
        ),
        # Four SH lanes, 16 cycles a Gaussian (16 coefficients per channel).
        "sh": Unit("sh", items_per_cycle=4 / 16.0, latency_cycles=8, ops_per_item=SH_FMA_PER_GAUSSIAN),
        # The bitonic network over per-tile key-value lists of 256 elements.
        "sort": bitonic_sorter(256),
        # The Volume Rendering Unit's 256 PEs: one alpha evaluation ...
        "vru_alpha": Unit("vru-alpha", items_per_cycle=256.0, ops_per_item=ALPHA_FMA_PER_PIXEL),
        # ... or one blended pixel per PE per cycle.
        "vru_blend": Unit("vru-blend", items_per_cycle=256.0, ops_per_item=BLEND_FMA_PER_PIXEL),
    }


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

        units = gscore_units()
        dram = DramModel(preset=dram_preset(config.dram))
        # Phase 1: every 3D Gaussian is streamed in, all 59 floats.
        dram.record("gaussian_3d", stats.num_total * BYTES_PER_GAUSSIAN)
        # Preprocessed 2D Gaussians spilled to DRAM, then re-fetched once per
        # processed Gaussian-tile pair during rendering.
        dram.record("gaussian_2d", stats.num_preprocessed * BYTES_2D_GAUSSIAN)
        dram.record("gaussian_2d", stats.num_pairs_processed * BYTES_2D_GAUSSIAN)
        # Key-value pairs: written after tile assignment, read for sorting and
        # again for rendering.
        dram.record("key_value", stats.num_tile_pairs * BYTES_KEY_VALUE * 3)

        # ------------------------------------------------------------------
        # Phase 1: preprocessing cycles.
        # ------------------------------------------------------------------
        proj_cycles = units["projection"].cycles(stats.num_depth_passed)
        sh_cycles = units["sh"].cycles(stats.num_preprocessed)
        preprocess_compute = units["cull"].cycles(stats.num_total) + max(proj_cycles, sh_cycles)
        preprocess_dram_bytes = (
            stats.num_total * BYTES_PER_GAUSSIAN + stats.num_preprocessed * BYTES_2D_GAUSSIAN
        )
        preprocess_cycles = max(
            preprocess_compute, preprocess_dram_bytes / dram.bytes_per_cycle
        )

        # ------------------------------------------------------------------
        # Phase 2: tile assignment and sorting.
        # ------------------------------------------------------------------
        sort_compute = units["sort"].cycles(
            stats.num_tile_pairs, batches=stats.num_occupied_tiles
        )
        sort_dram_bytes = stats.num_tile_pairs * BYTES_KEY_VALUE * 2
        sort_cycles = max(sort_compute, sort_dram_bytes / dram.bytes_per_cycle)

        # ------------------------------------------------------------------
        # Phase 3: tile-wise rendering.
        # ------------------------------------------------------------------
        render_compute = (
            units["vru_alpha"].cycles(stats.alpha_evaluations)
            + units["vru_blend"].cycles(stats.pixels_blended)
            + stats.num_pairs_processed * VRU_PAIR_OVERHEAD_CYCLES
        )
        render_dram_bytes = (
            stats.num_pairs_processed * BYTES_2D_GAUSSIAN
            + stats.num_tile_pairs * BYTES_KEY_VALUE
        )
        render_cycles = max(render_compute, render_dram_bytes / dram.bytes_per_cycle)

        total_cycles = (
            preprocess_cycles + sort_cycles + render_cycles + FRAME_OVERHEAD_CYCLES
        )

        # On-chip traffic: staged Gaussian parameters, key-value buffers and
        # the tile-buffer read-modify-write per blended pixel.
        sram_bytes = (
            2 * stats.num_preprocessed * BYTES_2D_GAUSSIAN
            + 2 * stats.num_tile_pairs * BYTES_KEY_VALUE
            + stats.alpha_evaluations * 4
            + stats.pixels_blended * PIXEL_STATE_BYTES * 2
        )

        compute_ops = {
            "fma": (
                units["projection"].ops(stats.num_depth_passed)
                + units["sh"].ops(stats.num_preprocessed)
                + units["vru_alpha"].ops(stats.alpha_evaluations)
                + units["vru_blend"].ops(stats.pixels_blended)
            ),
            "sfu": (
                stats.num_depth_passed * PROJECTION_SFU_PER_GAUSSIAN
                + stats.num_preprocessed * SH_SFU_PER_GAUSSIAN
                + stats.alpha_evaluations * ALPHA_SFU_PER_PIXEL
            ),
            "cmp": units["cull"].ops(stats.num_total) + units["sort"].ops(stats.num_tile_pairs),
        }

        stage_cycles = {
            "preprocess": preprocess_cycles,
            "sort": sort_cycles,
            "render": render_cycles,
            "render_compute": render_compute,
            "render_dram": render_dram_bytes / dram.bytes_per_cycle,
        }

        return frame_report(
            "GSCore",
            scene.name,
            total_cycles,
            stage_cycles,
            dram,
            sram_bytes,
            compute_ops,
            GSCORE_TOTAL_AREA_MM2,
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
