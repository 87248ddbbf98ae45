"""Frame-level simulation of the GCC accelerator.

:class:`GccAccelerator` combines the functional Gaussian-wise renderer (which
establishes *what* work a frame requires: Gaussians projected, SH colours
evaluated, blocks traversed, pixels blended) with :func:`gcc_units`, the
table of its hardware modules (which establishes *how long* that work takes
on the Table-4 configuration), and the DRAM/energy models.

The frame latency is::

    T_frame = T_stage1 + max(T_compute_bottleneck, T_dram_stream) + overhead

Stage I (depth computation + grouping) is a standalone pass at the start of
each frame (Section 4.2); the remaining stages are pipelined Gaussian-wise,
so the slower of the compute bottleneck and the DRAM stream determines their
duration — the structure that produces the memory-bound/compute-bound
crossover of Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.area import (
    ALPHA_BLEND_AREA_MM2,
    GCC_TOTAL_AREA_MM2,
    IMAGE_BUFFER_AREA_MM2,
    scaled_alpha_blend_area,
    scaled_image_buffer_area,
)
from repro.arch.gcc.cmode import CmodePlan, plan_cmode
from repro.arch.gcc.config import GccConfig
from repro.arch.memory import PIXEL_STATE_BYTES, DramModel, TrafficCounter
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
from repro.gaussians.model import BYTES_GEOMETRY, BYTES_MEAN, BYTES_SH, GaussianScene
from repro.render.common import GROUP_CAPACITY, RenderConfig
from repro.render.gaussian_raster import GaussianWiseResult, render_gaussianwise
from repro.render.grouping import grouping_comparison_count
from repro.render.preprocess import frustum_cull_depths, project_geometry

#: Bytes per Gaussian of grouping metadata spilled to DRAM (depth + ID).
GROUPING_RECORD_BYTES = 8

#: Sub-view edge length used when Compatibility Mode engages.
CMODE_SUBVIEW = 128

#: Gaussians whose status map and traversal queue the Alpha Unit preloads;
#: only one setup per preload batch is exposed.
ALPHA_PRELOAD_DEPTH = 16


def gcc_units(config: GccConfig) -> dict[str, Unit]:
    """GCC's hardware modules (Section 4, Table 4) as pipelined units."""
    return {
        # Stage I (Section 4.2): four lanes of the shared MVM each produce one
        # view-space depth (a 4-wide dot product) per cycle ...
        "depth_mvm": Unit("depth-mvm", items_per_cycle=4.0, latency_cycles=4, ops_per_item=4.0),
        # ... and the Reconfigurable Comparator Array, four units comparing
        # two Gaussians a cycle each, bins them into depth groups with one
        # comparator and one adder-tree update per comparison.
        "rca": Unit("rca", items_per_cycle=4 * 2.0, latency_cycles=8, ops_per_item=2.0),
        # Stage II (Section 4.3): two Projection Units (PPU + RU + SCU +
        # shared MVM), each issuing one Gaussian a cycle.
        "projection": Unit(
            "projection",
            items_per_cycle=2 / 1.0,
            latency_cycles=16,
            ops_per_item=PROJECTION_FMA_PER_GAUSSIAN,
        ),
        # Stage III: one SH Unit, a Spherical Harmonics Element per colour
        # channel, 16 cycles a Gaussian (16 coefficients per channel).  Under
        # CC it only runs for Gaussians that still reach unsaturated pixels,
        # which is what lets GCC provision one unit where GSCore has four.
        "sh": Unit("sh", items_per_cycle=1 / 16.0, latency_cycles=8, ops_per_item=SH_FMA_PER_GAUSSIAN),
        # Stage III: GSCore's bitonic network reused to order Gaussians
        # within a depth group (at most GROUP_CAPACITY) instead of per tile.
        "sort": bitonic_sorter(GROUP_CAPACITY),
        # Stage IV (Section 4.4): the n x n Alpha Unit evaluates one block
        # (the renderer's block is the PE array) a cycle with a 16-segment
        # EXP LUT; its 14-cycle per-Gaussian setup is paid once per preload
        # batch.
        "alpha": Unit(
            "alpha",
            items_per_cycle=1.0,
            latency_cycles=14,
            ops_per_item=config.alpha_array_pes * ALPHA_FMA_PER_PIXEL,
        ),
        # Stage IV (Section 4.5): the n x n Blending Unit updates one block's
        # transmittance and colour (Equation 4) a cycle.
        "blend": Unit(
            "blend",
            items_per_cycle=1.0,
            latency_cycles=4,
            ops_per_item=config.alpha_array_pes * BLEND_FMA_PER_PIXEL,
        ),
    }


def image_buffer_traffic(blocks_blended: int, block_size: int) -> int:
    """Image Buffer bytes moved: read-modify-write of each blended block."""
    return blocks_blended * block_size * block_size * PIXEL_STATE_BYTES * 2


@dataclass
class GccFrameWork:
    """Work counts extracted from the functional render, after Cmode scaling."""

    num_total: int
    num_stage1_passed: int
    num_projected: int
    num_sh_evaluated: int
    num_groups: int
    sort_elements: int
    blocks_visited: int
    blocks_skipped_tmask: int
    blocks_blended: int
    pixels_blended: int
    alpha_evaluations: int
    cmode: CmodePlan


class GccAccelerator:
    """Analytical model of the GCC accelerator for one rendered frame."""

    def __init__(self, config: GccConfig | None = None) -> None:
        self.config = config or GccConfig()

    # ------------------------------------------------------------------
    # Work extraction
    # ------------------------------------------------------------------
    def _render(self, scene: GaussianScene, camera: Camera) -> GaussianWiseResult:
        """Run the functional Gaussian-wise renderer with this configuration."""
        render_config = RenderConfig(
            radius_rule="omega-sigma", block_size=self.config.alpha_array_size
        )
        boundary = "alpha" if self.config.enable_alpha_boundary else "aabb"
        return render_gaussianwise(
            scene,
            camera,
            render_config,
            enable_cc=self.config.enable_cc,
            boundary_mode=boundary,
        )

    def _frame_work(
        self,
        scene: GaussianScene,
        camera: Camera,
        result: GaussianWiseResult,
    ) -> GccFrameWork:
        """Derive hardware work counts (including Cmode duplication) for a frame."""
        stats = result.stats
        # Cmode bins by screen footprint, so Stages I and II are enough.
        _, keep = frustum_cull_depths(scene, camera)
        geometry = project_geometry(
            scene, camera, keep.nonzero()[0], RenderConfig(radius_rule="omega-sigma")
        )
        cmode = plan_cmode(
            geometry,
            camera.width,
            camera.height,
            self.config.max_resident_pixels(),
            CMODE_SUBVIEW,
        )
        duplication = cmode.duplication_factor if cmode.enabled else 1.0
        return GccFrameWork(
            num_total=stats.num_total,
            num_stage1_passed=stats.num_stage1_passed,
            num_projected=int(round(stats.num_projected * duplication)),
            num_sh_evaluated=int(round(stats.num_sh_evaluated * duplication)),
            num_groups=max(stats.num_groups_processed, 1),
            sort_elements=int(round(stats.sort_elements * duplication)),
            blocks_visited=stats.blocks_visited,
            blocks_skipped_tmask=stats.blocks_skipped_tmask,
            blocks_blended=stats.blocks_evaluated,
            pixels_blended=stats.pixels_blended,
            alpha_evaluations=stats.alpha_evaluations,
            cmode=cmode,
        )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        scene: GaussianScene,
        camera: Camera,
        render_result: GaussianWiseResult | None = None,
    ) -> SimulationReport:
        """Simulate one frame; ``render_result`` may be passed to avoid re-rendering."""
        config = self.config
        result = render_result or self._render(scene, camera)
        work = self._frame_work(scene, camera, result)

        units = gcc_units(config)
        dram = DramModel(preset=dram_preset(config.dram))
        dram.record("gaussian_3d", work.num_total * BYTES_MEAN)
        dram.record("gaussian_3d", work.num_projected * BYTES_GEOMETRY)
        dram.record("gaussian_3d", work.num_sh_evaluated * BYTES_SH)
        dram.record("grouping", work.num_stage1_passed * GROUPING_RECORD_BYTES * 2)

        # Stage I: standalone grouping pass; the depth MVM and the RCA run
        # back-to-back, so their cycles add.
        comparisons = grouping_comparison_count(work.num_stage1_passed)
        stage1_compute = units["depth_mvm"].cycles(work.num_total) + units["rca"].cycles(
            comparisons
        )
        stage1_dram_bytes = work.num_total * BYTES_MEAN + (
            work.num_stage1_passed * GROUPING_RECORD_BYTES * 2
        )
        stage1_dram = stage1_dram_bytes / dram.bytes_per_cycle
        stage1_cycles = max(stage1_compute, stage1_dram)

        # Stages II-IV: pipelined Gaussian-wise processing.  Blocks whose
        # transmittance mask is already saturated never enter the PE array
        # (the status map marks them pruned), so only the remaining block
        # passes are charged to the Alpha Unit; the per-Gaussian setup is
        # exposed once per preload batch.
        alpha_block_passes = max(work.blocks_visited - work.blocks_skipped_tmask, 0)
        exposed_setups = max(work.num_sh_evaluated // ALPHA_PRELOAD_DEPTH, 1)
        unit_cycles = {
            "projection": units["projection"].cycles(work.num_projected),
            "sh": units["sh"].cycles(work.num_sh_evaluated),
            "sort": units["sort"].cycles(work.sort_elements, batches=work.num_groups),
            "alpha": units["alpha"].cycles(alpha_block_passes, batches=exposed_setups),
            "blend": units["blend"].cycles(work.blocks_blended),
        }
        pipeline_dram_bytes = (
            work.num_projected * BYTES_GEOMETRY + work.num_sh_evaluated * BYTES_SH
        )
        pipeline_dram = pipeline_dram_bytes / dram.bytes_per_cycle
        pipeline_cycles = max(max(unit_cycles.values()), pipeline_dram)

        total_cycles = stage1_cycles + pipeline_cycles + FRAME_OVERHEAD_CYCLES

        # On-chip traffic.
        sram_bytes = (
            # Shared + SH buffers: parameters staged on-chip (write + read).
            2 * (work.num_projected * BYTES_GEOMETRY + work.num_sh_evaluated * BYTES_SH)
            # Sorted buffer: depth/ID records.
            + 2 * work.sort_elements * GROUPING_RECORD_BYTES
            # Image buffer: read-modify-write per blended block.
            + image_buffer_traffic(work.blocks_blended, config.alpha_array_size)
        )

        compute_ops = {
            "fma": (
                units["depth_mvm"].ops(work.num_total)
                + units["projection"].ops(work.num_projected)
                + units["sh"].ops(work.num_sh_evaluated)
                + units["alpha"].ops(alpha_block_passes)
                + units["blend"].ops(work.blocks_blended)
            ),
            "sfu": (
                work.num_projected * PROJECTION_SFU_PER_GAUSSIAN
                + work.num_sh_evaluated * SH_SFU_PER_GAUSSIAN
                + work.alpha_evaluations * ALPHA_SFU_PER_PIXEL
            ),
            "cmp": units["rca"].ops(comparisons) + units["sort"].ops(work.sort_elements),
        }

        stage_cycles = {
            "stage1_grouping": stage1_cycles,
            **unit_cycles,
            "dram_stream": pipeline_dram,
            "pipeline": pipeline_cycles,
        }

        return frame_report(
            "GCC",
            scene.name,
            total_cycles,
            stage_cycles,
            dram,
            sram_bytes,
            compute_ops,
            self.effective_area_mm2(),
            extra={
                "cmode_enabled": float(work.cmode.enabled),
                "cmode_duplication": work.cmode.duplication_factor,
                "num_projected": float(work.num_projected),
                "num_sh_evaluated": float(work.num_sh_evaluated),
                "alpha_evaluations": float(work.alpha_evaluations),
                "pixels_blended": float(work.pixels_blended),
                "blocks_visited": float(work.blocks_visited),
                "num_rendered": float(result.stats.num_rendered),
            },
        )

    def effective_area_mm2(self) -> float:
        """Total area of this configuration.

        The default configuration returns the paper's 2.711 mm^2; non-default
        image-buffer or PE-array sizes scale the respective components (used
        by the Figure 13 design-space exploration).
        """
        area = GCC_TOTAL_AREA_MM2
        default = GccConfig()
        if self.config.image_buffer_bytes != default.image_buffer_bytes:
            area += scaled_image_buffer_area(self.config.image_buffer_bytes) - IMAGE_BUFFER_AREA_MM2
        if self.config.alpha_array_size != default.alpha_array_size:
            area += scaled_alpha_blend_area(self.config.alpha_array_size) - ALPHA_BLEND_AREA_MM2
        return area


@dataclass
class TrafficSummary:
    """Helper view of the DRAM traffic split used in Figure 11(b)."""

    gaussian_3d: int
    gaussian_2d: int
    key_value: int

    @classmethod
    def from_counter(cls, counter: TrafficCounter) -> "TrafficSummary":
        return cls(
            gaussian_3d=counter.gaussian_3d + counter.grouping,
            gaussian_2d=counter.gaussian_2d + counter.framebuffer,
            key_value=counter.key_value,
        )

    @property
    def total(self) -> int:
        return self.gaussian_3d + self.gaussian_2d + self.key_value
