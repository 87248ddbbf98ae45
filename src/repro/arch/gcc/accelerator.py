"""Frame-level simulation of the GCC accelerator.

:class:`GccAccelerator` combines the functional Gaussian-wise renderer (which
establishes *what* work a frame requires: Gaussians projected, SH colours
evaluated, blocks traversed, pixels blended) with the per-module cycle models
in this package (which establish *how long* that work takes on the Table-4
configuration) and the DRAM/energy models.

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

from repro.arch.area import GCC_TOTAL_AREA_MM2, scaled_alpha_blend_area, scaled_image_buffer_area
from repro.arch.energy import compute_energy_breakdown
from repro.arch.gcc.alpha_unit import ALPHA_SFU_PER_PIXEL, alpha_cycles
from repro.arch.gcc.blending_unit import blending_cycles, image_buffer_traffic
from repro.arch.gcc.cmode import CmodePlan, plan_cmode
from repro.arch.gcc.config import GccConfig
from repro.arch.gcc.projection_unit import PROJECTION_SFU_PER_GAUSSIAN, projection_cycles
from repro.arch.gcc.rca import grouping_cycles
from repro.arch.gcc.sh_unit import sh_cycles
from repro.arch.gcc.sort_unit import sort_cycles
from repro.arch.memory import DramModel, TrafficCounter
from repro.arch.params import dram_preset
from repro.arch.report import SimulationReport
from repro.gaussians.camera import Camera
from repro.gaussians.model import BYTES_GEOMETRY, BYTES_MEAN, BYTES_SH, GaussianScene
from repro.render.common import RenderConfig
from repro.render.gaussian_raster import GaussianWiseResult, render_gaussianwise
from repro.render.preprocess import frustum_cull_depths, project_geometry

#: Fixed per-frame control/drain overhead in cycles (frame setup, pipeline
#: fill and final Image Buffer read-out).
FRAME_OVERHEAD_CYCLES = 2000.0

#: Bytes per Gaussian of grouping metadata spilled to DRAM (depth + ID).
GROUPING_RECORD_BYTES = 8


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
            self.config.cmode_subview,
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

        dram = DramModel(preset=dram_preset(config.dram), tech=config.tech)
        dram.record("gaussian_3d", work.num_total * BYTES_MEAN)
        dram.record("gaussian_3d", work.num_projected * BYTES_GEOMETRY)
        dram.record("gaussian_3d", work.num_sh_evaluated * BYTES_SH)
        dram.record("grouping", work.num_stage1_passed * GROUPING_RECORD_BYTES * 2)

        # Stage I: standalone grouping pass.
        stage1_compute, stage1_detail = grouping_cycles(
            config, work.num_total, work.num_stage1_passed
        )
        stage1_dram_bytes = work.num_total * BYTES_MEAN + (
            work.num_stage1_passed * GROUPING_RECORD_BYTES * 2
        )
        stage1_dram = stage1_dram_bytes / dram.bytes_per_cycle
        stage1_cycles = max(stage1_compute, stage1_dram)

        # Stages II-IV: pipelined Gaussian-wise processing.
        proj_cycles, proj_detail = projection_cycles(config, work.num_projected)
        sh_cy, sh_detail = sh_cycles(config, work.num_sh_evaluated)
        sort_cy, sort_detail = sort_cycles(config, work.sort_elements, work.num_groups)
        # Blocks whose transmittance mask is already saturated never enter the
        # PE array (the status map marks them pruned), so only the remaining
        # block passes are charged to the Alpha Unit.
        alpha_block_passes = max(work.blocks_visited - work.blocks_skipped_tmask, 0)
        alpha_cy, alpha_detail = alpha_cycles(
            config, alpha_block_passes, work.num_sh_evaluated, config.alpha_array_size
        )
        blend_cy, blend_detail = blending_cycles(
            config, work.blocks_blended, config.alpha_array_size
        )
        pipeline_dram_bytes = (
            work.num_projected * BYTES_GEOMETRY + work.num_sh_evaluated * BYTES_SH
        )
        pipeline_dram = pipeline_dram_bytes / dram.bytes_per_cycle
        compute_bottleneck = max(proj_cycles, sh_cy, sort_cy, alpha_cy, blend_cy)
        pipeline_cycles = max(compute_bottleneck, pipeline_dram)

        total_cycles = stage1_cycles + pipeline_cycles + FRAME_OVERHEAD_CYCLES

        # On-chip traffic.
        block_px = config.alpha_array_size * config.alpha_array_size
        sram_bytes = (
            # Shared + SH buffers: parameters staged on-chip (write + read).
            2 * (work.num_projected * BYTES_GEOMETRY + work.num_sh_evaluated * BYTES_SH)
            # Sorted buffer: depth/ID records.
            + 2 * work.sort_elements * GROUPING_RECORD_BYTES
            # Image buffer: read-modify-write per blended block.
            + image_buffer_traffic(
                work.blocks_blended, config.alpha_array_size, config.bytes_per_pixel
            )
        )

        compute_ops = {
            "fma": (
                stage1_detail["depth_mvm_ops"]
                + proj_detail["projection_fma_ops"]
                + sh_detail["sh_fma_ops"]
                + alpha_detail["alpha_fma_ops"]
                + blend_detail["blend_fma_ops"]
            ),
            "sfu": (
                proj_detail["projection_sfu_ops"]
                + sh_detail["sh_sfu_ops"]
                + work.alpha_evaluations * ALPHA_SFU_PER_PIXEL
            ),
            "cmp": stage1_detail["rca_ops"] + sort_detail["sort_cmp_ops"],
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
            "stage1_grouping": stage1_cycles,
            "projection": proj_cycles,
            "sh": sh_cy,
            "sort": sort_cy,
            "alpha": alpha_cy,
            "blend": blend_cy,
            "dram_stream": pipeline_dram,
            "pipeline": pipeline_cycles,
        }

        area = self.effective_area_mm2()
        report = SimulationReport(
            accelerator="GCC",
            scene=scene.name,
            clock_hz=config.tech.clock_hz,
            total_cycles=total_cycles,
            stage_cycles=stage_cycles,
            dram_traffic=dram.traffic,
            sram_bytes=sram_bytes,
            compute_ops=compute_ops,
            energy_pj=energy,
            area_mm2=area,
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
        return report

    def effective_area_mm2(self) -> float:
        """Total area of this configuration.

        The default configuration returns the paper's 2.711 mm^2; non-default
        image-buffer or PE-array sizes scale the respective components (used
        by the Figure 13 design-space exploration).
        """
        area = GCC_TOTAL_AREA_MM2
        default = GccConfig()
        if self.config.image_buffer_bytes != default.image_buffer_bytes:
            area += scaled_image_buffer_area(self.config.image_buffer_bytes) - 0.872
        if self.config.alpha_array_size != default.alpha_array_size:
            area += scaled_alpha_blend_area(self.config.alpha_array_size) - (0.576 + 0.382)
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
