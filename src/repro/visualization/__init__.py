"""Dependency-free ASCII visualization of layouts, circuits and sweep data.

The evaluation environment has no plotting stack, so the examples and the
benchmark harness render their figures as text: bar charts for per-benchmark
γ values, line plots for depth sweeps (Fig. 11), heatmaps for the win-percentage
grid (Fig. 5), a tile-grid view of the proposed layout (Fig. 3) and a compact
circuit drawer.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ascii": ["ascii_bar_chart", "ascii_heatmap", "ascii_line_plot",
              "draw_circuit", "render_layout"],
})
