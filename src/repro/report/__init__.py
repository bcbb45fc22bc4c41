"""Text rendering of networks, routes and experiment tables."""

from repro.report.ascii import render_network, render_routes, render_stage_profile
from repro.report.serialize import save_json
from repro.report.tables import format_value, render_table, write_csv

__all__ = [
    "format_value",
    "save_json",
    "render_network",
    "render_routes",
    "render_stage_profile",
    "render_table",
    "write_csv",
]
