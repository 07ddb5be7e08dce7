"""Small shared utilities: seeded RNG helpers and text-table rendering."""

from repro.utils.rng import as_rng, default_rngs, spawn_seeds
from repro.utils.tables import render_table

__all__ = ["as_rng", "default_rngs", "spawn_seeds", "render_table"]
