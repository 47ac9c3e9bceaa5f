"""Seeded benchmark of the trace -> predict -> simulate pipeline."""
