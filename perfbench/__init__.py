"""End-to-end, layer-by-layer benchmark of the engine; see run.py."""
