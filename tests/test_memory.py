"""Peak-memory bounds of the forward pass and the synthetic generator.

``tracemalloc`` sees numpy's array buffers, so each peak is a byte count that
comes out the same on every run, not a timing. The peaks count only what the
call allocates: its inputs exist before tracing starts.
"""

import tracemalloc

import numpy as np

from cclearn.data import SynthConfig, generate_blobs
from cclearn.model import forward, init_params


def peak_bytes(fn, *args) -> int:
    """The most memory traced at once while ``fn(*args)`` runs and returns."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_peaks_at_one_buffer_per_layer():
    rows = 20000
    params = init_params(64, (64, 64), 32, 10, 0)
    x = np.random.default_rng(0).standard_normal((rows, 64))
    # the cache keeps 64 + 64 + 32 + 32 + 1 float64 per row and the logits 10
    assert peak_bytes(forward, params, x) / (8 * rows) <= 230


def test_generate_blobs_peaks_at_three_tables():
    config = SynthConfig(input_dim=64, samples_per_class=5000)
    table_bytes = 8 * 4 * 5000 * 64
    for domain in ("source", "target"):
        # the deviations, the noise and the table itself
        assert peak_bytes(generate_blobs, config, domain) <= 3.5 * table_bytes, domain
