"""peak_rss_mb: the peak since set-up began, net of the benchmark's own data."""

import os

import pytest

from measure import PeakRss

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/clear_refs"), reason="needs Linux /proc"
)


def test_memory_held_before_the_reset_is_not_counted():
    held = bytearray(64 * 1024 * 1024)  # benchmark data, resident before set-up
    held[::4096] = b"x" * len(held[::4096])
    warnings = []
    peak = PeakRss(warnings)
    assert peak.exact and not warnings
    assert peak.baseline_kib / 1024.0 >= 64
    assert peak.mb() < 16
    del held


def test_memory_allocated_after_the_reset_is_counted_after_release():
    peak = PeakRss([])
    block = bytearray(32 * 1024 * 1024)
    block[::4096] = b"x" * len(block[::4096])
    del block
    assert peak.mb() >= 30
