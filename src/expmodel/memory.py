"""Bytes this process may still allocate, for up-front size checks."""

from __future__ import annotations

import os
import resource


def mapped_bytes() -> int:
    """Address space this process has mapped; 0 where /proc/self/statm is absent."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def memory_limit() -> int:
    """Physical memory, capped by what the soft RLIMIT_AS leaves beyond the
    address space already mapped."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft - mapped_bytes())
    return limit
