"""Pluggable allocator backends (registry + conformance contract).

Every allocator design in the repo registers here under a stable name;
benches, the perf suite, and the verify/resil harnesses resolve
backends by name and drive the uniform :class:`BackendHandle` they
build.  See DESIGN.md §11.

>>> from repro import backends
>>> backends.names()
['ours', 'ours-coalesced', 'cuda', 'xmalloc', 'scatteralloc',
 'lock-buddy', 'bump', 'hostbased']
"""

from . import builders  # noqa: F401  -- registration side effects
from .hostbased import HostBasedAllocator, HostBasedError
from .registry import (
    Backend,
    BackendCaps,
    BackendHandle,
    UnknownBackend,
    build,
    build_standalone,
    get,
    names,
    pool_error,
    register,
)

__all__ = [
    "Backend",
    "BackendCaps",
    "BackendHandle",
    "HostBasedAllocator",
    "HostBasedError",
    "UnknownBackend",
    "build",
    "build_standalone",
    "get",
    "names",
    "pool_error",
    "register",
]
