"""The allocator-backend registry: one interface over every allocator.

Every allocator in the repo — the paper's combined allocator, the §2.2
related-work baselines, and new drop-ins like the host-based design —
registers here as a :class:`Backend`.  Consumers (the shootout and fig
benches, the perf suite, verify scenarios, resil decks, the conformance
suite) resolve backends *by name* and speak only to the
:class:`BackendHandle` a backend builds, so adding an allocator never
touches bench or harness code again.

The contract a handle promises (pinned by :mod:`repro.backends.conformance`):

* ``malloc(ctx, nbytes)`` is a kernel generator returning an address or
  ``DeviceMemory.NULL``; it never raises for sizes the backend cannot
  serve (invalid and oversized requests return NULL).
* ``free(ctx, addr)`` is a kernel generator; ``free(NULL)`` is a no-op;
  an address outside the pool either raises the backend's
  :class:`~repro.sim.errors.SimError` subclass or is a *documented*
  counted no-op (``caps.invalid_free == "counted-noop"``) — never
  silent corruption.
* returned addresses are ``caps.alignment``-aligned;
* the host audit hooks (``used_bytes``, ``host_check``,
  ``host_checkpoint``) are callable at quiescence and exact to the
  degree ``caps`` advertises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.device import GPUDevice
from ..sim.memory import DeviceMemory


@dataclass(frozen=True)
class BackendCaps:
    """What a backend can and cannot do (drives the conformance deck)."""

    #: free actually recycles memory (the bump pointer's is a no-op)
    supports_free: bool = True
    #: the handle exposes a warp-coalescing malloc entry point
    supports_coalesced: bool = False
    #: largest request the backend serves (None = pool-bounded)
    max_alloc: Optional[int] = None
    #: guaranteed alignment of every returned address
    alignment: int = 8
    #: "raises" or "counted-noop" — behaviour for in-pool invalid frees.
    #: Out-of-pool frees always raise (silent corruption is banned).
    invalid_free: str = "raises"
    #: a second free of the same address is detected and raises
    detects_double_free: bool = True
    #: used_bytes() tracks live bytes exactly (bump's is a high-water mark)
    exact_used_bytes: bool = True
    #: the verify RaceChecker knows this allocator's internal protocols
    race_checkable: bool = False


class BackendHandle:
    """A built backend: kernel entry points plus host audit hooks.

    Ducks as the ``allocator`` argument every workload builder takes
    (``.malloc`` / ``.free`` attributes are the kernel generators).
    """

    def __init__(self, name: str, allocator: object, caps: BackendCaps,
                 malloc: Callable, free: Callable,
                 pool_base: int, pool_size: int,
                 malloc_coalesced: Optional[Callable] = None,
                 used_bytes: Optional[Callable[[], int]] = None,
                 host_check: Optional[Callable[[], None]] = None,
                 invalid_free_count: Optional[Callable[[], int]] = None,
                 checkpoint: Optional[Callable[[bool], None]] = None):
        self.name = name
        self.allocator = allocator
        self.caps = caps
        self.malloc = malloc
        self.free = free
        self.malloc_coalesced = malloc_coalesced
        self.pool_base = pool_base
        self.pool_size = pool_size
        self._used_bytes = used_bytes
        self._host_check = host_check
        self._invalid_free_count = invalid_free_count
        self._checkpoint = checkpoint

    # -- host-side audit hooks -----------------------------------------
    def used_bytes(self) -> int:
        """Bytes currently handed out (quiescent only; see
        ``caps.exact_used_bytes``).  Backends without an audit return -1,
        which the conformance suite treats as a contract violation."""
        return self._used_bytes() if self._used_bytes else -1

    def host_check(self) -> None:
        """Validate the backend's structural invariants (quiescent only)."""
        if self._host_check is not None:
            self._host_check()

    def invalid_free_count(self) -> int:
        """Invalid frees absorbed as counted no-ops (0 for backends that
        raise instead)."""
        return self._invalid_free_count() if self._invalid_free_count else 0

    def host_checkpoint(self, expect_leak_free: bool = False) -> None:
        """Quiescent checkpoint: structural invariants plus (optionally)
        leak accounting.  Backends with their own checkpoint (the paper
        allocator) run it; everyone else gets the generic
        ``host_check`` + ``used_bytes() == 0`` contract."""
        if self._checkpoint is not None:
            self._checkpoint(expect_leak_free)
            return
        self.host_check()
        if expect_leak_free and self.caps.supports_free:
            used = self.used_bytes()
            assert used == 0, (
                f"[{self.name}] leak: {used} bytes still handed out at a "
                "full-free checkpoint"
            )


@dataclass(frozen=True)
class Backend:
    """One registered allocator design."""

    #: registry key (lowercase, no spaces — CLI / spec friendly)
    name: str
    #: human label used in bench tables (kept for artifact stability)
    display: str
    description: str
    #: (mem, device, pool_bytes) -> BackendHandle
    builder: Callable[[DeviceMemory, GPUDevice, int], BackendHandle]
    #: alternate lookup names (e.g. historic bench display labels)
    aliases: tuple = field(default=())

    def build(self, mem: DeviceMemory, device: GPUDevice, pool: int,
              checked: bool = True) -> BackendHandle:
        """Construct the allocator over a ``pool``-byte heap.

        ``checked`` is accepted and ignored: no backend has a checked
        mode, and callers written against the older signature still
        pass it.
        """
        return self.builder(mem, device, pool)


_REGISTRY: Dict[str, Backend] = {}
_ALIASES: Dict[str, str] = {}


class UnknownBackend(KeyError):
    """Lookup of a name no backend registered."""


def register(backend: Backend) -> Backend:
    """Add a backend; duplicate names or aliases are programming errors."""
    name = backend.name.lower()
    keys = {name}
    keys.update(k.lower() for k in (backend.display, *backend.aliases))
    for key in keys:
        if key in _REGISTRY or key in _ALIASES:
            raise ValueError(f"backend name {key!r} already registered")
    _REGISTRY[name] = backend
    for alias in keys - {name}:
        _ALIASES[alias] = name
    return backend


def get(name: str) -> Backend:
    """Resolve a backend by registry name, display label, or alias."""
    norm = name.strip().lower()
    norm = _ALIASES.get(norm, norm)
    try:
        return _REGISTRY[norm]
    except KeyError:
        raise UnknownBackend(
            f"unknown backend {name!r}; registered: {', '.join(names())}"
        ) from None


def names() -> List[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def build(name: str, mem: DeviceMemory, device: GPUDevice,
          pool: int) -> BackendHandle:
    """``get(name).build(...)`` in one call."""
    return get(name).build(mem, device, pool)


def build_standalone(name: str, device: GPUDevice,
                     pool: int) -> Tuple[DeviceMemory, BackendHandle]:
    """Backend ``name`` over a ``pool``-byte heap on fresh memory of its
    own: ``(mem, handle)``.

    The memory is sized generously around the heap (four pools plus
    8 MB for metadata and mailboxes); it is mapped lazily, so the slack
    costs only what gets touched.
    """
    mem = DeviceMemory(pool * 4 + (8 << 20))
    return mem, build(name, mem, device, pool)


def pool_error(name: str, pool: int) -> Optional[str]:
    """Why backend ``name`` cannot manage a ``pool``-byte heap, or ``None``.

    Each backend's constructor is the one authority on the heap sizes it
    accepts, so this builds one on scratch memory (mapped lazily, so the
    trial costs only the metadata it touches) and reports its refusal.
    """
    try:
        build_standalone(name, GPUDevice(), pool)
    except ValueError as e:
        return f"{name} cannot use {pool} bytes: {e}"
    return None
