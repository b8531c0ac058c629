"""Storage backends: memory, local-directory, remote-TCP, simulated,
plus a fault-injection wrapper for tests."""

from ..util import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".base": ("StorageBackend", "ServerInfo"),
        ".memory": ("MemoryBackend",),
        ".local": ("LocalBackend",),
        ".simulated": ("SimulatedBackend",),
        ".faulty": ("FaultyBackend", "InjectedFault", "TransientFault"),
    },
)
