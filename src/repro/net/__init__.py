"""Real TCP client/server transport (§2: sockets over TCP/IP).

Fault tolerance lives here too: per-server connection pools with
auto-reconnect and health states (:mod:`repro.net.client`) and the
fault-injecting :class:`ChaosProxy` tests drive them with
(:mod:`repro.net.chaos`).
"""

from ..util import lazy_exports

# a server loads only :mod:`.server`, and a client only :mod:`.client`
__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".server": ("DPFSServer",),
        ".client": ("ServerConnection", "ServerHealth", "RemoteBackend"),
        ".chaos": ("ChaosProxy",),
        ".protocol": ("send_message", "recv_message"),
    },
)
