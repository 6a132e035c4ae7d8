"""Configuration of the checkpoint path — the knobs behind Table I.

Each field selects between a stock-CRIU behaviour and the NiLiCon
optimization that replaced it.  :meth:`CriuConfig.stock` and
:meth:`CriuConfig.nilicon` give the two endpoints; the Table I experiment
walks between them one optimization at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

__all__ = ["CriuConfig"]


@dataclass(frozen=True)
class CriuConfig:
    """Checkpoint-path option set (immutable; use :func:`dataclasses.replace`)."""

    #: VMA enumeration interface (§V-D deficiency 1): /proc/pid/smaps vs the
    #: task-diag netlink patch.
    vma_source: Literal["smaps", "netlink"] = "netlink"
    #: Dirty-page transport out of the parasite (§V-D deficiency 3).
    parasite_transport: Literal["pipe", "shm"] = "shm"
    #: Freeze wait: stock CRIU sleeps 100 ms; NiLiCon polls (§V-A).
    freeze_poll: bool = True
    #: File-system cache handling (§III): NiLiCon's fgetfc/DNC vs CRIU's
    #: flush-everything-to-NAS.
    fs_cache_mode: Literal["fgetfc", "nas_flush"] = "fgetfc"
    #: Cache infrequently-modified in-kernel state, invalidated by ftrace
    #: hooks (§V-B), vs recollect everything each epoch.
    cache_infrequent_state: bool = True
    #: Whether proxy processes intermediate the transfer (stock CRIU) or the
    #: primary agent streams directly to the backup agent (§V-A).
    use_proxy_processes: bool = False
    #: Apply the repaired-socket minimum-RTO kernel patch (§V-E).
    repair_rto_patch: bool = True

    @classmethod
    def stock(cls) -> "CriuConfig":
        """Stock CRIU 3.11 + unmodified kernel (the 'Basic implementation')."""
        return cls(
            vma_source="smaps",
            parasite_transport="pipe",
            freeze_poll=False,
            fs_cache_mode="nas_flush",
            cache_infrequent_state=False,
            use_proxy_processes=True,
            repair_rto_patch=False,
        )

    @classmethod
    def nilicon(cls) -> "CriuConfig":
        """All NiLiCon optimizations enabled (the defaults)."""
        return cls()

    def with_(self, **kw) -> "CriuConfig":
        """Convenience wrapper around :func:`dataclasses.replace`."""
        return replace(self, **kw)
