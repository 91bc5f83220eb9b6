"""Standard simulated testbed.

Reproduces the paper's machine (§4.1.2): a 32-processor Linux cluster on
gigabit Ethernet, a parallel file system striping over RAID-5 storage
(64 KiB stripes, 252 drives total), an NFS-served home directory, and
node-local scratch.  Every experiment builds a *fresh* testbed (same seed
⇒ identical machine), so traced and untraced runs start from identical
state.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.cluster import Cluster
from repro.machine import TestbedConfig
from repro.simfs.localfs import LocalFS
from repro.simfs.nfs import NFS
from repro.simfs.pfs import ParallelFS
from repro.simfs.vfs import VFS

__all__ = ["Testbed", "build_testbed"]


class Testbed:
    """An assembled machine: cluster + VFS with mounted file systems."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, config: Optional[TestbedConfig] = None):
        self.config = config or TestbedConfig()
        self.cluster = Cluster(self.config.cluster)
        sim = self.cluster.sim
        self.vfs = VFS(sim)
        self.pfs = ParallelFS(sim, self.cluster.network, self.config.pfs, name="pfs")
        self.vfs.mount(self.config.pfs_mount, self.pfs)
        self.nfs: Optional[NFS] = None
        if self.config.with_nfs:
            self.nfs = NFS(sim, self.cluster.network, name="home")
            self.vfs.mount(self.config.nfs_mount, self.nfs)
        self.scratch: Optional[LocalFS] = None
        if self.config.with_scratch:
            self.scratch = LocalFS(sim, name="scratch")
            self.vfs.mount(self.config.scratch_mount, self.scratch)

    @property
    def sim(self):
        return self.cluster.sim


def build_testbed(
    config: Optional[TestbedConfig] = None, seed: Optional[int] = None
) -> Testbed:
    """Build a fresh testbed; ``seed`` overrides the config's cluster seed."""
    cfg = config or TestbedConfig()
    if seed is not None:
        cfg = cfg.with_seed(seed)
    return Testbed(cfg)
