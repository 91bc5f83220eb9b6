"""Simulated storage stack.

Reproduces the storage substrate of the paper's testbed (§4.1.2): compute
nodes writing through a VFS to one of several file systems —

* :class:`~repro.simfs.localfs.LocalFS` — an ext3-like local file system on
  a block device (Tracefs was validated on ext3);
* :class:`~repro.simfs.nfs.NFS` — a network file system with per-RPC
  network costs (Tracefs was validated on NFS);
* :class:`~repro.simfs.pfs.ParallelFS` — a parallel file system striping
  files across storage servers backed by RAID-5 (the paper's "RAID 5 with a
  stripe width of 64 kilobytes across 252 hard drives");
* :class:`~repro.simfs.stackable.StackableFS` — the stackable-layer
  mechanism (FiST-style, [7]) that Tracefs mounts on top of any of the
  above.

Only metadata and timing are simulated — file *contents* are not stored.
Sizes, offsets, and per-operation service times are modelled faithfully
enough to reproduce the paper's bandwidth/overhead phenomena.
"""
