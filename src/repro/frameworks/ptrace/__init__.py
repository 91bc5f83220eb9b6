"""//TRACE (paper §2.3, §4.3; reference [2]).

"//TRACE focuses on generating accurate replayable I/O traces of parallel
applications that use MPI.  To accomplish this they determine inter-node
data dependencies by using I/O throttling."

Reproduced here:

* :mod:`.framework` — the cheap always-on mechanism: dynamic library
  interposition of I/O system calls (near-zero overhead on its own);
* :mod:`.throttle` — the expensive optional mechanism: epoch-rotated
  per-node I/O throttling with progress correlation, discovering which
  ranks causally depend on which nodes.  The ``sampling`` knob is the
  paper's fidelity/overhead trade ("~0% to 205%" elapsed overhead);
* :mod:`.depmap` — inter-node dependency maps;
* :mod:`.replaygen` — replayable-trace assembly: deperturbed pseudo-app
  plus dependency-derived synchronization.
"""
