"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Three workloads (``figures``, ``archive``, ``service``) each time a fixed
cycle of calls into the program with tracing off, and a traced run times
the same cycle with in-memory spans around every call into a layer.  See
``perfbench/run.py`` for the command line and ``perfbench/config.json``
for the drift probe and the layers each workload loads and bypasses.
"""
