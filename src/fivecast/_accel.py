"""Which numeric backend ran.

fivecast has one backend, plain numpy.  ``NUMBA_ENABLED`` is the
constant run reports record; the benchmark's environment probe
(``perfbench/run.py``) imports this module to read it.
"""

NUMBA_ENABLED = False
