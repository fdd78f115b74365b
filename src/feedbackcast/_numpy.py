"""numpy, imported on the first attribute lookup (PEP 562).

Modules bind this as ``np``, so ``solve`` and ``sweep``, which never look up
an ``np.`` attribute, run without loading numpy. Each name is stored here on
its first lookup, so later lookups cost a plain module attribute read.
"""


def __getattr__(name):
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
