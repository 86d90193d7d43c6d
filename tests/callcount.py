"""The one call counter the tests share."""

import cProfile
import gc


def calls(fn, *args) -> int:
    """Python + C calls made by ``fn(*args)``, its own frame included.

    This is the count the ledger's ``kcalls_per_conv`` is made of: a
    ``cProfile`` profile with builtins, so it is exact for a seed and a
    Python minor version (the standard library's own call structure moves
    between minors). Tests built on it assert that a count is *equal* across
    sizes, plus a ceiling with headroom — never an exact pin, since tier-1
    runs on more than one minor.

    The cyclic collector is off while counting: a collection that happened
    to fall inside ``fn`` would run the finalizers of whatever garbage
    earlier tests left (an unfinished generator's ``finally``), and those
    calls would be counted as ``fn``'s.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        profile = cProfile.Profile(builtins=True)
        profile.enable()
        fn(*args)
        profile.disable()
    finally:
        if enabled:
            gc.enable()
    return sum(entry.callcount for entry in profile.getstats()) - 1  # disable()
