"""The one call counter the tests share."""

import cProfile


def calls(fn, *args) -> int:
    """Python + C calls made by ``fn(*args)``, its own frame included.

    This is the count the ledger's ``kcalls_per_conv`` is made of: a
    ``cProfile`` profile with builtins, so it is exact for a seed and a
    Python minor version (the standard library's own call structure moves
    between minors). Tests built on it assert that a count is *equal* across
    sizes, plus a ceiling with headroom — never an exact pin, since tier-1
    runs on more than one minor.
    """
    profile = cProfile.Profile(builtins=True)
    profile.enable()
    fn(*args)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats()) - 1  # disable()
