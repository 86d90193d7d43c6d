"""Suite-wide fixtures.

Setting ``REPRO_SANITIZE=1`` installs the runtime sanitizer
(:mod:`repro.analysis.sanitizer`) for the entire test run, so every
simulation the tests build is audited for event-order, RNG-ledger,
FlowMemory and copy-on-rewrite invariants at no change to the tests
themselves. CI runs a named subset of the suite this way (the directories
listed in its sanitizer step: ``tests/integration`` stays out, because its
call-count budgets would count the sanitizer's own calls); local runs keep
it off by default.
"""

import pytest

from repro.analysis.sanitizer import install_from_env


@pytest.fixture(scope="session", autouse=True)
def _sanitizer_from_env():
    sanitizer = install_from_env()
    yield sanitizer
    if sanitizer is not None:
        sanitizer.uninstall()
