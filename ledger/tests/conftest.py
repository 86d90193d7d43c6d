"""Self-tests of the ledger: ``python -m pytest ledger/tests`` from the repo
root (outside the tier-1 ``testpaths``)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [path for path in (ROOT, os.path.join(ROOT, "src")) if path not in sys.path]
