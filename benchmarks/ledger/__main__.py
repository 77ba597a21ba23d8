"""``python -m benchmarks.ledger`` (see ``run.py``)."""

import sys

from benchmarks.ledger.run import main

sys.exit(main())
