"""``python -m repro`` forwards to the experiments CLI.

Kept as a thin alias so the shortest invocation works:

    python -m repro scorecard
    python -m repro figure2 --workers 2
"""

import sys

from repro.experiments.__main__ import main

if __name__ == "__main__":
    sys.exit(main())
