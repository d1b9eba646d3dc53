"""``python -m tools.perfgate`` entry point."""

import sys

from tools.perfgate.gate import main

if __name__ == "__main__":
    sys.exit(main())
