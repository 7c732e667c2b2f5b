"""Allow running the CLI as `python3 -m cayleywalk`."""

from __future__ import annotations

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
