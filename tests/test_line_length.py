"""No line of the package or of the scripts is longer than 100
characters, so a line count cannot drop by packing code onto fewer
lines."""
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT = 100


def test_no_line_over_the_limit():
    long_lines = []
    for pattern in ("src/trackcast/*.py", "scripts/*.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, encoding="utf-8") as fh:
                for number, line in enumerate(fh, 1):
                    if len(line.rstrip("\n")) > LIMIT:
                        long_lines.append(f"{os.path.relpath(path, ROOT)}:{number}")
    assert long_lines == []
