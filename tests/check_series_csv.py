"""Check every numeric cell of the series CSVs under the given directories
against Python's own formatter: each must be exactly '%.17g' % float(cell).

    python3 tests/check_series_csv.py DIR [DIR ...]

Exits non-zero, naming the first bad cells, if a cell differs, if a data row
does not have four cells, or if no series_*.csv is found.
"""

import sys
from pathlib import Path

HEADER = "t,exact,sampled,stderr"


def main(directories: list[str]) -> int | str:
    files = sorted(p for d in directories for p in Path(d).rglob("series_*.csv"))
    if not files:
        return f"no series_*.csv under {' '.join(directories)}"
    bad, cells = [], 0
    for path in files:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if line.startswith("#") or line == HEADER:
                continue
            row = line.split(",")
            if len(row) != 4:
                bad.append(f"{path}:{number}: {len(row)} cells")
            for cell in filter(None, row):
                cells += 1
                if "%.17g" % float(cell) != cell:
                    bad.append(f"{path}:{number}: {cell!r}")
    if bad:
        return "\n".join(["cells that are not '%.17g' % float(cell):", *bad[:20]])
    print(f"{cells} cells in {len(files)} series CSVs are '%.17g' % float(cell)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
