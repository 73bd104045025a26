#!/usr/bin/env python3
"""Validate Prometheus text exposition scraped from a pdeml /metrics route.

Usage: check_prometheus.py SCRAPE [LATER_SCRAPE]

Checks that every family with a TYPE line has a HELP line and a known
kind, that every sample parses as a number and belongs to a declared
family, and, given a second scrape of the same process, that every
counter series is still present and has not gone backwards. Exits
non-zero on the first violation; prints a one-line summary otherwise.
"""
import sys


def parse(path):
    helps, types, values = set(), {}, {}
    for line in open(path):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# HELP "):
            helps.add(line.split()[2])
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
        else:
            assert not line.startswith("#"), f"bad comment: {line}"
            name_labels, val = line.rsplit(" ", 1)
            values[name_labels] = float(val)  # every sample parses as a number
    return helps, types, values


def main(paths):
    h1, t1, v1 = parse(paths[0])
    for name, kind in t1.items():
        assert name in h1, f"{name} has TYPE but no HELP"
        assert kind in ("counter", "gauge", "summary"), (name, kind)
    # Every sample belongs to a declared family.
    for series in v1:
        base = series.split("{")[0]
        for suffix in ("_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in t1:
                base = base[: -len(suffix)]
        assert base in t1, f"sample {series} has no TYPE line"
    # Counters are monotonic across the two scrapes.
    for later in paths[1:]:
        _, _, v2 = parse(later)
        for series, val in v1.items():
            base = series.split("{")[0]
            if t1.get(base) == "counter":
                assert series in v2, f"{series} vanished between scrapes"
                assert v2[series] >= val, f"{series} went backwards"
    print(f"{paths[0]} OK: {len(t1)} families, {len(v1)} samples"
          + (", counters monotonic" if len(paths) > 1 else ""))


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    main(sys.argv[1:])
