"""The query-server process of the ``remote_churn`` workload.

Starts a :class:`repro.server.QueryServer` with its default settings over
an empty catalog, prints ``PORT <n>`` once it listens, and serves until its
standard input closes.  It then stops the server and prints
``MAXRSS_KB <n>``, its own peak resident memory, so the benchmark can add
it to the client's.  The client loads the catalog and materializes the view
over the wire, like any other user of ``repro://``.

Usage (normally started by ``run.py``)::

    python3 perfbench/server.py --src src --domain 0:256
"""

from __future__ import annotations

import argparse
import os
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the repro package")
    parser.add_argument("--domain", required=True, metavar="LO:HI")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from repro.server import QueryServer

    lo, hi = (int(part) for part in args.domain.split(":", 1))
    with QueryServer(domain=(lo, hi)) as server:
        print(f"PORT {server.port}", flush=True)
        sys.stdin.read()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"MAXRSS_KB {peak_kb}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
