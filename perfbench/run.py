"""Benchmark of the delay engine, the analysis service and the cluster.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine-cold --seed 1 --seconds 15 --trace 0

Workloads: ``engine-cold`` (direct cold analyses), ``served-hot`` (cache
hits through ``repro serve``) and ``cluster-mixed`` (a fixed mix through
``repro cluster``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("engine-cold", "served-hot", "cluster-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _require_checkout() -> None:
    """The program must come from this checkout's sources."""
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program sources at {common.SRC}; run from the "
            "root of a checkout"
        )
    for name in list(os.environ):
        if name.startswith(common.PROGRAM_ENV_PREFIX):
            del os.environ[name]
    sys.path.insert(0, common.SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(common.SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    _require_checkout()
    strays = common.stray_servers()
    if strays:
        raise SystemExit(
            "perfbench: refusing to start while repro serve/cluster "
            f"processes run (pids {strays}); stop them first"
        )
    signal.signal(signal.SIGTERM, common.on_sigterm)
    if args.workload == "engine-cold":
        import engine_cold as workload
    elif args.workload == "served-hot":
        import served_hot as workload
    else:
        import cluster_mixed as workload
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        common.stop_all_children()
    for line in result.pop("lines", ()):
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:  # noqa: BLE001 - report, reap, fail
        traceback.print_exc()
        common.stop_all_children()
        sys.exit(1)
