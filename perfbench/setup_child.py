"""Set-up probe: one fresh interpreter doing a workload's set-up.

``run.py`` starts this script several times per run and times each from
process start until it prints ``ready``: interpreter start, imports,
input construction and the workload's first-use lazy work (kernel
compile and verify, tire-environment equilibration, first store and
checkpoint use).  Host speed is sampled from the first import on; the
``ready`` line carries the samples and the seconds they took, as JSON.
Usage::

    python3 perfbench/setup_child.py WORKLOAD --seed N --scratch DIR
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import HostSpeed  # noqa: E402

#: Set-up takes about half a second, so the child samples more often.
SAMPLE_INTERVAL_S = 0.1


def main() -> None:
    speed = HostSpeed(SAMPLE_INTERVAL_S)
    with speed.sampling():
        parser = argparse.ArgumentParser()
        parser.add_argument("workload")
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--scratch", required=True)
        args = parser.parse_args()
        meta = json.loads((HERE / "meta.json").read_text())
        from workloads import WORKLOADS

        params = meta["workloads"][args.workload]["params"]
        WORKLOADS[args.workload](params, args.seed, args.scratch).warm()
    speed.sample()
    print("ready", json.dumps([speed.samples, speed.spent_s]), flush=True)


if __name__ == "__main__":
    main()
