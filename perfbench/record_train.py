"""Record the train workload's expected loss trajectory and test accuracy.

Run from the repository root after a change that is meant to alter the
training arithmetic (never to make a failing check pass)::

    python3 perfbench/record_train.py --first 0 --last 127

It fits ``workload_train.FIT_EPOCHS`` epochs per seed, exactly as the
workload does, and rewrites ``expected_train.json``. Seeds outside the
recorded range are still checked for fit-to-fit equality within a run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workload_train
    from inputs import corpus

    seeds = {}
    for seed in range(args.first, args.last + 1):
        dataset, split = corpus(seed)
        detector, _ = workload_train.fit_once(dataset, split)
        seeds[str(seed)] = {
            "loss": list(detector.record.total),
            "test_acc": workload_train.test_accuracy(detector, dataset, split),
        }
        print(f"seed {seed}: final loss {seeds[str(seed)]['loss'][-1]!r}", flush=True)
    workload_train.EXPECTED.write_text(
        json.dumps({"epochs": workload_train.FIT_EPOCHS, "seeds": seeds}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
