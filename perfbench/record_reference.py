"""Record the reference outputs that the benchmark's output check compares against.

    python3 perfbench/record_reference.py --seeds 0-15,7919

For each seed and workload this runs one iteration and stores the digest of
its reference outputs in ``perfbench/reference.json``, merged into what is
already there. Record at a commit whose outputs are trusted: every later
run on a recorded seed must reproduce them (lambdas and strings exactly,
predictions within ``check.RTOL`` relative).
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run  # fixes the BLAS thread count before numpy loads

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import check  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15,7919")
    args = parser.parse_args()

    run.OUT.mkdir(exist_ok=True)
    doc = (json.loads(check.REFERENCE.read_text()) if check.REFERENCE.exists()
           else {"seeds": {}})
    for seed in _seeds(args.seeds):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                wl = workloads.WORKLOADS[name](seed, Path(tmp))
                wl.setup()
                it = workloads.Iteration()
                watch = hostspeed.Watch(wl.python_share)
                wl.run_pass(spans.NULL, it, watch)
                wl.run_probes(it, watch)
            if it.failed:
                print(f"seed {seed} {name}: {it.failed} failed operations, not recorded",
                      file=sys.stderr)
                return 1
            doc["seeds"].setdefault(str(seed), {})[name] = check.digest(it.ref)
            print(f"seed {seed} {name}: recorded", flush=True)
            _write(doc)
    return 0


def _write(doc: dict) -> None:
    """One line per seed, so a re-recorded seed shows as a one-line diff."""
    seeds = doc["seeds"]
    body = ",\n".join(f" {json.dumps(s)}: {json.dumps(seeds[s], sort_keys=True)}"
                      for s in sorted(seeds, key=int))
    check.REFERENCE.write_text(f'{{"seeds": {{\n{body}\n}}}}\n')


if __name__ == "__main__":
    sys.exit(main())
