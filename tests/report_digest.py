"""Print one sha256 per benchmark workload over every report and refusal it produces.

    python tests/report_digest.py
    python tests/report_digest.py --check tests/golden/digests.txt

Generates every job of the three workloads with bench/workloads.py's generate at
seeds 1 and 7, writes each job file to a temporary directory and runs it in this
process through projderiv.cli's load_job and run_job, with this checkout's src/
first on the import path.  A workload's digest covers, job by job in run order,
the report lines and whether every verdict passed, or the refusal's text.  Two
checkouts that print the same digests give the same reports, byte for byte, on
every benchmark job at those seeds.  With --check FILE, each line is also compared
with FILE's line for its workload (as this script prints it); where one differs,
both are printed, and the exit status is 1.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from projderiv.cli import JobError, load_job, run_job  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEEDS = (1, 7)


def workload_digest(workload: str, directory: Path) -> tuple[str, int, int]:
    """(sha256, jobs, refusals) of one workload over SEEDS."""
    h = hashlib.sha256()
    jobs = refused = 0
    for seed in SEEDS:
        for i, job in enumerate(generate(workload, seed)):
            path = directory / f"{workload}-{seed}-{i:05d}.json"
            path.write_text(json.dumps(job.spec))
            try:
                lines, ok = run_job(load_job(str(path)))
                record = ["report", str(ok), *lines]
            except JobError as e:
                record = ["refusal", str(e)]
                refused += 1
            h.update(("\n".join(record) + "\n\n").encode())
            jobs += 1
    return h.hexdigest(), jobs, refused


def main(argv: list[str]) -> int:
    if argv and (len(argv) != 2 or argv[0] != "--check"):
        print("usage: python tests/report_digest.py [--check FILE]", file=sys.stderr)
        return 2
    recorded = {}
    if argv:
        recorded = dict(line.split(" ", 1) for line in Path(argv[1]).read_text().splitlines())
    differs = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            sha, jobs, refused = workload_digest(workload, Path(tmp))
            line = f"{sha} ({jobs} jobs at seeds {SEEDS}, {refused} refused)"
            print(f"{workload} {line}")
            if argv and recorded.get(workload) != line:
                print(f"{workload} differs: recorded {recorded.get(workload)}, measured {line}")
                differs = 1
    return differs


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
