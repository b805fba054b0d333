"""Record the reference outputs that ``run.py`` checks every op against.

    python3 bench/record.py [WORKLOAD ...]

Runs every op of each workload's pool once and stores its checked fields
in ``bench/reference/<workload>.npz``. The stored files were recorded at the
commit that introduced the benchmark; re-recording them replaces the
yardstick, so do it only for a change whose new results are intended, and
say why in the change log.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads


def record(workload, esfl) -> None:
    arrays = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as tmp:
        in_dir, out_dir = Path(tmp) / "in", Path(tmp) / "out"
        in_dir.mkdir()
        for k in range(workload.pool_size):
            if workload.prepare is not None:
                workload.prepare(k, in_dir)
            argv = workload.argv(k, in_dir, out_dir)
            if esfl.cli.main(argv) != 0:
                raise SystemExit(f"record: {workload.name} op {k} {argv} failed")
            report = (out_dir / f"{workload.report_stem}.json").read_text(encoding="utf-8")
            values = workload.extract(json.loads(report))
            arrays.update(workloads.reference_arrays(workload, k, values))
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(workloads.reference_path(workload), **arrays)


def main(names: list[str]) -> int:
    esfl = run.import_esfl()
    for name in names or list(workloads.WORKLOADS):
        record(workloads.WORKLOADS[name], esfl)
        print(f"recorded {name}: {workloads.reference_path(workloads.WORKLOADS[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
