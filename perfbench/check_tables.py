"""Check that the tables written by ``cclearn synth-data`` load back bit-equal.

Usage: python3 perfbench/check_tables.py SYNTH_CONFIG.json DATA_DIR

Each of DATA_DIR/source.csv and DATA_DIR/target.csv is read with
``load_table`` and compared, bit for bit, with ``generate_blobs`` run in
this process on the same config. Exits 0 when both match and 1 otherwise,
naming the first difference on stderr.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from cclearn.data import SynthConfig, generate_blobs, load_table


def mismatch(config: SynthConfig, path: Path, domain: str) -> str | None:
    want = generate_blobs(config, domain)
    got = load_table(path, num_classes=config.num_classes)
    if got.features.shape != want.features.shape:
        return f"{path}: shape {got.features.shape} != {want.features.shape}"
    if not np.array_equal(got.features.view(np.uint64), want.features.view(np.uint64)):
        return f"{path}: features differ from generate_blobs bit for bit"
    if not np.array_equal(got.labels, want.labels):
        return f"{path}: labels differ from generate_blobs"
    if got.domain != want.domain:
        return f"{path}: domain tag {got.domain!r} != {want.domain!r}"
    return None


def main() -> int:
    config_path, data_dir = Path(sys.argv[1]), Path(sys.argv[2])
    config = SynthConfig(**json.loads(config_path.read_text(encoding="utf-8")))
    for domain in ("source", "target"):
        problem = mismatch(config, data_dir / f"{domain}.csv", domain)
        if problem:
            print(problem, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
