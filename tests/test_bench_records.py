"""The benchmark records committed at the repository root."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_bench_record_is_one_json_document():
    # {"env": bench/run.py's env record, "result": its result line}, one object per file
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        assert {"workload", "commit", "numpy"} <= record["env"].keys(), path.name
        assert record["env"]["workload"] in path.name, path.name
        assert record["result"]["metrics"], path.name
