"""Regenerate reference.json: digests of the exact part of group.json
(see checks.GROUP_EXACT_KEYS) for every n_phi the workloads use.

    python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from landau.cli import main  # noqa: E402

digests = {}
for nphi in sorted({*workloads.GROUP_MIX, *workloads.SMOKE_GROUP_MIX}):
    with tempfile.TemporaryDirectory() as out:
        main(["group", "--nphi", str(nphi), "--out-dir", out])
        payload = json.loads((Path(out) / "group.json").read_text(encoding="utf-8"))
    digests[str(nphi)] = checks.group_digest(payload)
checks.REFERENCE.write_text(json.dumps({"group_digest": digests}, indent=2) + "\n", encoding="utf-8")
print(digests)
