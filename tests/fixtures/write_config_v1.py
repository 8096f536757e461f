"""Write the frozen ``config.json`` fixtures ``tests/fixtures/config_v1/``.

Runs ``tools/deal_keys.py`` (4 parties, threshold 1, one cks05 key, the
default ports) twice in a scratch directory, once plain and once with
``--data-dir``, and keeps node 1's ``config.json`` from each run:

* ``config_v1/memory.json``  — node 1 without a ``data_dir``;
* ``config_v1/durable.json`` — node 1 with ``data_dir`` set to
  ``deployment/node1/data`` (``--out`` is relative, so the path is too).

    PYTHONPATH=src python tests/fixtures/write_config_v1.py [OUT_DIR]

The committed files were written by the build whose ``NodeConfig`` still
had ``enable_tob``, ``fault_plan`` and ``drain_timeout``;
``tests/test_keystore_daemon.py`` loads them into the config that
``make_local_configs`` builds now.  They are never rewritten: a config
that a dealer wrote once must keep loading.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

OUT = Path(__file__).resolve().parent / "config_v1"
DEAL_KEYS = Path(__file__).resolve().parents[2] / "tools" / "deal_keys.py"


def write(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, flags in (("memory", []), ("durable", ["--data-dir"])):
        with tempfile.TemporaryDirectory() as scratch:
            subprocess.run(
                [sys.executable, str(DEAL_KEYS), "--parties", "4",
                 "--threshold", "1", "--schemes", "cks05",
                 "--out", "deployment", *flags],
                cwd=scratch, check=True, stdout=subprocess.DEVNULL,
            )
            shutil.copyfile(
                Path(scratch) / "deployment" / "node1" / "config.json",
                out / f"{name}.json",
            )


if __name__ == "__main__":
    write(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
