"""The three demos print exactly the text they printed when the digests
below were recorded: each runs in its own process and the SHA-256 of its
standard output is compared."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twocat

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "01_commas_and_fibers.py":
        "c99ef72482ce34167efa243e1bb59f7a7072f4e9c8bff17030a006a7bdbec4fb",
    "02_spectral_sequence.py":
        "1d998265038270806c9a7bb3a049e10576652baf9264d60c383dfd4c7291cc20",
    "03_group_completion.py":
        "201c0ed899884fc39497f584b5b4cbac8c30ee0a36834f00f258c1e080566435",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_pinned(name):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name], \
        proc.stdout.decode()
