"""The example scripts run end to end, each in its own interpreter, so a
public name they use cannot disappear unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Each example and text its output must contain.
EXAMPLES = {
    "quickstart.py": ("Hello from the SystemC-style MicroBlaze model!",
                      "finished:              True"),
    "software_debugging.py": ("[memset_loop ] sb r6, r4, r0",
                              "checksum at 'result':  0x000014a0"),
    "boot_exploration.py": ("boot complete", "boot finished: True"),
}


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, str(ROOT / "examples" / script)],
                            capture_output=True, text=True, env=env,
                            timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    for text in EXAMPLES[script]:
        assert text in result.stdout
