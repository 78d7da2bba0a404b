"""Cold start: no dpfilt command loads scipy.

Each check runs in a fresh interpreter, since the test process itself
imports scipy as an oracle.
"""

import json
import os
import subprocess
import sys

import pytest
import yaml

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def scipy_modules_after(code: str, cwd) -> list:
    """Run code in a fresh interpreter, then list the scipy modules loaded."""
    script = code + "\nimport sys, json\nprint(json.dumps(sorted(" \
        "m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_cli_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import dpfilt, dpfilt.cli", tmp_path) == []


@pytest.mark.parametrize("mech", ["zfe", "lms_causal", "df"])
def test_commands_load_no_scipy(tmp_path, mech):
    # a small 2-channel config; df adds Bauer's method, lms_causal the
    # causal postfilter and its rebuild on load
    target = {"rows": 2, "cols": 2, "entries": [
        {"row": i, "col": i, "num": [0.6, 0.3, 0.1]} for i in range(2)]}
    with open(tmp_path / "target.yaml", "w") as fh:
        yaml.safe_dump(target, fh)
    doc = {
        "grid_n": 256, "seed": 7,
        "privacy": {"epsilon": 1.0, "delta": 0.1, "k": [1.0, 1.0]},
        "filter": {"file": "target.yaml"},
        "mechanism": {"kind": mech},
        "spectrum": {"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                     "floor": 1e-4},
        "source": {"kind": "markov_server", "alpha": 0.3, "beta": 0.6},
        "simulate": {"trials": 2, "steps": 2000},
    }
    with open(tmp_path / "config.yaml", "w") as fh:
        yaml.safe_dump(doc, fh)
    code = (
        "from dpfilt.cli import main\n"
        "codes = [main(['design', '--config', 'config.yaml', "
        "'--out', 'design.json']),\n"
        "         main(['sensitivity', '--config', 'config.yaml', "
        "'--out', 'sens.json']),\n"
        "         main(['simulate', '--design', 'design.json', "
        "'--report', 'report.json'])]\n"
        "assert codes == [0, 0, 0], codes\n")
    assert scipy_modules_after(code, tmp_path) == []
