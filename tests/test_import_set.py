"""What a run imports: the package ``__init__``s re-export nothing.

Each name is imported from the module that defines it, so loading the
node loads the node's own layers and not the design studies, the fleet
engine, the fault injector or the experiment runner beside them.  The
checks run in a fresh interpreter, since this test session has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(*statements):
    """The ``repro`` modules loaded after running ``statements`` afresh."""
    code = "\n".join([
        "import json, sys",
        *statements,
        "print(json.dumps(sorted(m for m in sys.modules",
        "                        if m == 'repro' or m.startswith('repro.'))))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_a_node_run_loads_only_the_node_layers():
    loaded = loaded_after("import repro.core.node", "import repro.core.builder")
    assert "repro.core.node" in loaded and "repro.core.builder" in loaded
    for package in ("repro.board", "repro.faults", "repro.runner",
                    "repro.analysis"):
        inside = [m for m in loaded
                  if m == package or m.startswith(package + ".")]
        assert inside == [], f"{package} loaded: {inside}"
    for module in ("repro.net.fleet", "repro.net.cohort",
                   "repro.net.basestation", "repro.power.optimizer",
                   "repro.power.variable_ratio", "repro.sim.checkpoint",
                   "repro.campaigns"):
        assert module not in loaded, f"{module} loaded"


def test_the_cli_imports_inside_its_commands():
    assert loaded_after("import repro.cli") == ["repro", "repro.cli"]


def test_the_chaos_campaign_loads_no_design_study():
    loaded = loaded_after("import repro.campaigns")
    assert "repro.campaigns" in loaded
    studies = [m for m in loaded
               if m == "repro.board" or m.startswith("repro.board.")
               or m in ("repro.harvest.bicycle", "repro.harvest.shaker",
                        "repro.harvest.solar", "repro.harvest.vibration",
                        "repro.power.optimizer", "repro.studies")]
    assert studies == []
    assert len(loaded) <= 62, f"{len(loaded)} repro modules"
