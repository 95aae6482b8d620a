import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data"
COMMANDS = ("validate", "distance-sweep", "optimize", "minmax", "gain-comparison")


def test_reproduce_figures_writes_the_golden_tables(tmp_path):
    # example.cfg sets every key to its default, so with the golden runs'
    # sample count each table is the golden file byte for byte.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"),
            "--samples", "20000",
            "--config", str(ROOT / "scripts" / "example.cfg"),
            "--outdir", str(tmp_path),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for command in COMMANDS:
        table = tmp_path / f"{command.replace('-', '_')}.csv"
        assert table.read_bytes() == (GOLDEN / f"{command}.csv").read_bytes(), command
