import os
import pathlib
import subprocess
import sys

import tomoseg

BENCH_KERNELS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_runs_every_row(tmp_path):
    # a row that calls a function the package no longer has fails here
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tomoseg.__file__)))
    out = subprocess.run([sys.executable, str(BENCH_KERNELS), "--size", "16", "--repeats", "1"],
                         capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.endswith("B/voxel"))
    rows = [line.rsplit(None, 3) for line in lines[header + 1 :] if line.strip()]
    names = [name for name, *_ in rows]
    # one row per kernel, each with its time, peak MiB and bytes per voxel
    assert len(names) == 39 and len(set(names)) == len(names), names
    for name, time, mib, per_voxel in rows:
        assert time.endswith(("ms", "us")) and float(time[:-2]) > 0, name
        assert float(mib) >= 0 and float(per_voxel) >= 0, name
    assert list(tmp_path.iterdir()) == []
