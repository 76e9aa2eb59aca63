"""Fingerprints of the engine's results, to check a change bit for bit.

    python3 tools/fingerprint.py [OTHER_CHECKOUT]

Prints one sha256 per result array (means, cov, state_array,
report_array) of each fixed case, and one per CSV that `duosc run
fig2|fig3|fig4 OUT --dump-state --dump-action` writes.  The cases: the
fig2, fig3 and fig4 presets on their 2000-point grids, fig4 at a cutoff
of 200 omega01 and fig3 at 1e5 omega01 on 200 points, each grid with the
internal times EXTRA_TIMES added; and the grids of the benchmark's four
workloads (perfbench/workloads.py) at the seeds SEEDS.

Given a second checkout, it runs each checkout in its own interpreter and
lists the cases whose hashes differ, each with the largest change in cov
relative to sqrt(C_ii C_jj), and exits 1 if any does.  The hashes depend
on the numpy and BLAS build, so compare checkouts on one machine and
store none.  BLAS is pinned to one thread.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXTRA_TIMES = (1e-9, 1e-5, 1e-3, 0.3, 0.999)
SEEDS = (7, 82)
ARRAYS = ("means", "cov", "state_array", "report_array")
PRESETS = ("fig2", "fig3", "fig4")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cases() -> dict:
    """Case name -> (InternalConfig, internal times), from the duosc and
    perfbench/workloads.py on sys.path."""
    import workloads
    from duosc.cli import preset_config
    from duosc.config import to_internal, validate_config

    def preset(name, cutoff=None, n_points=2000):
        cfg = preset_config(name)
        if cutoff is not None:
            cut = cutoff * cfg.osc1.eigenfrequency
            cfg = replace(cfg, bath1=replace(cfg.bath1, cutoff=cut),
                          bath2=replace(cfg.bath2, cutoff=cut))
        ic = to_internal(validate_config(cfg))
        grid = np.linspace(0.0, ic.t_end, n_points)
        return ic, np.union1d(grid, EXTRA_TIMES)

    out = {name: preset(name) for name in PRESETS}
    out["fig4-cutoff200"] = preset("fig4", 200.0)
    out["fig3-cutoff1e5"] = preset("fig3", 1e5, 200)
    for name in workloads.N_POINTS:
        for seed in SEEDS:
            w = workloads.build(name, seed)
            ic = to_internal(validate_config(w.config))
            out[f"{name}-seed{seed}"] = ic, w.times_s / ic.units.time_unit
    return out


def array_hashes(res) -> dict:
    """Array name -> sha256 of the bytes of that array of a result."""
    return {a: sha256(np.ascontiguousarray(getattr(res, a)).tobytes())
            for a in ARRAYS}


def csv_hashes(name: str, outdir: str) -> dict:
    """CSV file name -> sha256 of `duosc run NAME OUTDIR --dump-state
    --dump-action`."""
    from duosc.cli import main

    if main(["run", name, outdir, "--dump-state", "--dump-action"]) != 0:
        raise RuntimeError(f"duosc run {name} failed")
    return {f: sha256((Path(outdir) / f).read_bytes())
            for f in sorted(os.listdir(outdir))}


def emit(cov_dir: str) -> dict:
    """Every hash of this interpreter's checkout, by case; each case's cov
    is saved to cov_dir for the comparison."""
    from duosc.engine import simulate

    found = {}
    for name, (ic, times) in cases().items():
        res = simulate(ic, times)
        found[name] = array_hashes(res)
        np.save(Path(cov_dir) / f"{name}.npy", res.cov)
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESETS:
            found[f"duosc run {name}"] = csv_hashes(name,
                                                    os.path.join(tmp, name))
    return found


def run_checkout(root: Path, cov_dir: str) -> dict:
    """`emit` in a fresh interpreter on checkout `root`."""
    code = ("import json, sys\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, "
            f"{str(root / 'perfbench')!r}]\n"
            f"sys.path.insert(0, {str(ROOT / 'tools')!r})\n"
            "import fingerprint\n"
            f"print(json.dumps(fingerprint.emit({cov_dir!r})))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         stdout=subprocess.PIPE, text=True, cwd=root).stdout
    return json.loads(out.splitlines()[-1])


def cov_change(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| relative to sqrt(a_ii a_jj), over every time."""
    d = np.sqrt(np.abs(np.diagonal(a, axis1=1, axis2=2)))
    scale = d[:, :, None] * d[:, None, :]
    return float(np.max(np.abs(a - b) / np.where(scale > 0, scale, np.inf)))


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = [ROOT] + [Path(p).resolve() for p in argv]
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, str(k)) for k in range(len(roots))]
        found = []
        for root, cov_dir in zip(roots, dirs):
            os.mkdir(cov_dir)
            found.append(run_checkout(root, cov_dir))
        if len(roots) == 1:
            for case, hashes in found[0].items():
                for what, h in hashes.items():
                    print(f"{case}  {what}  {h}")
            return 0
        differ = [case for case in found[0]
                  if found[0][case] != found[1].get(case)]
        for case in differ:
            what = [k for k in found[0][case]
                    if found[0][case][k] != found[1].get(case, {}).get(k)]
            line = f"{case}: {', '.join(what)} differ"
            cov = [Path(d) / f"{case}.npy" for d in dirs]
            if all(c.exists() for c in cov):
                change = cov_change(*map(np.load, cov))
                line += f"; largest cov change {change:.3g} of sqrt(C_ii C_jj)"
            print(line)
    print(f"{len(differ)} of {len(found[0])} cases differ between "
          f"{roots[0]} and {roots[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
