"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/expected/{cli,search,cells}.json from the program in
this checkout's src. The files in the repository were recorded from the
commit the benchmark was defined on; re-record only for a deliberate
change of output, never to make a failing run pass.
"""

import json
import os
import subprocess
import sys

import workloads as W


def record_cli() -> dict:
    W.WORK.mkdir(parents=True, exist_ok=True)
    out: dict = {}

    def run(line: str) -> None:
        runs = []
        for hash_seed in ("0", "1"):  # the bytes must not depend on hash order
            env = dict(W.child_env(), PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, "-m", "latticegas", *line.split()], cwd=W.WORK,
                                  env=env, capture_output=True, timeout=W.OP_TIMEOUT_S)
            runs.append((proc.returncode, proc.stdout))
        if runs[0] != runs[1]:
            raise SystemExit(f"output of {line!r} depends on the hash seed")
        code, stdout = runs[0]
        if code != 0:
            raise SystemExit(f"{line!r} exits {code}")
        out[line] = {"exit": code, "stdout": stdout.decode("utf-8")}

    for fname, (kind, src) in W.CLI_FILES.items():
        if kind == "build":
            run(src)
        text = out[src]["stdout"] if kind == "build" else src
        (W.WORK / fname).write_text(text, encoding="utf-8")
    for line in W.CLI_COMMANDS:
        if line not in out:
            run(line)
    return out


def record_search(lg) -> dict:
    verify = {}
    for d2 in W.THRESHOLDS:
        rep = lg.verify_forces(d2)
        verify[str(d2)] = {
            "config_count": rep.config_count,
            "fstar": W.frac(rep.fstar),
            "second_max": W.frac(rep.second_max),
            "max_occupancy": rep.max_occupancy,
            "signatures": [list(s) for s in rep.signatures],
        }
    background = lg.build_layered_d5(0, "01")
    window = {}
    for layers, radius_sq in W.WINDOWS:
        census = lg.window_census(background, 5, layers, radius_sq)
        window[f"{layers},{radius_sq}"] = {
            "window_sites": census.window_sites,
            "sets_scanned": census.sets_scanned,
            "survivors": [[list(s) for s in group] for group in census.low_energy_terminal],
            "all_terminal_iia": census.all_terminal_iia,
        }
    return {"verify": verify, "window": window}


def record_cells(lg) -> dict:
    supercells = {}
    for name, (d2, builder, args) in W.SUPERCELLS.items():
        pc = getattr(lg, builder)(*args)
        supercells[name] = {"det": pc.det, "shift_count": lg.shift_count(pc)}
    sublattices = {}
    for ell in W.ELLS:
        classes = lg.classify_classes(ell)
        cmp = lg.compare_class_counts(ell)
        fcc = lg.fcc_census(ell)
        sublattices[str(ell)] = {
            "classes": [[c.size, c.stabilizer_order, [list(r) for r in c.representative],
                         list(c.parameters) if c.parameters else None] for c in classes],
            "members_sha256": W.sha256([[list(r) for r in m] for c in classes for m in c.members]),
            "compare": {
                "oracle": {str(s): n for s, n in sorted(cmp.oracle.items())},
                "predicted": {str(s): n for s, n in sorted(cmp.predicted.items())},
                "mismatched_sizes": list(cmp.mismatched_sizes),
            },
            "fcc_census": [fcc.fcc_sublattices, fcc.pcs_total, fcc.flagged_layered_continuum],
        }
    return {"supercells": supercells, "sublattices": sublattices}


def main() -> None:
    lg = W.import_latticegas()
    W.EXPECTED.mkdir(exist_ok=True)
    for name, data in (("cli", record_cli()), ("search", record_search(lg)), ("cells", record_cells(lg))):
        path = W.EXPECTED / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        print(f"wrote {os.path.relpath(path)}")


if __name__ == "__main__":
    main()
