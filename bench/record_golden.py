"""Record golden.json, the regression reference for derive-tower and cli.

    python3 bench/record_golden.py

It runs every input a derive-tower or cli cycle can draw through the
program in src/ and stores a digest of each output.  The file records what
the program printed when it was made, not an independently derived truth:
the closed forms in workloads.py are the independent checks.  Re-record it
only when a change to the printed output is intended.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads as w
from run import OUT_DIR, ROOT, SRC, load_modules


def main() -> int:
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    m = load_modules(with_cli=True)
    ctxs = {mode: w.mass_shell(m, mode) for mode in w.MODES}
    tower = {
        f"{mode}|{text}": w.digest(w.tower_output(m, ctxs[mode], text))
        for mode, text in w.tower_domain()
    }
    workdir = OUT_DIR / f"golden-{os.getpid()}"
    w.write_contexts(workdir)
    cli = {}
    for argv in w.cli_domain():
        rc, out = w.cli_in_process(m, argv, workdir)
        cli[w.cli_key(argv)] = w.cli_digest(rc, out)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    doc = {
        "note": "Regression reference, not an independent truth: sha256 (first 32 hex "
                "digits) of what the program printed at the commit below.",
        "commit": commit,
        "derive-tower": tower,
        "cli": cli,
    }
    w.GOLDEN_PATH.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()
    print(f"wrote {w.GOLDEN_PATH.name}: {len(tower)} derive-tower, {len(cli)} cli outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
