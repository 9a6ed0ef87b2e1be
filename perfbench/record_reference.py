"""Record the default-seed output summaries into reference.json.

    python3 perfbench/record_reference.py

Runs one full pass of every workload at the default seed, with every check
on, and writes each operation's summary. Later runs at the default seed
must reproduce them (counts exactly, other numbers within 1e-9 relative).
Refuses to write when any operation fails.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def main():
    run.import_program()
    import workloads

    out = {}
    workdir = tempfile.mkdtemp(dir=run.ROOT)
    try:
        for name in workloads.NAMES:
            runner = run.Runner(workloads.build(name, workloads.DEFAULT_SEED,
                                                os.path.join(workdir, name)))
            runner.run_pass()
            if runner.failed:
                sys.exit(f"{name}: {runner.errors}")
            out[name] = runner.summaries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
