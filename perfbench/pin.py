"""Regenerate ``pins.json``: the answers every later commit must reproduce.

    python3 perfbench/pin.py

Pins hold seed-independent facts of the commit they were made at: the facet
count, dimension and canonical-form digest of every ``hull_sweep`` input,
and the stdout digest of every ``cli_session`` call.  Every ``--json``
output is validated against ``src/ctxlab/schemas`` before it is pinned, so
a run that reproduces a pinned digest needs no schema check of its own.
Rerun only when a change to ctxlab's output is intended, and say so in the
change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import schema
import workloads

sys.path.insert(0, str(workloads.SRC))


def main() -> int:
    import ctxlab as C
    hull = {}
    data = workloads.inputs("hull_sweep", 0)
    for item in data["items"]:
        logic = C.parse_logic(item["text"])
        poly = C.facet_enumeration(C.vertices_from_states(logic, project=item["project"]))
        problem = workloads.check_polytope(poly)
        if problem:
            raise SystemExit(f"{item['name']}: {problem}")
        hull[item["name"]] = {"dim": poly.affine_dim, "facets": len(poly.facets),
                              "equalities": len(poly.equalities),
                              "digest": workloads.facet_digest(poly)}
    cli = {}
    schemas = {p.stem: json.loads(p.read_text())
               for p in (workloads.SRC / "ctxlab" / "schemas").glob("*.json")}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        workdir = Path(tmp)
        workloads.write_cli_files(workdir)
        for urn_seed in workloads.CLI_URN_SEEDS:
            for call_id, argv, code, known in workloads.cli_script(urn_seed):
                if known:
                    continue
                proc = workloads.cli_run(argv, workdir)
                if proc.returncode != code or b"Traceback" in proc.stderr:
                    raise SystemExit(f"{call_id}: exit {proc.returncode}: {proc.stderr!r}")
                if "--json" in argv:
                    problems = schema.errors(json.loads(proc.stdout), schemas[argv[0]])
                    if problems:
                        raise SystemExit(f"{call_id}: schema: {problems[0]}")
                key = f"{call_id}@{urn_seed}" if call_id.startswith("urn") else call_id
                cli[key] = workloads.cli_digest(proc.stdout)
    workloads.PINS.write_text(json.dumps({"hull": hull, "cli": cli}, indent=1,
                                         sort_keys=True) + "\n")
    print(f"pinned {len(hull)} hulls and {len(cli)} CLI outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
