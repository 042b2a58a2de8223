#!/usr/bin/env python3
"""Generate docs/API.md: an index of every public symbol and its summary.

Walks the package's subpackage ``__all__`` lists and renders each symbol's
first docstring line, so the API tour can never drift from the code.

Run:  python tools/generate_api_md.py > docs/API.md
"""

from __future__ import annotations

import importlib
import inspect

SUBPACKAGES = (
    "repro",
    "repro.core",
    "repro.data",
    "repro.fabs",
    "repro.workloads",
    "repro.platforms",
    "repro.accelerators",
    "repro.provisioning",
    "repro.reliability",
    "repro.lifetime",
    "repro.engine",
    "repro.obs",
    "repro.parallel",
    "repro.dse",
    "repro.analysis",
    "repro.robustness",
    "repro.baselines",
    "repro.scheduling",
    "repro.lca",
    "repro.io",
    "repro.reporting",
    "repro.experiments",
    "repro.service",
)

HEADER = """\
# API index

Every public symbol, by subpackage, with its one-line summary.  Generated
from the live docstrings (`python tools/generate_api_md.py > docs/API.md`);
see `docs/MODEL.md` for how the pieces map to the paper's equations.

"""


def _summary(obj: object) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(no docstring)"
    first = doc.strip().splitlines()[0].strip()
    return first


def _kind(obj: object) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    if inspect.ismodule(obj):
        return "module"
    return "constant"


def main() -> None:
    lines = [HEADER]
    for name in SUBPACKAGES:
        module = importlib.import_module(name)
        lines.append(f"## `{name}`\n")
        module_doc = _summary(module)
        lines.append(f"{module_doc}\n")
        exported = getattr(module, "__all__", ())
        if not exported:
            lines.append("_(no `__all__`; see module source)_\n")
            continue
        lines.append("| symbol | kind | summary |")
        lines.append("| --- | --- | --- |")
        for symbol in exported:
            obj = getattr(module, symbol)
            kind = _kind(obj)
            summary = _summary(obj) if kind != "constant" else "data"
            summary = summary.replace("|", "\\|")
            lines.append(f"| `{symbol}` | {kind} | {summary} |")
        lines.append("")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
