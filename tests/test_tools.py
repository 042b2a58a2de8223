"""The repo's documentation generators must run and stay in sync."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run_tool(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestGenerators:
    def test_experiments_md_generates_and_passes(self):
        output = _run_tool("generate_experiments_md.py")
        assert "Scorecard" in output
        assert "**FAIL**" not in output
        assert "# Part 2" in output

    def test_api_md_generates(self):
        output = _run_tool("generate_api_md.py")
        assert "# API index" in output
        assert "`repro.core`" in output
        assert "(no docstring)" not in output

    def test_checked_in_experiments_md_is_current(self):
        """EXPERIMENTS.md must match a fresh regeneration (no drift)."""
        fresh = _run_tool("generate_experiments_md.py")
        checked_in = (REPO / "EXPERIMENTS.md").read_text()
        assert checked_in.strip() == fresh.strip(), (
            "EXPERIMENTS.md is stale — regenerate with "
            "`python tools/generate_experiments_md.py > EXPERIMENTS.md`"
        )

    def test_checked_in_api_md_is_current(self):
        """docs/API.md must match a fresh regeneration (no drift)."""
        fresh = _run_tool("generate_api_md.py")
        checked_in = (REPO / "docs" / "API.md").read_text()
        assert checked_in.strip() == fresh.strip(), (
            "docs/API.md is stale — regenerate with "
            "`python tools/generate_api_md.py > docs/API.md`"
        )
