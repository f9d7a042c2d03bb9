"""Meta-tests: the documentation references real code.

Docs drift silently; these tests resolve every ``repro.x.y`` dotted
reference in the markdown files against the live package, check that
every file path the docs mention exists, and that the examples the
README lists are the examples that ship.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "MODEL.md",
    ROOT / "docs" / "VERIFICATION.md",
    ROOT / "docs" / "API.md",
    ROOT / "docs" / "OBSERVABILITY.md",
    ROOT / "docs" / "SERVING.md",
    ROOT / "docs" / "PORTABILITY.md",
]

MODULE_REF = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)`")
PATH_REF = re.compile(
    r"`((?:src|tests|benchmarks|examples|docs)/[A-Za-z0-9_/.-]+\.(?:py|md))`"
)


def _doc_text():
    return {doc: doc.read_text(encoding="utf-8") for doc in DOCS}


class TestDocsConsistency:
    def test_all_docs_exist(self):
        for doc in DOCS:
            assert doc.is_file(), doc

    @pytest.mark.parametrize("doc", DOCS, ids=[d.name for d in DOCS])
    def test_module_references_resolve(self, doc):
        text = doc.read_text(encoding="utf-8")
        for ref in MODULE_REF.findall(text):
            module_path = ref
            attr = None
            try:
                importlib.import_module(module_path)
                continue
            except ImportError:
                module_path, _, attr = ref.rpartition(".")
            module = importlib.import_module(module_path)
            assert hasattr(module, attr), f"{doc.name}: {ref} does not exist"

    @pytest.mark.parametrize("doc", DOCS, ids=[d.name for d in DOCS])
    def test_file_references_exist(self, doc):
        text = doc.read_text(encoding="utf-8")
        for ref in PATH_REF.findall(text):
            assert (ROOT / ref).exists(), f"{doc.name}: missing {ref}"

    def test_docs_list_covers_the_docs_directory(self):
        """Every ``docs/*.md`` file is in DOCS — new guides get their
        references checked automatically, or this fails."""
        listed = {doc for doc in DOCS if doc.parent.name == "docs"}
        on_disk = set((ROOT / "docs").glob("*.md"))
        assert listed == on_disk, (
            f"DOCS out of sync with docs/: {sorted(p.name for p in listed ^ on_disk)}"
        )

    def test_readme_documentation_map_links_every_doc(self):
        """The README's documentation map must mention every guide in
        ``docs/`` — an unlinked guide is invisible."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for doc in sorted((ROOT / "docs").glob("*.md")):
            assert f"docs/{doc.name}" in readme, (
                f"README documentation map does not link docs/{doc.name}"
            )

    def test_readme_lists_every_example(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for example in sorted((ROOT / "examples").glob("*.py")):
            assert example.name in readme, (
                f"README does not mention examples/{example.name}"
            )

    def test_design_lists_every_benchmark(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for bench in sorted((ROOT / "benchmarks").glob("test_*.py")):
            assert bench.name in design, (
                f"DESIGN.md experiment index misses benchmarks/{bench.name}"
            )

    def test_experiments_references_real_benchmarks(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        mentioned = re.findall(r"benchmarks/(test_[a-z0-9_]+\.py)", experiments)
        assert mentioned
        for name in mentioned:
            assert (ROOT / "benchmarks" / name).is_file(), name


CLI_FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")

#: Flags the docs mention that belong to external tools (pytest,
#: pytest-benchmark, pip) or to the example scripts, not to the
#: ``repro`` CLI itself.
EXTERNAL_FLAGS = {
    "--benchmark-only", "--benchmark-json", "--benchmark-autosave",
    "--benchmark-compare", "--tb",
    "--all",  # examples/verify_sekvm.py
}

ENV_KNOB = re.compile(r"\bREPRO_[A-Z_]+\b")

#: A knob named in prose (``REPRO_SERVE_*`` families excluded).
DOC_KNOB = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")

#: A knob the code reads: the name as a string literal.
READ_KNOB = re.compile(r"[\"'](REPRO_[A-Z0-9_]+)[\"']")

#: Knobs the docs may name although only the test suite reads them.
TEST_ONLY_KNOBS = {"REPRO_UPDATE_GOLDEN"}


def _cli_flags():
    """Every ``--long-flag`` the real parser (or any subparser) accepts."""
    import argparse

    from repro.cli import build_parser

    def walk(parser):
        flags = set()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    flags |= walk(sub)
            else:
                flags.update(
                    opt for opt in action.option_strings
                    if opt.startswith("--")
                )
        return flags

    return walk(build_parser())


def _env_knobs(*trees):
    """Every ``REPRO_*`` environment knob the given trees mention."""
    knobs = set()
    for tree in trees:
        for path in (ROOT / tree).rglob("*.py"):
            knobs.update(ENV_KNOB.findall(path.read_text(encoding="utf-8")))
    return knobs


class TestCliDocsConsistency:
    """Every flag/knob in the docs exists; every one that exists is
    documented.  Both directions — missing docs and stale docs fail."""

    def test_documented_flags_exist(self):
        real = _cli_flags() | EXTERNAL_FLAGS
        for doc, text in _doc_text().items():
            for flag in CLI_FLAG.findall(text):
                assert flag in real, (
                    f"{doc.name} documents {flag}, which no repro "
                    "subcommand accepts (stale docs?)"
                )

    def test_every_flag_is_documented(self):
        documented = set()
        for text in _doc_text().values():
            documented.update(CLI_FLAG.findall(text))
        for flag in _cli_flags() - {"--help"}:
            assert flag in documented, (
                f"CLI flag {flag} is undocumented — add it to docs/API.md"
            )

    def test_documented_env_knobs_exist(self):
        real = _env_knobs("src", "tests", "benchmarks")
        for doc, text in _doc_text().items():
            for knob in ENV_KNOB.findall(text):
                assert knob in real, (
                    f"{doc.name} documents {knob}, which nothing in the "
                    "code reads (stale docs?)"
                )

    def test_every_env_knob_is_documented(self):
        documented = set()
        for text in _doc_text().values():
            documented.update(ENV_KNOB.findall(text))
        for knob in _env_knobs("src"):
            assert knob in documented, (
                f"env knob {knob} is undocumented — add it to docs/API.md"
            )

    def test_documented_knobs_are_the_knobs_src_reads(self):
        """The docs name exactly the knobs ``src/`` reads: a knob whose
        reader is deleted must leave the docs, and a new one must enter
        them."""
        read = set()
        for path in (ROOT / "src").rglob("*.py"):
            read.update(READ_KNOB.findall(path.read_text(encoding="utf-8")))
        documented = set()
        for text in _doc_text().values():
            documented.update(DOC_KNOB.findall(text))
        documented -= TEST_ONLY_KNOBS
        assert not documented - read, (
            f"documented but never read under src/: "
            f"{sorted(documented - read)}"
        )
        assert not read - documented, (
            f"read under src/ but undocumented: {sorted(read - documented)}"
        )

    def test_only_repro_config_reads_the_environment(self):
        """Every knob is parsed in ``repro.config``; no other module
        under ``src/repro`` touches the environment."""
        offenders = [
            str(path.relative_to(ROOT))
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            if path != ROOT / "src" / "repro" / "config.py"
            and re.search(r"os\.(environ|getenv)",
                          path.read_text(encoding="utf-8"))
        ]
        assert not offenders, (
            f"read REPRO_* knobs through repro.config: {offenders}"
        )
