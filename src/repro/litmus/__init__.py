"""Litmus corpus: classic Armv8 shapes + the paper's Examples 1-7."""

from repro.litmus.catalog import (
    LitmusTest,
    classic_corpus,
    example1,
    example2,
    example2_gen_vmid,
    example3,
    example3_vcpu,
    example4,
    example5,
    example6,
    example7,
    extended_corpus,
    full_corpus,
    paper_examples,
    promise_heavy_program,
)
from repro.litmus.generate import (
    GeneratorConfig,
    random_corpus,
    random_program,
)
from repro.litmus.runner import (
    LitmusOutcome,
    corpus_report,
    run_corpus,
    run_litmus,
)

__all__ = [
    "LitmusTest",
    "classic_corpus",
    "example1",
    "example2",
    "example2_gen_vmid",
    "example3",
    "example3_vcpu",
    "example4",
    "example5",
    "example6",
    "example7",
    "extended_corpus",
    "full_corpus",
    "paper_examples",
    "promise_heavy_program",
    "GeneratorConfig",
    "random_corpus",
    "random_program",
    "LitmusOutcome",
    "corpus_report",
    "run_corpus",
    "run_litmus",
]
