"""Extension benchmark: verification cost vs. concurrency.

The paper reports proof effort in lines of Coq (Table 1); the executable
analogue of verification *cost* is state-space size and wall time.  This
benchmark measures the DRF-Kernel exploration for ``gen_vmid`` at 1-3
CPUs on both the SC and relaxed push/pull models, documenting the
(expected, exponential) growth and the SC-vs-RM gap — the quantitative
reason the paper verifies most code on SC and pays the relaxed-model
price only for the conditions.
"""

import time

from conftest import run_once

from repro.memory import explore, pushpull_config
from repro.sekvm.ir_programs import NEXT_VMID_LOC, gen_vmid_program


def scalability_sweep():
    rows = []
    for n_cpus in (1, 2, 3):
        program = gen_vmid_program(correct=True, n_cpus=n_cpus)
        for relaxed in (False, True):
            cfg = pushpull_config(
                relaxed=relaxed,
                owned_access_required=[NEXT_VMID_LOC],
                max_states=4_000_000,
            )
            start = time.perf_counter()
            result = explore(program, cfg, observe_locs=[])
            elapsed = time.perf_counter() - start
            rows.append(
                (n_cpus, "RM" if relaxed else "SC",
                 result.states_explored, result.complete, elapsed,
                 result.panic_free)
            )
    return rows


def test_checker_scalability(benchmark):
    rows = run_once(benchmark, scalability_sweep)
    print()
    print(f"{'CPUs':>4} {'model':>6} {'states':>10} {'complete':>9} "
          f"{'seconds':>8} {'panic-free':>10}")
    for n, model, states, complete, secs, panic_free in rows:
        print(f"{n:>4} {model:>6} {states:>10} {str(complete):>9} "
              f"{secs:>8.2f} {str(panic_free):>10}")
        assert complete and panic_free
    by_key = {(n, m): s for n, m, s, _, _, _ in rows}
    # Relaxed exploration costs more than SC at every width, and both
    # grow with concurrency.
    for n in (1, 2, 3):
        assert by_key[(n, "RM")] >= by_key[(n, "SC")]
    assert by_key[(3, "SC")] > by_key[(2, "SC")] > by_key[(1, "SC")]
    rm_ratio = by_key[(2, "RM")] / by_key[(2, "SC")]
    print(f"RM/SC state-space ratio at 2 CPUs: {rm_ratio:.0f}x "
          f"(why VRM verifies most code on the SC model)")
    assert rm_ratio > 2
