"""Quickstart: infer the termination summary of the paper's `foo` example.

Reproduces the worked example of Section 2: the inference discovers,
without any user annotation, the case-split summary

    case {
      x < 0          -> requires Term      ensures true;
      x >= 0, y < 0  -> requires Term[..]  ensures true;
      x >= 0, y >= 0 -> requires Loop      ensures false; }

then demonstrates the persistent spec store (docs/store.md): the same
program analyzed again with ``store=`` resolves every SCC from cache --
zero re-analysis, identical summary.

Run:  PYTHONPATH=src python examples/quickstart.py
"""

import tempfile

from repro.core import infer_source
from repro.core.pipeline import Verdict

FOO = """
void foo(int x, int y)
{
  if (x < 0) { return; }
  else { foo(x + y, y); return; }
}
"""


def main() -> None:
    print("Analyzing the paper's foo example (Fig. 1)...\n")
    result = infer_source(FOO)
    print(result.pretty())
    verdict = result.verdict("foo")
    print(f"\nSV-COMP verdict for foo: {verdict}")
    assert verdict is Verdict.NONTERMINATING, (
        "foo has diverging inputs (x >= 0, y >= 0), so the whole-program "
        "verdict is N even though two of the three cases terminate"
    )
    print(
        "\nNote how the summary is *conditional*: a monolithic prover can "
        "only answer\nY/N/U for the whole input space, while the inference "
        "found the exact\nterminating and non-terminating regions."
    )
    print(
        "\nMany programs: run the benchmark tables with "
        "`python -m repro.bench fig10 --jobs 4`\nto analyze one program "
        "per worker process -- verdicts are identical to a\nsequential "
        "run (see docs/parallel.md)."
    )

    print("\nWarm-store reuse (docs/store.md):")
    with tempfile.TemporaryDirectory() as store_dir:
        cold = infer_source(FOO, store=store_dir)
        warm = infer_source(FOO, store=store_dir)
    for label, r in (("cold", cold), ("warm", warm)):
        s = r.solver_stats
        print(
            f"  {label} run: {s.store_hits} store hits, "
            f"{s.store_misses} misses -> verdict {r.verdict('foo')}"
        )
    assert warm.solver_stats.store_misses == 0, "warm run re-analyzed an SCC"
    assert warm.pretty() == cold.pretty(), "warm summary must be identical"
    print(
        "  The warm run replayed every SCC summary from the store -- on "
        "real\n  workloads this is the difference between re-analyzing a "
        "codebase and\n  re-analyzing only what changed."
    )


if __name__ == "__main__":
    main()
