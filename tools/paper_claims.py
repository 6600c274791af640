"""Check the paper's all-data map at n = 200 the way acceptance criterion 6 checks n = 50.

Builds ``heatmap(200, 100, force=True)`` once and prints, one a line, each
property that ``test_criterion_06_heatmap_properties`` in
``tests/test_acceptance.py`` asserts at n = 50:

- the signatures of the four corner cells;
- the relabeling symmetry (``heatmap_symmetry_counterexamples``);
- no maximizer with all four types;
- the defier region (``defier_region_counterexamples``, which
  ``defier_region_check`` applies), on the same map, so that it is built once;
- no rejection at 5% in a cell whose signature has only A and N, and more cells
  that fail to reject than such cells.

Then the SHA-256 of the map's CSV and SVG, the bytes that ``defiers heatmap --n
200 --m 100 --force`` writes, and the run time.  Usage, from anywhere:

    python tools/paper_claims.py

It takes about three minutes on a 2-vCPU VM.  Exits 1 if any property fails.
"""
from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from defiers import heatmap, heatmap_symmetry_counterexamples  # noqa: E402
from defiers.evaluation import defier_region_counterexamples  # noqa: E402
from defiers.reports import heatmap_csv, heatmap_svg  # noqa: E402


def claims(cells) -> list[tuple[str, bool, str]]:
    """(property, holds, detail) for each of criterion 6's properties on ``cells``."""
    m, mc = len(cells) - 1, len(cells[0]) - 1
    flat = [cell for row in cells for cell in row]
    corners = [cells[m][mc], cells[m][0], cells[0][mc], cells[0][0]]
    signatures = [cell.type_signature for cell in corners]
    asymmetric = heatmap_symmetry_counterexamples(cells)
    four_types = [(c.i1, c.c1) for c in flat for t in c.mle_set if len(t.types_present()) == 4]
    outside = defier_region_counterexamples(cells)
    an_only = [c for c in flat if set(c.type_signature) <= {"A", "N"}]
    rejected = [(c.i1, c.c1) for c in an_only if c.fisher_reject_5]
    kept = sum(not c.fisher_reject_5 for c in flat)
    return [
        ("corners (m, n-m), (m, 0), (0, n-m), (0, 0) read A, C, D, N",
         signatures == ["A", "C", "D", "N"], " ".join(signatures)),
        ("relabeling symmetry", not asymmetric, f"{len(asymmetric)} counterexamples"),
        ("no maximizer with all four types", not four_types, f"{len(four_types)} found"),
        ("defier region", not outside, f"{len(outside)} counterexamples"),
        ("no A/N-only cell rejects at 5%", not rejected,
         f"{len(an_only)} A/N-only cells, {len(rejected)} reject"),
        ("more cells fail to reject than are A/N-only", kept > len(an_only),
         f"{kept} fail to reject"),
    ]


def main() -> int:
    start = time.perf_counter()
    cells = heatmap(200, 100, force=True)
    built = time.perf_counter() - start
    results = claims(cells)
    for name, holds, detail in results:
        print(f"{'PASS' if holds else 'FAIL'}  {name}: {detail}")
    for name, text in (("heatmap.csv", heatmap_csv(cells)), ("heatmap.svg", heatmap_svg(cells))):
        print(f"sha256 {name}: {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"heatmap(200, 100) built in {built:.1f} s, "
          f"{time.perf_counter() - start:.1f} s in all")
    return 0 if all(holds for _, holds, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
