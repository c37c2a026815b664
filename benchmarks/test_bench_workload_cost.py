"""Appendix C Table 5: representation and comparison costs of the two
techniques.

The paper's complexity table: parallelism-matrix representation costs
O(p*t) time and O(n^t) space, comparison O(n^t); the vector-space model
costs O(t) space and O(t) comparison.  This benchmark measures storage
and actual wall time for a growing NAS-like workload and checks the
asymmetry: matrix costs grow with workload size/width while the centroid
stays constant-size.  The artifact holds only the storage columns, which
are pure functions of the workload; the comparison times differ from run
to run, so they are asserted and printed to the test log instead.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.perf import format_table
from repro.workload import (
    centroid,
    dense_size,
    frobenius_similarity,
    nas_suite,
    oracle_schedule,
    parallelism_matrix,
    similarity,
)


def _measure(workload_a, workload_b):
    start = time.perf_counter()
    for _ in range(10):
        similarity(workload_a, workload_b)
    vector_time = (time.perf_counter() - start) / 10

    start = time.perf_counter()
    for _ in range(10):
        frobenius_similarity(workload_a, workload_b)
    matrix_time = (time.perf_counter() - start) / 10

    centroid_bytes = centroid(workload_a).nbytes
    sparse_cells = len(parallelism_matrix(workload_a))
    dense_cells = dense_size(workload_a)
    return vector_time, matrix_time, centroid_bytes, sparse_cells, dense_cells


def test_table5_costs(benchmark, artifact):
    def run():
        out = {}
        for scale in (0.25, 0.5, 1.0):
            suite = nas_suite(scale)
            workloads = [oracle_schedule(t).workload for t in suite]
            out[scale] = _measure(workloads[5], workloads[7])  # applu vs appbt
        return out

    measured = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for scale, (vector_time, matrix_time, centroid_bytes, sparse, dense) in measured.items():
        rows.append([scale, centroid_bytes, sparse, f"{dense:.2e}"])
        print(
            f"scale {scale:g}: vector_cmp {vector_time * 1e6:.1f}us, "
            f"matrix_cmp {matrix_time * 1e6:.1f}us"
        )
    artifact(
        "appendixC_table5_costs",
        format_table(
            "Appendix C Table 5: storage (vector space vs parallelism matrix)",
            ["scale", "centroid_B", "sparse_cells", "dense_cells"],
            rows,
        ),
    )

    small = measured[0.25]
    large = measured[1.0]
    # Centroid storage is O(t): flat across scales.
    assert small[2] == large[2]
    # Dense matrix cells explode with workload width (O(n^t)).
    assert large[4] > 10 * small[4]
    # The vector comparison is much cheaper than the matrix comparison.
    assert large[0] < large[1]
