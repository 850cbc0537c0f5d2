"""Encoding-size comparison: pruned vs dense memory-order construction.

For each catalog test this benchmark builds the formula twice — once with
the conflict-aware pruned order encoding (the default) and once with the
dense reference (``dense_order=True``) — and records both sizes (CNF
variables/clauses, order variables, statically resolved pairs, transitivity
clauses) in the benchmark JSON under ``extra_info.order``.

Two gates ride along:

* on **every** catalog test the pruned construction must not emit more
  clauses than the dense one (the CI smoke step runs exactly this), and
* on the **two largest** Fig. 8 tests the pruned construction must emit at
  least 2x fewer clauses — the headline reduction cannot silently regress.

Only encoding runs here (no solving), so even the large tests are cheap
enough to keep in the default selection for the two-largest gate.
"""

import pytest

from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test, encode_test
from repro.harness.catalog import get_test, test_names as catalog_test_names
from repro.harness.runner import large_tests_enabled
from repro.memorymodel.base import get_model

#: The two largest Fig. 8 catalog tests by number of memory accesses
#: (lazylist/Saaarr: 159 accesses, lazylist/S1: 139 accesses) — the pair the
#: >=2x clause-reduction acceptance gate is pinned to.
LARGEST = [("lazylist", "Saaarr"), ("lazylist", "S1")]


def _cases():
    sizes = ["small", "medium"]
    if large_tests_enabled():
        sizes.append("large")
    cases = []
    for implementation in ("msn", "ms2", "harris", "lazylist", "snark"):
        category = category_of(implementation)
        for size in sizes:
            for name in catalog_test_names(category, size):
                cases.append((implementation, name))
    return cases


def _encode_both(implementation_name: str, test_name: str, model_name: str):
    implementation = get_implementation(implementation_name)
    test = get_test(category_of(implementation_name), test_name)
    compiled = compile_test(implementation, test)
    model = get_model(model_name)
    pruned = encode_test(compiled, model, dense_order=False)
    dense = encode_test(compiled, model, dense_order=True)
    return pruned.stats, dense.stats


@pytest.mark.parametrize("implementation,test_name", _cases())
def test_pruned_never_larger_than_dense(
    benchmark, implementation, test_name
):
    """CI gate: the pruned encoding never emits more clauses (or order
    variables) than the dense one, on any catalog test."""
    pruned, dense = benchmark.pedantic(
        _encode_both, args=(implementation, test_name, "relaxed"),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["order"] = {
        "pruned": pruned.order_dict(),
        "dense": dense.order_dict(),
        "clause_ratio": dense.cnf_clauses / max(1, pruned.cnf_clauses),
    }
    assert pruned.cnf_clauses <= dense.cnf_clauses, (
        f"{implementation}/{test_name}: pruned emitted {pruned.cnf_clauses} "
        f"clauses, dense only {dense.cnf_clauses}"
    )
    assert pruned.order_vars <= dense.order_vars
    assert pruned.transitivity_clauses <= dense.transitivity_clauses
    assert pruned.cnf_variables <= dense.cnf_variables


@pytest.mark.parametrize("implementation,test_name", LARGEST)
def test_two_largest_emit_at_least_2x_fewer_clauses(
    benchmark, implementation, test_name
):
    """Acceptance gate: >=2x fewer CNF clauses on the two largest tests."""
    pruned, dense = benchmark.pedantic(
        _encode_both, args=(implementation, test_name, "relaxed"),
        rounds=1, iterations=1,
    )
    ratio = dense.cnf_clauses / max(1, pruned.cnf_clauses)
    benchmark.extra_info["order"] = {
        "pruned": pruned.order_dict(),
        "dense": dense.order_dict(),
        "clause_ratio": ratio,
    }
    assert ratio >= 2.0, (
        f"{implementation}/{test_name}: dense/pruned clause ratio dropped "
        f"to {ratio:.2f}x (dense {dense.cnf_clauses}, "
        f"pruned {pruned.cnf_clauses})"
    )


def test_serial_model_also_shrinks(benchmark):
    """The Seriality model (spec mining) keeps every cross-invocation pair
    live, so the reduction is smaller — but still strictly better."""
    pruned, dense = benchmark.pedantic(
        _encode_both, args=("msn", "T0", "serial"), rounds=1, iterations=1,
    )
    benchmark.extra_info["order"] = {
        "pruned": pruned.order_dict(),
        "dense": dense.order_dict(),
    }
    assert pruned.cnf_clauses < dense.cnf_clauses
