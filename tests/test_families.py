"""Benchmark formula generators."""

import pytest

from kcdag.cnf import oracle_count, oracle_models
from kcdag.errors import InputError
from kcdag.families import chain_family, random_cnf


def fold_parity_eval(values):
    """Left-associative chain of biconditionals, evaluated directly."""
    acc = values[0]
    for v in values[1:]:
        acc = acc == v
    return acc


def test_random_cnf_shape_and_determinism():
    a = random_cnf(10, 25, width=3, seed=7)
    b = random_cnf(10, 25, width=3, seed=7)
    c = random_cnf(10, 25, width=3, seed=8)
    assert [cl.literals for cl in a.clauses] == [cl.literals for cl in b.clauses]
    assert [cl.literals for cl in a.clauses] != [cl.literals for cl in c.clauses]
    assert len(a.clauses) == 25
    assert all(len(cl) == 3 for cl in a.clauses)
    assert all(1 <= lit.var <= 10 for cl in a.clauses for lit in cl)


def test_random_cnf_width_check():
    with pytest.raises(ValueError):
        random_cnf(2, 5, width=3)
    with pytest.raises(InputError):  # a typed error, not random.sample's
        random_cnf(2, 5, width=-1)
    with pytest.raises(InputError):  # not an empty formula
        random_cnf(3, -1)


def test_single_link_chain_is_biconditional():
    cnf = chain_family(1, 0)
    assert cnf.num_vars == 2
    assert len(cnf.clauses) == 2
    assert sorted(m[1] == m[2] for m in oracle_models(cnf)) == [True, True]
    assert oracle_count(cnf) == 2


def test_chain_variables_interleave():
    # chain k uses variables k, k+n, k+2n, ...
    cnf = chain_family(2, 1)
    variables = [sorted(cl.variables) for cl in cnf.clauses]
    for vs in variables:
        assert vs in ([1, 3, 5], [2, 4, 6])


def test_parity_mode_matches_fold_evaluator():
    for n, j in [(1, 0), (1, 1), (2, 1), (1, 2)]:
        cnf = chain_family(n, j, mode="parity")
        m = j + 2
        for model in oracle_models(cnf):
            for k in range(1, n + 1):
                chain = [model[k + t * n] for t in range(m)]
                assert fold_parity_eval(chain)
        # count: each chain has 2^(m-1) satisfying patterns, chains independent
        assert oracle_count(cnf) == (1 << (m - 1)) ** n


def test_all_equal_mode():
    cnf = chain_family(1, 1, mode="all-equal")
    models = oracle_models(cnf)
    assert len(models) == 2
    assert all(len(set(m.values())) == 1 for m in models)


def test_modes_agree_at_length_two_and_diverge_at_three():
    assert oracle_count(chain_family(1, 0, mode="parity")) == \
        oracle_count(chain_family(1, 0, mode="all-equal")) == 2
    # three-variable chains: parity reading keeps 4 models, all-equal keeps 2
    assert oracle_count(chain_family(1, 1, mode="parity")) == 4
    assert oracle_count(chain_family(1, 1, mode="all-equal")) == 2


def test_chain_family_argument_checks():
    with pytest.raises(ValueError):
        chain_family(0, 1)
    with pytest.raises(ValueError):
        chain_family(1, -1)
    with pytest.raises(ValueError):
        chain_family(1, 1, mode="bogus")
