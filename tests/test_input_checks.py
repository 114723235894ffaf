"""Every argument is checked once, on entry, by the one check of its shape.

Every 3x3 and 3-vector argument of the scalar core and of
states.density_of: a wrong shape or a NaN or Inf entry raises ValueError
naming the function, never a numpy warning, another error type or a value
computed from part of the input. Every two-qubit state argument: the
function raises exactly what states.validate_density raises."""

import warnings

import numpy as np
import pytest

from blochinv import groups, invariants, linalg, orbits, serialize, states
from blochinv.states import BlochMatrix

C = np.array([[0.9, -0.2, 0.1], [0.3, 0.5, -0.4], [0.05, 0.2, -0.3]])
A = np.array([[0.7, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, -0.4]])
V = np.array([0.3, -0.2, 0.5])

# (id, function name, call with the probed argument x, valid value of x).
SITES = [
    ("eig_sym3", "eig_sym3", lambda x: linalg.eig_sym3(x), A),
    ("signed_svd3", "signed_svd3", lambda x: linalg.signed_svd3(x), C),
    ("det3", "det3", lambda x: linalg.det3(x), C),
    ("lmm_invariants", "lmm_invariants", lambda x: invariants.lmm_invariants(x), C),
    ("lmm_invariants_jacobian", "lmm_invariants_jacobian",
     lambda x: invariants.lmm_invariants_jacobian(x), C),
    ("g_invariant-a", "g_invariant", lambda x: invariants.g_invariant(V, x), A),
    ("g_invariant-v", "g_invariant", lambda x: invariants.g_invariant(x, A), V),
    ("decide_equiv_lmm-c", "decide_equiv_lmm", lambda x: orbits.decide_equiv_lmm(x, C), C),
    ("decide_equiv_lmm-m", "decide_equiv_lmm", lambda x: orbits.decide_equiv_lmm(C, x), C),
    ("decide_equiv_sym-v1", "decide_equiv_sym",
     lambda x: orbits.decide_equiv_sym((x, A), (V, A)), V),
    ("decide_equiv_sym-a1", "decide_equiv_sym",
     lambda x: orbits.decide_equiv_sym((V, x), (V, A)), A),
    ("decide_equiv_sym-v2", "decide_equiv_sym",
     lambda x: orbits.decide_equiv_sym((V, A), (x, A)), V),
    ("decide_equiv_sym-a2", "decide_equiv_sym",
     lambda x: orbits.decide_equiv_sym((V, A), (V, x)), A),
    ("octahedral_invariants", "octahedral_invariants",
     lambda x: invariants.octahedral_invariants(x), V),
    ("lmm_section_invariants", "lmm_section_invariants",
     lambda x: invariants.lmm_section_invariants(x), V),
    ("lmm_section_jacobian", "lmm_section_jacobian",
     lambda x: invariants.lmm_section_jacobian(x), V),
    ("r_invariant", "r_invariant", lambda x: invariants.r_invariant(x, A), V),
    ("r_invariant-a", "r_invariant", lambda x: invariants.r_invariant(V, x), A),
    ("sym_invariants", "sym_invariants", lambda x: invariants.sym_invariants(x, A), V),
    ("sym_invariants-a", "sym_invariants", lambda x: invariants.sym_invariants(V, x), A),
    ("sym_canonical", "sym_canonical", lambda x: orbits.sym_canonical(x, A), V),
    ("sym_canonical-a", "sym_canonical", lambda x: orbits.sym_canonical(V, x), A),
    ("density_of-u", "density_of", lambda x: states.density_of(BlochMatrix(x, V, C)), V),
    ("density_of-v", "density_of", lambda x: states.density_of(BlochMatrix(V, x, C)), V),
    ("density_of-c", "density_of", lambda x: states.density_of(BlochMatrix(V, V, x)), C),
]

SHAPES = [(4, 4), (3, 4), (2, 2), (9,), (3, 1), (4,), (1,), ()]
NON_FINITE = [np.nan, np.inf, -np.inf]


def _bad_inputs(case, valid):
    """The wrong-shape input, or the valid input with the non-finite value
    in each entry in turn."""
    if isinstance(case, tuple):
        return [np.full(case, 0.5)]
    bad = []
    for index in np.ndindex(valid.shape):
        x = valid.copy()
        x[index] = case
        bad.append(x)
    return bad


@pytest.mark.parametrize("site", SITES, ids=[s[0] for s in SITES])
def test_valid_input_passes(site):
    _, _, call, valid = site
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)


@pytest.mark.parametrize("case", SHAPES + NON_FINITE,
                         ids=["x".join(map(str, s)) or "scalar" for s in SHAPES]
                         + ["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", SITES, ids=[s[0] for s in SITES])
def test_rejects_bad_input(site, case):
    _, name, call, valid = site
    for x in _bad_inputs(case, valid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} input"):
                call(x)


def test_density_of_rejects_vector_for_c():
    # A 3-vector C broadcasts over the rows of the 4x4 Bloch array unless
    # its shape is checked.
    with pytest.raises(ValueError, match="density_of input"):
        states.density_of(BlochMatrix(V, V, V))


MAX_MIXED = 0.25 * np.eye(4)
I2 = np.eye(2)

# (id, call with the state argument x).
STATE_SITES = [
    ("correlation", lambda x: states.correlation(x, 0, 0)),
    ("partial_trace", lambda x: states.partial_trace(x, 1)),
    ("is_positive", states.is_positive),
    ("act_density", lambda x: groups.act_density(I2, I2, x)),
    ("bloch_of", states.bloch_of),
    ("classify", states.classify),
    ("density_document", serialize.density_document),
]


def _with_entry(value):
    x = MAX_MIXED.astype(complex)
    x[1, 2] = value
    return x


BAD_STATES = [
    ("3x3", np.full((3, 3), 1.0 / 3.0)),
    ("16", MAX_MIXED.ravel()),
    ("nan", _with_entry(np.nan)),
    ("inf", _with_entry(np.inf)),
    ("non-hermitian", _with_entry(0.1)),
    ("trace-2", 2.0 * MAX_MIXED),
]


@pytest.mark.parametrize("bad", BAD_STATES, ids=[b[0] for b in BAD_STATES])
@pytest.mark.parametrize("site", STATE_SITES, ids=[s[0] for s in STATE_SITES])
def test_state_argument_checked_by_validate_density(site, bad):
    _, call = site
    x = bad[1]
    with pytest.raises(Exception) as expected:
        states.validate_density(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as raised:
            call(x)
    assert raised.type is expected.type
    assert str(raised.value) == str(expected.value)
