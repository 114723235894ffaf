"""Every argument is checked once, on entry, by the one check of its shape.

Every 3x3 and 3-vector argument of the scalar core, of states.density_of
and of groups.act_bloch: a wrong shape or a NaN or Inf entry raises
ValueError naming the function, never a numpy warning, another error type
or a value computed from part of the input. Every two-qubit state
argument: the function raises exactly what states.validate_density
raises. Every other public function of linalg, invariants, orbits, states
and groups is in EXEMPT, with the reason."""

import inspect
import warnings

import numpy as np
import pytest

from blochinv import groups, invariants, linalg, orbits, serialize, states
from blochinv.states import BlochMatrix
from pins import hex_list

C = np.array([[0.9, -0.2, 0.1], [0.3, 0.5, -0.4], [0.05, 0.2, -0.3]])
A = np.array([[0.7, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, -0.4]])
V = np.array([0.3, -0.2, 0.5])
R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

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
    ("lmm_canonical", "lmm_canonical", lambda x: orbits.lmm_canonical(x), C),
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
    ("bloch_vector", "bloch_vector", states.bloch_vector,
     np.array([[0.75, 0.25 - 0.5j], [0.25 + 0.5j, 0.25]])),
    ("act_bloch-r1", "act_bloch", lambda x: groups.act_bloch(x, R, BlochMatrix(V, V, C)), R),
    ("act_bloch-r2", "act_bloch", lambda x: groups.act_bloch(R, x, BlochMatrix(V, V, C)), R),
]

SHAPES = [(4, 4), (3, 4), (2, 2), (9,), (3, 1), (4,), (1,), ()]
NON_FINITE = [np.nan, np.inf, -np.inf]
# Entries no float array can hold: an integer beyond the double range
# (non-finite, as in serialize._real) and two that are not numbers.
BAD_ENTRIES = [10**400, "abc", None]


def _bad_inputs(case, valid):
    """The wrong-shape input, or the valid input with the bad value in each
    entry in turn: in a copy of the array, or in nested lists for a value
    that no float array holds."""
    if isinstance(case, tuple):
        return [np.full(case, 0.5)]
    bad = []
    for index in np.ndindex(valid.shape):
        if isinstance(case, float):
            x = valid.copy()
            x[index] = case
        else:
            x = valid.tolist()
            (x if len(index) == 1 else x[index[0]])[index[-1]] = case
        bad.append(x)
    return bad


@pytest.mark.parametrize("site", SITES, ids=[s[0] for s in SITES])
def test_valid_input_passes(site):
    _, _, call, valid = site
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)


# Every site with every case but its own valid shape.
CASES = list(zip(SHAPES + NON_FINITE + BAD_ENTRIES,
                 ["x".join(map(str, s)) or "scalar" for s in SHAPES]
                 + ["nan", "inf", "-inf", "huge-int", "abc", "none"]))


@pytest.mark.parametrize("site, case", [
    pytest.param(site, case, id=f"{site[0]}-{case_id}")
    for site in SITES for case, case_id in CASES if case != site[3].shape])
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


# The public functions with neither a SITES nor a STATE_SITES row, and why.
EXEMPT = {
    "rotation_residual": "a residual: NaN or inf for a non-finite matrix, which the battery "
                         "folds through _worst (test_linalg.py TestPredicates)",
    "p9_eval": "three scalar arguments, checked as one vector by _vec3",
    "lmm_positive_cone_check": "a record argument, an LmmInvariants",
    "validate_density": "the check itself, which every STATE_SITES row is compared with",
    "bell_projector": "a name argument",
    "so3_of_u2": "a 2x2 unitary argument, refused with NotUnitary (test_groups.py)",
    "haar_su2": "a seed argument",
    "haar_so3": "a seed argument",
    "random_bloch": "a seed argument",
    "random_state": "a seed argument",
    "lmm_weyl_pair": "a record argument, a SignedPerm",
    "lmm_normalizer_pairs": "a record argument, a list of SignedPerm",
    "signed_permutations": "no argument",
    "octahedral_group": "no argument",
    "lmm_weyl_action_group": "no argument",
}


def test_every_public_function_is_checked_or_exempt():
    public = {name for module in (linalg, invariants, orbits, states, groups)
              for name, f in inspect.getmembers(module, inspect.isfunction)
              if f.__module__ == module.__name__ and not name.startswith("_")}
    checked = {s[1] for s in SITES} | {s[0] for s in STATE_SITES}
    assert public - checked == set(EXEMPT), "add a SITES or STATE_SITES row, or an EXEMPT reason"


@pytest.mark.parametrize("call, a, message", [
    (linalg.det3, [[1, 2, 3], [4, 5, 6], [7, 8]],
     r"^det3 input must have shape \(3, 3\), got \(3, ragged\)$"),
    (states.bloch_vector, [[1, 0], [0]],
     r"^bloch_vector input must have shape \(2, 2\), got \(2, ragged\)$"),
    (linalg.det3, [[1, 2, 3], [4, [5], 6], [7, 8, 9]],
     r"^det3 input must have real number entries, got shape \(3, 3, ragged\)$"),
    (linalg.det3, list(np.eye(3)), r"^det3 input must have shape \(3, 3\), got \(3, arrays\)$"),
    (states.bloch_vector, list(np.eye(2)),
     r"^bloch_vector input must have shape \(2, 2\), got \(2, arrays\)$"),
], ids=["det3", "bloch_vector", "det3-deep", "det3-array-rows", "bloch_vector-array-rows"])
def test_ragged_input_says_ragged(call, a, message):
    # The shape in a message is read along every entry, not the first ones;
    # a list of array rows is refused, and named as one.
    with pytest.raises(ValueError, match=message):
        call(a)


class TestRowChecks:
    """The edges of linalg._rows3 and _vec3, the straight-line checks of every
    3x3 and 3-vector argument: their values and norm in float.hex, the input
    kinds the package passes in, and the order of their errors."""

    EDGE = [1.7e308, -1.7e308, -0.0, 0.0, 5e-324, -2.0**-1022, 1.0, -1.5, 2.0**1023]

    def _draws(self):
        rng = np.random.default_rng(2203)
        for _ in range(200):
            yield (rng.standard_normal(9) * 10.0 ** rng.integers(-300, 300)).tolist()
        for _ in range(100):
            yield rng.choice(np.array(self.EDGE), size=9).tolist()

    def test_values_and_norm_in_float_hex(self):
        for flat in self._draws():
            rows, norm = linalg._rows3([flat[0:3], flat[3:6], flat[6:9]], "probe")
            assert hex_list(sum(rows, ())) == hex_list(flat)
            assert norm.hex() == max(map(abs, flat)).hex()
            assert hex_list(linalg._vec3(flat[:3], "probe")) == hex_list(flat[:3])

    def test_extremes_pass(self):
        big = [[1.7e308, -1.7e308, 0.0], [0.0, -1.7e308, 0.0], [0.0, 0.0, 1.7e308]]
        assert linalg._rows3(big, "probe")[1] == 1.7e308
        assert linalg._vec3([1.7e308, -1.7e308, 5e-324], "probe") == [1.7e308, -1.7e308, 5e-324]

    def test_negative_zero_kept(self):
        rows, norm = linalg._rows3([[-0.0] * 3] * 3, "probe")
        assert hex_list(sum(rows, ())) == ["-0x0.0p+0"] * 9
        assert norm.hex() == "0x0.0p+0"
        assert hex_list(linalg._vec3([-0.0, 0.0, -0.0], "probe")) == [
            "-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"]

    @pytest.mark.parametrize("a", [
        np.arange(9).reshape(3, 3) - 4,
        np.eye(3, dtype=bool),
        np.array([[0.1, -0.2, 0.3]] * 3, dtype=np.float32),
        ((1, 2.5, -3), (True, 0, 1e-300), (7, 8, 9)),
        [[1, 2, 3], (4, 5, 6), [7.0, "8", "-9.5"]],
    ], ids=["int", "bool", "float32", "tuples", "mixed-and-numeric-strings"])
    def test_input_kinds(self, a):
        rows, norm = linalg._rows3(a, "probe")
        flat = [float(x) for row in (a.tolist() if hasattr(a, "tolist") else a) for x in row]
        assert all(type(x) is float for row in rows for x in row)
        assert hex_list(sum(rows, ())) == hex_list(flat)
        assert type(norm) is float and norm.hex() == max(map(abs, flat)).hex()
        v = linalg._vec3(a[1], "probe")
        assert all(type(x) is float for x in v) and hex_list(v) == hex_list(flat[3:6])

    @pytest.mark.parametrize("a, message", [
        # A wrong shape comes first, whatever the entries.
        ([[np.nan, "abc", 1.0], [0.0] * 3, [0.0] * 2], "must have shape"),
        ([["abc"] * 3] * 4, "must have shape"),
        # Then an entry float() refuses, wherever it is.
        ([[np.nan, 0.0, 0.0], [0.0] * 3, [0.0, 0.0, "abc"]], "must have real number entries"),
        ([[10**400, 0.0, 0.0], [0.0] * 3, [0.0, 0.0, None]], "must have real number entries"),
        ([[0.0, 0.0, 0.0], [0.0, 1j, 0.0], [0.0, 0.0, np.inf]], "must have real number entries"),
        ([[0.0, 0.0, 0.0], [0.0, [1.0], 0.0], [0.0] * 3], "must have real number entries"),
        # Then a NaN, an Inf or an integer beyond the double range.
        ([[10**400, 0.0, 0.0], [0.0] * 3, [0.0, 0.0, np.nan]], "contains NaN or Inf entries"),
        ([[0.0, 0.0, 0.0], [0.0] * 3, [0.0, 0.0, -10**400]], "contains NaN or Inf entries"),
        ([[0.0, 0.0, 0.0], [0.0, -np.inf, 0.0], [0.0] * 3], "contains NaN or Inf entries"),
        # The shape error of short rows names the expected shape.
        ([[0.0] * 2] * 3, r"must have shape \(3, 3\), got \(3, 2\)$"),
    ])
    def test_error_precedence(self, a, message):
        with pytest.raises(ValueError, match=f"^probe {message}"):
            linalg._rows3(a, "probe")

    @pytest.mark.parametrize("v, message", [
        ([np.nan, "abc"], "must have shape"),
        ([np.nan, 0.0, "abc"], "must have real number entries"),
        ([10**400, None, 0.0], "must have real number entries"),
        ([10**400, 0.0, np.nan], "contains NaN or Inf entries"),
        ([0.0, -10**400, 0.0], "contains NaN or Inf entries"),
    ])
    def test_vector_error_precedence(self, v, message):
        with pytest.raises(ValueError, match=f"^probe {message}"):
            linalg._vec3(v, "probe")

    def test_empty_input_names_its_shape(self):
        # An empty sequence has one dimension, of length 0, as in numpy.
        with pytest.raises(ValueError, match=r"^det3 input must have shape \(3, 3\), got \(0,\)$"):
            linalg.det3([])
