"""The tamari-oracle suite on broken inputs: its counterexample must be the
first failure of the all-pairs loop written here."""

from multisym import posets, trees, verify
from multisym.posets import FinitePoset

N = 4
TAMARI = posets.tamari
KEY_WORD = trees._key_word
KEYS = trees.enumerate_family("Y", N)


def reference_counterexample(n_max):
    """The suite's clauses checked pair by pair, through the same module
    attributes the suite reads, so a patch reaches both."""
    for n in range(1, n_max + 1):
        tam, weak = posets.tamari(n), posets.weak_order(n)
        keys = tam.elements
        min_of = {k: trees.render_perm(trees._key_word(k)) for k in keys}
        max_of = {k: trees.render_perm(trees._key_word(k, True)) for k in keys}
        for a in keys:
            for b in keys:
                if tam.leq(a, b) != weak.leq(min_of[a], min_of[b]):
                    return f"{a}<={b}"
                if tam.leq(a, b) and not weak.leq(max_of[a], max_of[b]):
                    return f"{a}<={b}"
        for key in keys:
            fiber = [trees.render_perm(w) for w in trees.fiber_of_tree(trees.parse_tree(key))]
            if weak.interval_ends(fiber) != (min_of[key], max_of[key]):
                return key
    return None


def assert_suite_matches_reference(monkeypatch, patches):
    """Under each list of (module, name, value) patches the suite must fail
    with the reference loop's counterexample."""
    for patch in patches:
        with monkeypatch.context() as m:
            for module, name, value in patch:
                m.setattr(module, name, value)
            expected = reference_counterexample(N)
            result = verify.suite_tamari_oracle(N)
        assert expected is not None and not result.passed, patch
        assert result.counterexample == expected, patch


def tamari_with(covers):
    return lambda n: FinitePoset(TAMARI(n).elements, covers) if n == N else TAMARI(n)


def test_unbroken_inputs_pass():
    assert reference_counterexample(N) is None
    assert verify.suite_tamari_oracle(N).passed


def test_dropped_cover(monkeypatch):
    covers = TAMARI(N).covers
    assert_suite_matches_reference(monkeypatch, [
        [(posets, "tamari", tamari_with(covers - {cover}))] for cover in sorted(covers)])


def test_added_relation(monkeypatch):
    tam = TAMARI(N)
    assert_suite_matches_reference(monkeypatch, [
        [(posets, "tamari", tamari_with(tam.covers | {(a, b)}))]
        for a in tam.elements for b in tam.elements
        if not tam.leq(a, b) and not tam.leq(b, a)])


def test_max_word_that_breaks_order(monkeypatch):
    # one tree's maximal word, as the key reader gives it, replaced by the
    # identity, the least word
    def breaking(shape):
        return lambda key, section=False: (
            tuple(range(1, N + 1)) if section and key == shape else KEY_WORD(key, section))

    assert_suite_matches_reference(monkeypatch, [
        [(trees, "_key_word", breaking(shape))]
        for shape in KEYS if shape != trees.render(trees.left_comb(N))])


def test_two_trees_with_one_minimal_word(monkeypatch):
    # the second tree takes the first one's minimal word
    def sharing(source, target):
        return lambda key, section=False: KEY_WORD(
            source if not section and key == target else key, section)

    assert_suite_matches_reference(monkeypatch, [
        [(trees, "_key_word", sharing(s, t))] for s in KEYS for t in KEYS if s != t])
