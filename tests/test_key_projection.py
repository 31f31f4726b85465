"""The key projections ``trees._tau_key`` and ``trees._beta_key`` against a
recursive argmax key builder written here: the largest letter is the root,
the letters before it the left subtree and those after it the right one.
The oracle imports nothing from ``multisym.trees``."""

import inspect
import itertools
import random
import sys

from multisym.trees import _beta_key, _tau_key, parse_key, render


def oracle_key(word, circle_from=None):
    """Key of the decreasing tree of ``word``; letters >= ``circle_from`` circled."""
    if not word:
        return "."
    i = word.index(max(word))
    inner = oracle_key(word[:i], circle_from) + oracle_key(word[i + 1:], circle_from)
    if circle_from is not None and word[i] >= circle_from:
        return "{" + inner + "}"
    return "(" + inner + ")"


def check(word):
    assert _tau_key(word) == oracle_key(word)
    key = _beta_key(word)
    assert key == oracle_key(word, word[0])
    assert render(parse_key("M", key)) == key


def test_every_word_up_to_seven_letters():
    assert _tau_key(()) == "."
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            check(word)


def test_random_words_of_eight_to_twenty_letters():
    rng = random.Random(1010)
    for _ in range(2000):
        word = list(range(1, rng.randint(8, 20) + 1))
        rng.shuffle(word)
        check(tuple(word))


def on_a_short_stack(func, *args):
    """``func(*args)`` with the recursion limit 100 frames above the current
    depth, so that a routine recursing once per letter overflows."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        return func(*args)
    finally:
        sys.setrecursionlimit(limit)


def test_monotone_words_give_the_combs():
    # each letter of the increasing word sits above the ones before it, and
    # each of the decreasing word above the ones after it; only the first
    # letter of the decreasing word is >= its first letter
    n = 5000
    up, down = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    assert on_a_short_stack(_tau_key, up) == "(" * n + "." + ".)" * n
    assert on_a_short_stack(_beta_key, up) == "{" * n + "." + ".}" * n
    assert on_a_short_stack(_tau_key, down) == "(." * n + "." + ")" * n
    assert on_a_short_stack(_beta_key, down) == "{." + "(." * (n - 1) + "." + ")" * (n - 1) + "}"
