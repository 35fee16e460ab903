"""Test-side Fox calculus in the free group ring: the paper's definition,
which ``fox.theta_matrix`` must agree with after the abelianization.

A formal Z-linear combination of free words is a dict from the words'
letter tuples (``FreeWord.letters``) to ints.
The derivative is computed left to right:

    d(uw)/dx = du/dx * aug(w) + u * dw/dx,      aug(group word) = 1,

so d(a)/da = 1 and d(a^-1)/da = -a^-1.  ``phi`` pushes a word or a
combination of words to Z[g] for a group g that remembers its ambient
projection, as ``fox.abelianization`` returns it; ``concat`` is the
product of two words, ``parse_word`` reads a word spelled in given
generator names through ``FreeWord.from_string``, and ``random_word``
draws one through it.
"""

from ring_oracle import from_ambient, ring_of
from sutured_kit.errors import InvalidGenerator
from sutured_kit.fox import FreeWord


def concat(u, w):
    """The freely reduced product u w."""
    return FreeWord(u.letters + w.letters)


def parse_word(text, names):
    """The word ``text`` in the generators ``names``, read through a letter
    table like the one ``fox.load_presentation_json`` builds."""
    table = {}
    for i, name in enumerate(names):
        table[name], table[name.upper()] = (i, 1), (i, -1)
    return FreeWord.from_string(text, table)


def random_word(rng, names, max_len=12):
    """A word of at most max_len random letters in ``names``, each inverted
    at random, spelled and parsed as a relator of a JSON presentation is."""
    tokens = rng.choices(names, k=rng.randint(0, max_len))
    return parse_word(" ".join(rng.choice((t, t.upper())) for t in tokens), names)


def combo_add(x, y):
    out = dict(x)
    for w, c in y.items():
        out[w] = out.get(w, 0) + c
        if out[w] == 0:
            del out[w]
    return out


def combo_mul(x, y):
    """Product in the free group ring."""
    out = {}
    for u, cu in x.items():
        for w, cw in y.items():
            p = FreeWord(u + w).letters
            out[p] = out.get(p, 0) + cu * cw
            if out[p] == 0:
                del out[p]
    return out


def fox_derivative(w, i, num_generators):
    """Fox derivative d(w)/d(a_i) as a formal combination of words.

    >>> names = ["a", "b"]
    >>> w = parse_word("a b a", names)
    >>> fox_derivative(w, 0, 2) == {(): 1, parse_word("a b", names).letters: 1}
    True
    """
    if not 0 <= i < num_generators:
        raise InvalidGenerator(f"generator index {i} out of range (m={num_generators})")
    result = {}
    prefix = FreeWord(())
    for g, e in w.letters:
        if not 0 <= g < num_generators:
            raise InvalidGenerator(f"letter index {g} out of range")
        if g == i:
            if e == 1:
                term = prefix
                sign = 1
            else:
                term = concat(prefix, FreeWord(((g, -1),)))
                sign = -1
            key = term.letters
            result[key] = result.get(key, 0) + sign
            if result[key] == 0:
                del result[key]
        prefix = concat(prefix, FreeWord(((g, e),)))
    return result


def phi(g, x):
    """The class in Z[g] of a FreeWord or of a formal combination of words."""
    if isinstance(x, FreeWord):
        x = {x.letters: 1}
    m = g.projection.cols
    return ring_of((from_ambient(g, FreeWord(w).exponents(m)), c) for w, c in x.items())
