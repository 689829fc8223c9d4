"""Continuant basics: words, exact evaluation, quotients, and identities.

Walks through the value side of the library: regular and semi-regular
continuants of linear words, their cyclic analogues, continued-fraction
quotients, and the splitting identity that search and certification
lean on.
"""

from cycont import (
    LinearWord,
    OrderedAlphabet,
    cf_value,
    continuant_regular,
    continuant_semiregular,
    cyclic_regular,
    cyclic_semiregular,
)

alphabet = OrderedAlphabet(("a", "b", "c"), values=(2, 3, 4))
word = alphabet.word("abcab")

print("word:", word, "over values", alphabet.values)
print("regular continuant      K  =", continuant_regular(word))
print("semi-regular continuant Kd =", continuant_semiregular(word))
print("reversal invariance:",
      continuant_regular(word) == continuant_regular(word.reverse()))

omega = alphabet.cyclic("abcab")
print("\ncyclic word:", omega, "(canonical rotation of", str(word) + ")")
print("K_cyc  =", cyclic_regular(omega))
print("Kd_cyc =", cyclic_semiregular(omega))
rotated = alphabet.cyclic("babca")
print("same class from another rotation:", omega == rotated)

print("\ncontinued-fraction quotients of", word)
print("regular      [x]  =", cf_value(word, "regular"))
print("semi-regular [x]. =", cf_value(word, "semiregular"))



def Kd(a, b):
    """Semi-regular continuant of the slice word[a:b]; the empty slice gives 1."""
    return continuant_semiregular(LinearWord(alphabet, word.indices[a:b]))


n = len(word)
print("\nsplitting identity Kd(x) = Kd(x[:m]) Kd(x[m:]) - Kd(x[:m-1]) Kd(x[m+1:])")
print("at every cut m of", word)
for m in range(1, n):
    rhs = Kd(0, m) * Kd(m, n) - Kd(0, m - 1) * Kd(m + 1, n)
    print(f"  cut {m}: {Kd(0, n)} == {rhs}")

big = alphabet.word("abc" * 40)
print("\nexact big integers, no overflow:")
print("K of a 120-letter word has", len(str(continuant_regular(big))), "digits")
