"""Suffix-stripping stemmer checks against hand-traced reference values
and against steps 2-4 as they stood before they shared one rule loop."""

import pytest
from hypothesis import given, settings, strategies as st

from smoothsum import stemming as S
from smoothsum.stemming import porter_stem

# full-pipeline outputs traced by hand through steps 1a-5b
REFERENCE = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"), ("feed", "feed"),
    ("agreed", "agre"), ("plastered", "plaster"), ("motoring", "motor"),
    ("sing", "sing"), ("conflated", "conflat"), ("troubled", "troubl"),
    ("sized", "size"), ("hopping", "hop"), ("tanned", "tan"),
    ("falling", "fall"), ("hissing", "hiss"), ("fizzed", "fizz"),
    ("failing", "fail"), ("filing", "file"), ("happy", "happi"),
    ("sky", "sky"), ("relational", "relat"), ("conditional", "condit"),
    ("rational", "ration"), ("oscillators", "oscil"),
    ("generalizations", "gener"), ("abilities", "abil"),
    ("replacement", "replac"), ("adoption", "adopt"), ("opinion", "opinion"),
    ("formalize", "formal"), ("sensitivity", "sensit"),
]


@pytest.mark.parametrize("word,expected", REFERENCE)
def test_reference_values(word, expected):
    assert porter_stem(word) == expected


def test_inflection_family_collapses():
    stems = {porter_stem(w) for w in ("delete", "deletes", "deleted",
                                      "deleting")}
    assert stems == {"delet"}


def test_deleting_value():
    assert porter_stem("deleting") == "delet"


def test_short_words_unchanged():
    for word in ("a", "is", "be", "do", "x"):
        assert porter_stem(word) == word


def test_idempotent_on_corpus_vocabulary():
    from smoothsum.synthetic import MODIFIERS, NOUNS, VERBS

    words = list(VERBS) + list(NOUNS) + list(MODIFIERS) + ["the", "a"]
    words += ("running jumps quickly walked stopped merging copies "
              "formatted buffers trees values indexes caches handles "
              "silently optimization").split()
    for word in words:
        once = porter_stem(word)
        assert porter_stem(once) == once, word


# ---------------------------------------------------------------------------
# steps 2-4 as they stood before one rule loop served all three: the rule
# loop of steps 2 and 3, and step 4 as its own loop with the "ion" check


def reference_apply_rules(word, rules, min_measure):
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if S._measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


def reference_step4(word):
    for suffix, _ in S._STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if S._measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                return stem
            return word
    return word


def reference_stem(word):
    if len(word) <= 2:
        return word
    word = S._step1c(S._step1b(S._step1a(word)))
    word = reference_apply_rules(word, S._STEP2_RULES, 0)
    word = reference_apply_rules(word, S._STEP3_RULES, 0)
    return S._step5(reference_step4(word))


RULE_SUFFIXES = sorted({suffix for rules in (S._STEP2_RULES, S._STEP3_RULES,
                                             S._STEP4_SUFFIXES)
                        for suffix, _ in rules})
# endings that steps 1a-1c and 5 strip or rewrite after a rule suffix
ENDINGS = ("", "s", "es", "ed", "ing", "y", "e", "ly", "ness")
PROPERTY_SETTINGS = settings(max_examples=2000, deadline=None, database=None,
                             derandomize=True)


@PROPERTY_SETTINGS
@given(st.text(max_size=16))
def test_matches_reference_on_arbitrary_text(word):
    assert porter_stem(word) == reference_stem(word)


@PROPERTY_SETTINGS
@given(st.text("abcdefghijklmnopqrstuvwxyz", max_size=7),
       st.sampled_from(RULE_SUFFIXES), st.sampled_from(ENDINGS))
def test_matches_reference_on_rule_suffix_words(stem, suffix, ending):
    word = stem + suffix + ending
    assert porter_stem(word) == reference_stem(word)


@pytest.mark.parametrize("suffix", RULE_SUFFIXES)
def test_matches_reference_on_each_rule_suffix(suffix):
    stems = ("", "a", "s", "t", "y", "opin", "adopt", "posses", "cess",
             "relat", "generat", "hope", "bl", "tri", "ycl", "xyzzy")
    for stem in stems:
        for ending in ENDINGS:
            word = stem + suffix + ending
            assert porter_stem(word) == reference_stem(word), word
