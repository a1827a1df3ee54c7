import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothsum.astkit import import_sexpr, sbt_flatten
from smoothsum.corpus import (PAD, START, END, UNK, Sample,
                              SPECIAL_TOKENS, Vocabulary, atomic_write,
                              build_token_vocabulary, build_vocabulary,
                              encode_sequence, extract_action_word,
                              filter_by_length_quantile, load_prepared_dir,
                              read_corpus_jsonl, read_split_jsonl,
                              split_by_project,
                              tokenize_code, tokenize_comment, write_jsonl,
                              write_prepared_dir)
from smoothsum.errors import ConfigurationError, DataError
from smoothsum.metrics import (PredictionRecord, read_predictions,
                               write_predictions)
from smoothsum.rng import Rng
from smoothsum.stemming import porter_stem
from smoothsum.synthetic import generate_samples, write_corpus_jsonl


def make_sample(i, project, code_len=10, comment=("does", "things")):
    return Sample(id=f"s{i}", project=project, code_tokens=["tok"],
                  comment_tokens=list(comment), code_char_len=code_len)


class TestTokenizers:
    def test_code_camel_and_snake(self):
        assert tokenize_code("getFooBar(x_val)") == ["get", "foo", "bar",
                                                     "x", "val"]

    def test_code_empty(self):
        assert tokenize_code("") == []

    def test_code_digits_standalone(self):
        assert tokenize_code("a+b2") == ["a", "b", "2"]
        assert tokenize_code("x2y34") == ["x", "2", "y", "34"]

    def test_code_acronym_runs(self):
        assert tokenize_code("HTTPServer") == ["http", "server"]

    def test_comment_first_sentence(self):
        assert tokenize_comment("Deletes the file. Returns true.") == \
            ["deletes", "the", "file"]

    def test_comment_lowercases(self):
        assert tokenize_comment("returns X") == ["returns", "x"]

    def test_comment_blank(self):
        assert tokenize_comment("  ") == []

    def test_comment_question_mark_ends_sentence(self):
        assert tokenize_comment("is it set? maybe") == ["is", "it", "set"]


class TestVocabulary:
    def _corpus(self, freqs):
        tokens = [t for t, c in freqs.items() for _ in range(c)]
        s = Sample(id="s", project="p", code_tokens=tokens,
                   comment_tokens=tokens, code_char_len=1)
        return [s]

    def test_frequency_order(self):
        vocab = build_vocabulary(self._corpus({"a": 3, "b": 2, "c": 1}), 6,
                                 "source")
        assert vocab.tokens == list(SPECIAL_TOKENS) + ["a", "b"]

    def test_size_five_keeps_one(self):
        vocab = build_vocabulary(self._corpus({"a": 3, "b": 2}), 5, "source")
        assert vocab.tokens[-1] == "a" and vocab.size == 5

    def test_tie_break_lexicographic(self):
        vocab = build_vocabulary(self._corpus({"b": 2, "a": 2}), 6, "source")
        assert vocab.tokens[4:] == ["a", "b"]

    def test_size_below_minimum(self):
        with pytest.raises(ConfigurationError):
            build_vocabulary(self._corpus({"a": 1}), 4, "source")

    def test_ast_side_counts_sbt_streams(self):
        asts = ["(f (x) (y))", None, "", "(g (x) (h (y)))", "(f (z))"]
        samples = [Sample(id=f"s{i}", project="p", code_tokens=["a"],
                          comment_tokens=["b"], ast_text=ast, code_char_len=1)
                   for i, ast in enumerate(asts)]
        expected = build_token_vocabulary(
            [sbt_flatten(import_sexpr(ast)) for ast in asts if ast], 12)
        assert build_vocabulary(samples, 12, "ast") == expected

    def test_unknown_side(self):
        with pytest.raises(ConfigurationError):
            build_vocabulary(self._corpus({"a": 1}), 6, "comment")

    def test_round_trip(self):
        vocab = build_vocabulary(self._corpus({"a": 3, "b": 2, "c": 1}), 7,
                                 "target")
        for token in vocab.tokens:
            assert vocab.tokens[vocab.index[token]] == token

    def test_file_round_trip(self, tmp_path):
        vocab = Vocabulary(list(SPECIAL_TOKENS) + ["x", "y"])
        vocab.write(tmp_path / "v.txt")
        again = Vocabulary.read(tmp_path / "v.txt")
        assert again.tokens == vocab.tokens

    def test_file_without_specials_rejected(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\nb\nc\nd\ne\n")
        with pytest.raises(DataError):
            Vocabulary.read(tmp_path / "v.txt")


class TestEncodeSequence:
    vocab = Vocabulary(list(SPECIAL_TOKENS) + ["a", "b", "c"])

    def test_unknown_markers_padding(self):
        assert encode_sequence(["foo"], self.vocab, 4, True) == \
            [START, UNK, END, PAD]

    def test_truncation_keeps_end_marker(self):
        assert encode_sequence(["a", "b", "c"], self.vocab, 3, True) == \
            [START, 4, END]

    def test_empty_with_markers(self):
        assert encode_sequence([], self.vocab, 2, True) == [START, END]

    def test_without_markers(self):
        assert encode_sequence(["a", "b"], self.vocab, 4, False) == \
            [4, 5, PAD, PAD]

    def test_bounds_and_length_properties(self):
        rng = Rng(5)
        tokens = ["a", "b", "c", "zz", "q"]
        for _ in range(200):
            k = rng.randint(len(tokens) + 1)
            chosen = [tokens[rng.randint(len(tokens))] for _ in range(k)]
            max_len = 2 + rng.randint(6)
            ids = encode_sequence(chosen, self.vocab, max_len,
                                  add_markers=bool(rng.randint(2)))
            assert len(ids) == max_len
            assert all(0 <= i < self.vocab.size for i in ids)

    def test_max_len_too_small(self):
        with pytest.raises(ConfigurationError):
            encode_sequence(["a"], self.vocab, 1, True)


def greedy_split(corpus, ratios, seed):
    """The sample ids of each split under the deficit rule alone, with no
    fallback for an empty split."""
    order = sorted({s.project for s in corpus})
    Rng(seed).derive("project-split").shuffle(order)
    deficits = [r * len(corpus) for r in ratios]
    splits = [[], [], []]
    for project in order:
        ids = [s.id for s in corpus if s.project == project]
        which = max(range(3), key=lambda i: (deficits[i], -i))
        splits[which] += ids
        deficits[which] -= len(ids)
    return splits


class TestSplitByProject:
    def _corpus(self, sizes):
        samples = []
        for p, count in sizes.items():
            for i in range(count):
                samples.append(make_sample(f"{p}x{i}", p))
        return samples

    def test_ten_projects_even(self):
        corpus = self._corpus({f"p{i}": 10 for i in range(10)})
        for seed in range(6):
            train, val, test = split_by_project(corpus, (0.8, 0.1, 0.1), seed)
            assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_partition_and_purity(self):
        rng = Rng(17)
        sizes = {f"p{i}": 1 + rng.randint(20) for i in range(9)}
        corpus = self._corpus(sizes)
        train, val, test = split_by_project(corpus, (0.7, 0.15, 0.15), 3)
        all_ids = sorted(s.id for c in (train, val, test) for s in c)
        assert all_ids == sorted(s.id for s in corpus)
        assignment = {}
        for split, c in (("train", train), ("val", val), ("test", test)):
            for s in c:
                assert assignment.setdefault(s.project, split) == split

    def test_deterministic(self):
        corpus = self._corpus({f"p{i}": 5 for i in range(8)})
        a = split_by_project(corpus, (0.8, 0.1, 0.1), 42)
        b = split_by_project(corpus, (0.8, 0.1, 0.1), 42)
        for ca, cb in zip(a, b):
            assert [s.id for s in ca] == [s.id for s in cb]

    def test_too_few_projects(self):
        with pytest.raises(DataError):
            split_by_project(self._corpus({"a": 5, "b": 5}), (0.8, 0.1, 0.1), 0)

    def test_fallback_fills_every_split(self):
        # seed 2 orders the projects b, c, a: the deficit rule puts b and c
        # in train and a in val, though c, a and b fill all three splits
        corpus = self._corpus({"a": 10, "b": 10, "c": 80})
        for seed in (2, 3, 4):
            assert not all(greedy_split(corpus, (0.8, 0.1, 0.1), seed))
            train, val, test = split_by_project(corpus, (0.8, 0.1, 0.1), seed)
            assert {s.project for s in train} == {"c"}
            assert (len(train), len(val), len(test)) == (80, 10, 10)

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(st.lists(st.integers(1, 40), min_size=3, max_size=8),
           st.sampled_from([(0.8, 0.1, 0.1), (0.6, 0.1, 0.3),
                            (0.15, 0.075, 0.775), (0.55, 0.35, 0.1),
                            (0.4, 0.3, 0.3)]),
           st.integers(0, 30))
    def test_fallback_only_where_a_split_is_empty(self, sizes, ratios, seed):
        corpus = self._corpus({f"p{i}": n for i, n in enumerate(sizes)})
        greedy = greedy_split(corpus, ratios, seed)
        splits = [[s.id for s in c]
                  for c in split_by_project(corpus, ratios, seed)]
        if all(greedy):
            assert splits == greedy
        else:
            assert all(splits)
            assert sorted(sum(splits, [])) == \
                sorted(s.id for s in corpus)

    def test_bad_ratios(self):
        corpus = self._corpus({f"p{i}": 5 for i in range(4)})
        for ratios in ((0.8, 0.1, 0.2), (math.nan, 0.5, 0.5)):
            with pytest.raises(ConfigurationError):
                split_by_project(corpus, ratios, 0)


class TestQuantileFilter:
    def _corpus(self, lengths):
        return [make_sample(i, f"p{i}", code_len=l)
                for i, l in enumerate(lengths)]

    def test_decile_on_one_to_ten(self):
        kept = filter_by_length_quantile(self._corpus(range(1, 11)), 0.9)
        assert [s.code_char_len for s in kept] == [10]

    def test_quartile_on_one_to_four(self):
        kept = filter_by_length_quantile(self._corpus([1, 2, 3, 4]), 0.75)
        assert [s.code_char_len for s in kept] == [4]

    def test_all_equal_gives_empty(self):
        for q in (0.1, 0.5, 0.9):
            kept = filter_by_length_quantile(self._corpus([7] * 12), q)
            assert len(kept) == 0

    def test_against_scan_oracle(self):
        # nearest-rank quantile by definition: smallest value whose
        # cumulative share reaches q
        rng = Rng(23)
        for trial in range(50):
            lengths = [1 + rng.randint(40) for _ in range(1 + rng.randint(30))]
            q = (1 + rng.randint(98)) / 100.0
            threshold = min(v for v in lengths
                            if sum(x <= v for x in lengths) / len(lengths) >= q)
            expected = sorted(i for i, l in enumerate(lengths) if l > threshold)
            kept = filter_by_length_quantile(self._corpus(lengths), q)
            got = sorted(int(s.id[1:]) for s in kept)
            assert got == expected, (trial, lengths, q)

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            filter_by_length_quantile([], 0.5)

    def test_bad_quantile(self):
        with pytest.raises(ConfigurationError):
            filter_by_length_quantile(self._corpus([1, 2]), 1.0)


class TestActionWords:
    def test_first_token_stemmed(self):
        assert extract_action_word(["deletes", "the", "file"]) == "delet"

    def test_returns(self):
        assert extract_action_word(["returns", "x"]) == porter_stem("returns")

    def test_empty_comment(self):
        with pytest.raises(DataError):
            extract_action_word([])


class TestCorpusFiles:
    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "split.jsonl"
        record = json.dumps({"id": "s1", "project": "p", "code_tokens": [],
                             "comment_tokens": [], "code_char_len": 0})
        path.write_text(f"{record}\n{record}\n")
        with pytest.raises(DataError,
                           match=r"split\.jsonl:2: duplicate sample id 's1'"):
            read_split_jsonl(path)

    @pytest.mark.parametrize("length", ["12", True, 3.9, -5, 1e3])
    def test_code_char_len_must_be_a_non_negative_integer(self, tmp_path,
                                                          length):
        path = tmp_path / "split.jsonl"
        good = {"id": "s1", "project": "p", "code_tokens": [],
                "comment_tokens": [], "code_char_len": 4}
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, "id": "s2",
                                      "code_char_len": length}) + "\n")
        with pytest.raises(DataError, match=r"split\.jsonl:2: "):
            read_split_jsonl(path)

    def test_raw_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [
            {"id": "a", "project": "p1", "code": "int f(){return 1;}",
             "comment": "Gets one. More text."},
            {"id": "b", "project": "p2", "code": "void setX(int x){}",
             "comment": "sets x", "ast": "(function (name (f)))"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = read_corpus_jsonl(path)
        assert [s.id for s in corpus] == ["a", "b"]
        assert corpus[0].comment_tokens == ["gets", "one"]
        assert corpus[1].ast_text == "(function (name (f)))"
        assert corpus[0].code_char_len == len(rows[0]["code"])

    def test_missing_ast_derived_from_code(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [{"id": "a", "project": "p", "code": "int f(){return 1;}",
                 "comment": "c"},
                {"id": "b", "project": "p", "code": "int f(){return",
                 "comment": "c"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        derived, unparsed = read_corpus_jsonl(path)
        assert derived.ast_text == \
            "(function (type (int)) (name (f)) (params) (body (return (1))))"
        assert unparsed.ast_text is None

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(DataError):
            read_corpus_jsonl(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "a", "project": "p"}) + "\n")
        with pytest.raises(DataError):
            read_corpus_jsonl(path)

    def test_prepared_dir_round_trip(self, tmp_path):
        def corpus(ids):
            return [make_sample(i, f"p{i}") for i in ids]
        vocab = Vocabulary(list(SPECIAL_TOKENS) + ["tok"])
        write_prepared_dir(tmp_path / "prep", corpus([1, 2]), corpus([3]),
                           corpus([4]), vocab, vocab, vocab)
        prepared = load_prepared_dir(tmp_path / "prep")
        assert [s.id for s in prepared.train] == ["s1", "s2"]
        assert [s.id for s in prepared.test] == ["s4"]
        assert prepared.ast_vocab.tokens == vocab.tokens

    def test_split_lines_are_sorted_key_json(self, tmp_path):
        # each line is the text of json.dumps(record, sort_keys=True)
        samples = [
            Sample("a", "p\u00e9", ["get", "\u00e9t\u00e9"],
                   ['say "hi"', "a\\b"], "(f (x))", 17),
            Sample("b", "p2", [], ["\U0001f600"], None, 0),
        ]
        vocab = Vocabulary(list(SPECIAL_TOKENS) + ["tok"])
        write_prepared_dir(tmp_path, samples, samples[:1], [], vocab, vocab,
                           vocab)
        for split, written in (("train", samples), ("val", samples[:1]),
                               ("test", [])):
            assert (tmp_path / f"{split}.jsonl").read_text() == "".join(
                json.dumps({"id": s.id, "project": s.project,
                            "code_tokens": s.code_tokens,
                            "comment_tokens": s.comment_tokens,
                            "ast": s.ast_text,
                            "code_char_len": s.code_char_len},
                           sort_keys=True) + "\n" for s in written)

    def test_raw_corpus_lines_are_sorted_key_json(self, tmp_path):
        records = generate_samples(20, seed=3) + [
            {"project": "p\u00e9", "id": 7, "comment": 'say "\U0001f600"',
             "code": "int f(){}\n\t", "ast": None}]
        write_corpus_jsonl(records, tmp_path / "c.jsonl")
        assert (tmp_path / "c.jsonl").read_text() == "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in records)

    def test_prepared_dir_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_prepared_dir(tmp_path / "nothing")

    def test_prepared_dir_reads_only_requested_splits(self, tmp_path):
        vocab = Vocabulary(list(SPECIAL_TOKENS) + ["tok"])
        write_prepared_dir(tmp_path, [make_sample(1, "p1")],
                           [make_sample(2, "p2")],
                           [make_sample(3, "p3")], vocab, vocab,
                           vocab)
        (tmp_path / "test.jsonl").unlink()
        prepared = load_prepared_dir(tmp_path, splits=("train", "val"))
        assert [s.id for s in prepared.val] == ["s2"]
        assert prepared.test is None
        for splits in (("test",), ("train", "val", "test")):
            with pytest.raises(DataError, match="test.jsonl"):
                load_prepared_dir(tmp_path, splits=splits)

    @pytest.mark.parametrize("ast", [5, ["(f)"], {"f": 1}, True])
    def test_non_string_ast_names_line(self, tmp_path, ast):
        raw = {"id": "a", "project": "p", "code": "int f(){}", "comment": "c"}
        split = {"id": "a", "project": "p", "code_tokens": ["f"],
                 "comment_tokens": ["c"], "code_char_len": 9}
        for record, read in ((raw, read_corpus_jsonl),
                             (split, read_split_jsonl)):
            path = tmp_path / "c.jsonl"
            path.write_text(json.dumps({**record, "ast": None}) + "\n"
                            + json.dumps({**record, "id": "b", "ast": ast})
                            + "\n")
            with pytest.raises(DataError, match=r"c\.jsonl:2: .*ast"):
                read(path)

    @pytest.mark.parametrize("token", [None, 1.5, True, ["x"], {"k": 1}])
    @pytest.mark.parametrize("field", ["code_tokens", "comment_tokens",
                                       "ref", "pred"])
    def test_non_string_token_names_line(self, tmp_path, field, token):
        split = {"id": "a", "project": "p", "code_tokens": ["f"],
                 "comment_tokens": ["c"], "code_char_len": 9}
        record, read = ((split, read_split_jsonl)
                        if field in split else
                        ({"id": "a", "ref": ["x"], "pred": ["x"]},
                         read_predictions))
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps({**record, "id": "b",
                                      field: ["ok", token]}) + "\n")
        with pytest.raises(DataError,
                           match=rf"c\.jsonl:2: .*{field} token 1 .*string"):
            read(path)

    @pytest.mark.parametrize("field", ["code_tokens", "comment_tokens",
                                       "ref", "pred", "ast"])
    def test_lone_surrogate_names_line(self, tmp_path, field):
        # JSON's \u escapes can spell a lone surrogate; UTF-8 cannot encode
        # one, so a reader refuses it before anything is written
        split = {"id": "a", "project": "p", "code_tokens": ["f"],
                 "comment_tokens": ["c"], "code_char_len": 9, "ast": "(f)"}
        raw = {"id": "a", "project": "p", "code": "int f(){}",
               "comment": "c", "ast": "(f)"}
        preds = {"id": "a", "ref": ["x"], "pred": ["x"]}
        value = "(f \ud800)" if field == "ast" else ["\u00e9", "\ud800"]
        cases = [(preds, read_predictions)] if field in preds else []
        if field in split:
            cases.append((split, read_split_jsonl))
        if field in raw:
            cases.append((raw, read_corpus_jsonl))
        for record, read in cases:
            path = tmp_path / "c.jsonl"
            path.write_text(json.dumps(record) + "\n"
                            + json.dumps({**record, "id": "b", field: value})
                            + "\n")
            with pytest.raises(DataError,
                               match=rf"c\.jsonl:2: .*{field}.*surrogate"):
                read(path)


# ---------------------------------------------------------------------------
# property tests for the JSON-lines readers: any file either reads whole or
# fails with a DataError naming the first bad line


TOKENS = st.lists(st.text(max_size=4), max_size=4)
NOT_A_LIST = st.one_of(st.none(), st.booleans(), st.integers(),
                       st.floats(allow_nan=False), st.text(max_size=5),
                       st.dictionaries(st.text(max_size=3), st.integers(),
                                       max_size=2))
RAW_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\r\n"),
                   max_size=30)
SPLIT_RECORD = st.fixed_dictionaries(
    {"id": st.just(""), "project": st.text(max_size=5),
     "code_tokens": TOKENS, "comment_tokens": TOKENS,
     "code_char_len": st.integers(0, 10**6)},
    optional={"ast": st.one_of(st.none(), st.text(max_size=10))})
PREDICTION_RECORD = st.fixed_dictionaries(
    {"id": st.just(""), "ref": TOKENS, "pred": TOKENS})


def not_a_string(record, key):
    """Bad records whose key field is not a string."""
    return st.tuples(record, NOT_A_LIST.filter(
        lambda v: not isinstance(v, str))).map(
        lambda t: ("bad", {**t[0], key: t[1]}))


def id_lines(record):
    """Records whose id is not a string, and records that all take the id
    "dup", so that every one after the first repeats an id."""
    return st.one_of(not_a_string(record, "id"),
                     record.map(lambda r: ("dup", {**r, "id": "dup"})))


class TestAtomicWrite:
    def test_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_keeps_previous_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("previous\n")
        records = [PredictionRecord("a", ["x"], ["x"]),
                   PredictionRecord("b", ["y"], [object()])]
        with pytest.raises(TypeError):
            write_predictions(records, path)
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["preds.jsonl"]

    def test_jsonl_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("previous\n")
        with pytest.raises(TypeError):
            write_jsonl([{"id": "a"}, {"id": {1, 2}}], path)
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]

    def test_failure_creates_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "new.txt") as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None,
                             derandomize=True)


def jsonl_lines(record, required, typed, more=st.nothing()):
    """Lists of (status, line) pairs, where a line is raw text or a JSON
    value to dump: "ok" records, "blank" lines, "bad" lines (raw text,
    non-objects, a record missing a required field, or a record whose typed
    field is not a list), and the lines of more."""
    def tag(status):
        return lambda value: (status, value)

    missing = st.tuples(record, st.sampled_from(required)).map(
        lambda t: {k: v for k, v in t[0].items() if k != t[1]})
    mistyped = st.tuples(record, st.sampled_from(typed), NOT_A_LIST).map(
        lambda t: {**t[0], t[1]: t[2]})
    line = st.one_of(
        record.map(tag("ok")),
        RAW_TEXT.map(lambda s: ("bad" if s.strip() else "blank", s)),
        st.one_of(st.integers(), st.text(max_size=5),
                  st.lists(st.integers(), max_size=3))
        .map(lambda v: ("bad", json.dumps(v))),
        missing.map(tag("bad")),
        mistyped.map(tag("bad")),
        more)
    return st.lists(line, max_size=8)


def check_reader(read, lines):
    """Records with the id "" get unique ids by line number; then read must
    return every "ok" line and the first "dup" line, or raise a DataError
    that starts with path:first-bad-line, where a "dup" line after the
    first is bad."""
    texts = []
    for lineno, (_, line) in enumerate(lines, start=1):
        if isinstance(line, dict):
            line = json.dumps({**line, "id": f"r{lineno}"}
                              if line.get("id") == "" else line)
        texts.append(line + "\n")
    dups = [n for n, (status, _) in enumerate(lines, start=1)
            if status == "dup"]
    bad = sorted([n for n, (status, _) in enumerate(lines, start=1)
                  if status == "bad"] + dups[1:])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.jsonl"
        path.write_text("".join(texts), encoding="utf-8")
        if bad:
            with pytest.raises(DataError) as info:
                read(path)
            assert str(info.value).startswith(f"{path}:{bad[0]}:")
        else:
            assert len(read(path)) == (sum(s == "ok" for s, _ in lines)
                                       + len(dups))


class TestReadJsonlProperties:
    @PROPERTY_SETTINGS
    @given(jsonl_lines(SPLIT_RECORD,
                       ("id", "project", "code_tokens", "comment_tokens",
                        "code_char_len"),
                       ("code_tokens", "comment_tokens"),
                       id_lines(SPLIT_RECORD)
                       | not_a_string(SPLIT_RECORD, "project")))
    @example([("bad", "[" * 100000)])
    @example([("bad", "1" * 5000)])
    @example([("bad", {"id": "", "project": "p", "code_tokens": [],
                       "comment_tokens": [], "code_char_len": math.inf})])
    @example([("bad", '{"id": "a", "project": "p", "code_tokens": [], '
                      '"comment_tokens": [], "code_char_len": 1e400}')])
    @example([("bad", {"id": None, "project": "p", "code_tokens": [],
                       "comment_tokens": [], "code_char_len": 0}),
              ("ok", {"id": "None", "project": "p", "code_tokens": [],
                      "comment_tokens": [], "code_char_len": 0})])
    def test_split_file(self, lines):
        check_reader(read_split_jsonl, lines)

    @PROPERTY_SETTINGS
    @given(jsonl_lines(PREDICTION_RECORD, ("id", "ref", "pred"),
                       ("ref", "pred"), id_lines(PREDICTION_RECORD)))
    @example([("bad", {"id": None, "ref": [], "pred": []}),
              ("ok", {"id": "None", "ref": [], "pred": []})])
    @example([("ok", {"id": "1.5", "ref": [], "pred": []}),
              ("bad", {"id": 1.5, "ref": [], "pred": []})])
    @example([("dup", {"id": "dup", "ref": ["a"], "pred": []}),
              ("dup", {"id": "dup", "ref": [], "pred": ["a"]})])
    def test_prediction_file(self, lines):
        check_reader(read_predictions, lines)

    @PROPERTY_SETTINGS
    @given(st.one_of(st.binary(max_size=40),
                     st.binary(max_size=10).map(
                         lambda tail: "\n".join(SPECIAL_TOKENS).encode()
                         + b"\n" + tail)))
    @example("\n".join(SPECIAL_TOKENS).encode() + b"\nx\xff\n")
    def test_vocabulary_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vocab.txt"
            path.write_bytes(data)
            try:
                vocab = Vocabulary.read(path)
            except DataError as exc:
                assert str(path) in str(exc)
                return
        assert vocab.tokens[:4] == list(SPECIAL_TOKENS)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"id": "a", "ref": [], "pred": []}\n"\xff"\n')
        with pytest.raises(DataError, match=r"f\.jsonl:2: "):
            read_predictions(path)
