import itertools
import json
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smoothsum.astkit import (MAX_DEPTH, AstNode, AstPath,
                              enumerate_leaf_paths, import_sexpr,
                              mini_function_sexpr, node, parse_mini_function,
                              render_sexpr, sample_paths, sbt_flatten,
                              sbt_from_sexpr)
from smoothsum.corpus import (Sample, build_token_vocabulary,
                              build_vocabulary, read_corpus_jsonl,
                              tokenize_code)
from smoothsum.errors import ConfigurationError, DataError, MiniParseError
from smoothsum.rng import Rng
from smoothsum.synthetic import generate_samples

import astkit_reference as reference
from conftest import random_tree


def find_nodes(tree, label):
    found = [tree] if tree.label == label else []
    for child in tree.children:
        found.extend(find_nodes(child, label))
    return found


class TestMiniParser:
    def test_return_literal(self):
        tree = parse_mini_function("int f(){return 1;}")
        assert tree.label == "function"
        returns = find_nodes(tree, "return")
        assert len(returns) == 1
        assert returns[0].children[0].label == "1"

    def test_assignment_with_addition(self):
        tree = parse_mini_function("int f(){x = a + b;}")
        assign = find_nodes(tree, "assign")[0]
        assert assign.children[0].label == "x"
        plus = assign.children[1]
        assert plus.label == "+"
        assert [c.label for c in plus.children] == ["a", "b"]

    def test_unterminated_body(self):
        with pytest.raises(MiniParseError):
            parse_mini_function("int f(){")

    def test_error_carries_position(self):
        with pytest.raises(MiniParseError) as err:
            parse_mini_function("int f()\n{ x = ; }")
        assert (err.value.line, err.value.column) == (2, 7)

    @pytest.mark.parametrize("source, message, line, column", [
        ("int f()\n{\n  x = 1 # 2;\n}", "unexpected character '#'", 3, 9),
        ("int f()\n{\n  return " + "(" * 200 + "x" + ")" * 200 + ";\n}",
         f"brackets deeper than {MAX_DEPTH} levels", 3, 209),
        ("int f()\n{\n  x = 1;\n", "unterminated block, expected '}'", 4, 1),
        ("int f()\n{\n  return 1;\n}\n  extra;",
         "trailing input after function body", 5, 3),
    ], ids=["unexpected-character", "brackets-201-deep", "missing-brace",
            "trailing-input"])
    def test_error_line_and_column(self, source, message, line, column):
        with pytest.raises(MiniParseError) as err:
            parse_mini_function(source)
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)

    def test_declaration_call_if_while(self):
        source = """int work(int n, int m){
            int acc = 0;
            while (n) { acc = acc + m; n = n - 1; }
            if (acc) { log(acc); } else { reset(); }
            return acc * (m + 2) / 3;
        }"""
        tree = parse_mini_function(source)
        assert len(find_nodes(tree, "decl")) == 1
        assert len(find_nodes(tree, "while")) == 1
        assert len(find_nodes(tree, "if")) == 1
        assert len(find_nodes(tree, "call")) == 2
        assert len(find_nodes(tree, "param")) == 2

    def test_trailing_garbage(self):
        with pytest.raises(MiniParseError):
            parse_mini_function("int f(){return 1;} extra")


class TestSexpr:
    def test_basic(self):
        tree = import_sexpr("(a (b) (c))")
        assert tree.label == "a"
        assert [c.label for c in tree.children] == ["b", "c"]

    def test_single_leaf(self):
        tree = import_sexpr("(x)")
        assert tree.label == "x" and tree.is_leaf

    def test_unbalanced(self):
        with pytest.raises(MiniParseError):
            import_sexpr("(a (b)")

    def test_empty_list(self):
        with pytest.raises(MiniParseError):
            import_sexpr("()")

    def test_trailing_content(self):
        with pytest.raises(MiniParseError):
            import_sexpr("(a) (b)")

    def test_round_trip_random_trees(self):
        rng = Rng(11)
        for _ in range(60):
            tree = random_tree(rng, 25)
            assert import_sexpr(render_sexpr(tree)) == tree


def chain(terms):
    """A function returning x + x + ...; its tree is terms + 3 levels
    deep (function, body, return, then one level per operator)."""
    return "int f(){return " + " + ".join(["x"] * terms) + ";}"


class TestDepthBound:
    @pytest.mark.parametrize("source", [
        "int f(){" + "if (x) {" * 170 + "}" * 170 + "}",
        "int f(){return " + "(" * 450 + "x" + ")" * 450 + ";}",
        chain(MAX_DEPTH - 2),
    ], ids=["nested-ifs", "nested-parens", "operator-chain"])
    def test_deep_code_rejected(self, source):
        with pytest.raises(MiniParseError, match=f"deeper than {MAX_DEPTH}"):
            parse_mini_function(source)

    def test_deepest_tree_round_trips(self):
        tree = parse_mini_function(chain(MAX_DEPTH - 3))
        assert import_sexpr(render_sexpr(tree)) == tree
        assert len(sbt_flatten(tree)) == 4 * count_nodes(tree)

    def test_deep_sexpr_rejected(self):
        with pytest.raises(MiniParseError, match=f"deeper than {MAX_DEPTH}"):
            import_sexpr("(a " * 3000 + ")" * 3000)


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None,
                             derandomize=True)
MINI_TOKENS = st.lists(st.sampled_from(
    ["int", "x", "f", "1", "(", ")", "{", "}", ";", ",", "=", "+", "*",
     "if", "else", "while", "return"]), max_size=40).map(" ".join)
LABELS = st.sampled_from(["a", "b"])
SEXPRS = st.recursive(LABELS, lambda inner: st.tuples(
    LABELS, st.lists(inner, max_size=3)).map(
        lambda t: "(" + " ".join([t[0], *t[1]]) + ")"))


class TestParserProperties:
    @PROPERTY_SETTINGS
    @given(st.one_of(st.text(max_size=40),
                     st.text(alphabet="() ab", max_size=40), SEXPRS))
    def test_import_sexpr_returns_or_raises_data_error(self, text):
        try:
            tree = import_sexpr(text)
        except DataError:
            return
        sbt_flatten(tree)

    @PROPERTY_SETTINGS
    @given(st.one_of(st.text(max_size=40),
                     MINI_TOKENS.map(lambda body: "int f(){" + body + "}")))
    def test_parsed_trees_render_and_reimport(self, source):
        try:
            tree = parse_mini_function(source)
        except DataError:
            return
        assert import_sexpr(render_sexpr(tree)) == tree


def outcome(parse, text):
    """A parse's tree and SBT stream, or its error's message and place."""
    try:
        tree = parse(text)
    except MiniParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return "tree", tree, sbt_flatten(tree)


REAL_FUNCTIONS = sorted({s["code"] for s in generate_samples(40, seed=2)}) + [
    """int work(int n, int m){
    int acc = 0;
    while (n) { acc = acc + m; n = n - 1; }
    if (acc) { log(acc); } else { reset(); }
    return acc * (m + 2) / 3;
}"""]
# Characters an edit may put in: the grammar's own, whitespace that
# str.isspace counts ("\x0b", "\x1c"), and characters outside the grammar,
# non-ASCII letters and digits ("é", "²", "٣") among them.
EDIT_CHARS = st.sampled_from(list("(){};,=+-*/ \n\t\x0b\x1cx_Z7#.\"é²٣"))
# MINI_TOKENS' words plus the token shapes it lacks: a leading "_",
# digits inside and after names, "-", "/" and line breaks.
MORE_TOKENS = st.lists(st.sampled_from(
    ["int", "_v", "v_2", "f", "12", "3x", "(", ")", "{", "}", ";", ",", "=",
     "+", "-", "*", "/", "if", "else", "while", "return", "\n"]),
    max_size=40).map(" ".join)
ODD_TEXT = st.text(alphabet=st.sampled_from(
    list("(){};,=+*/ \nab_1é²٣\x1c\u2028")) | st.characters(), max_size=60)


@st.composite
def edited(draw, texts):
    """One of texts with one character deleted, inserted or replaced."""
    text = draw(st.sampled_from(texts))
    at = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from(["delete", "insert", "replace"]))
    if kind == "delete":
        return text[:at] + text[at + 1:]
    char = draw(EDIT_CHARS)
    return text[:at] + char + text[at + (kind == "replace"):]


def nested(opener, closer, inner=""):
    """Brackets nested around the MAX_DEPTH bound."""
    return st.integers(MAX_DEPTH - 3, MAX_DEPTH + 3).map(
        lambda n: opener * n + inner + closer * n)


# Operator chains around and past MAX_DEPTH: they deepen the tree without
# nesting brackets, "*" and "/" binding tighter than "+" and "-".
CHAINS = st.lists(st.sampled_from("+-*/"), min_size=MAX_DEPTH - 5,
                  max_size=MAX_DEPTH + 60).map(
    lambda ops: "int f(){return x" + "".join(f" {op} y" for op in ops)
    + ";}")
MINI_SOURCES = st.one_of(
    MINI_TOKENS,
    MINI_TOKENS.map(lambda body: "int f(){" + body + "}"),
    MORE_TOKENS.map(lambda body: "int f(int _a){" + body + "}"),
    edited(REAL_FUNCTIONS),
    ODD_TEXT,
    nested("if (x) {", "}").map(lambda body: "int f(){" + body + "}"),
    nested("{", "}").map(lambda body: "int f()\n{" + body + "}"),
    nested("(", ")", "x").map(lambda e: "int f()\n{return " + e + ";}"),
    nested("(", ")", "x").map(lambda e: "int f(){return é" + e + ";}"),
    CHAINS)
SEXPR_TEXTS = st.one_of(
    SEXPRS,
    edited([render_sexpr(reference.parse_mini_function(code))
            for code in REAL_FUNCTIONS]),
    ODD_TEXT,
    nested("(a ", ")"),
    nested("(a ", ")").map(lambda t: t[:-1]),
    nested("(a\x1c", ")\u2028"),
    nested("(a b", ") c)"))


def text_outcome(produce, text):
    """What produce(text) returns, or its error's message and place."""
    try:
        return "value", produce(text)
    except MiniParseError as exc:
        return "error", str(exc), exc.line, exc.column


class TestFrontEndEquivalence:
    """The fast lexer, parser, s-expression reader, SBT pass and code
    tokenizer against the one-character-at-a-time reference in
    astkit_reference."""

    @PROPERTY_SETTINGS
    @given(MINI_SOURCES)
    def test_parse_mini_function_matches_reference(self, source):
        assert outcome(parse_mini_function, source) == \
            outcome(reference.parse_mini_function, source)

    @PROPERTY_SETTINGS
    @given(MINI_SOURCES)
    def test_mini_function_sexpr_matches_reference(self, source):
        assert text_outcome(mini_function_sexpr, source) == text_outcome(
            lambda s: render_sexpr(reference.parse_mini_function(s)), source)

    @PROPERTY_SETTINGS
    @given(SEXPR_TEXTS)
    def test_import_sexpr_matches_reference(self, text):
        assert outcome(import_sexpr, text) == \
            outcome(reference.import_sexpr, text)

    @PROPERTY_SETTINGS
    @given(st.one_of(SEXPR_TEXTS, CHAINS.map(
        # the reference parser's tree before its depth check
        lambda source: render_sexpr(
            reference._Parser(source).parse_function()))))
    def test_sbt_from_sexpr_matches_reference(self, text):
        assert text_outcome(sbt_from_sexpr, text) == text_outcome(
            lambda t: reference.sbt_flatten(reference.import_sexpr(t)), text)

    @PROPERTY_SETTINGS
    @given(st.one_of(ODD_TEXT, edited(REAL_FUNCTIONS), st.lists(
        st.sampled_from(["get", "Name", "HTTP", "Url", "x2", "9", "_", "-",
                         " ", "é", "²", "٣", "\x1c"]),
        max_size=12).map("".join)))
    def test_tokenize_code_matches_reference(self, raw):
        assert tokenize_code(raw) == reference.tokenize_code(raw)

    @pytest.mark.parametrize("char", sorted(
        set(string.printable + "é²٣\x00\x7f\u2028") - set(string.ascii_letters)
        - set(string.digits) - set("(){};,=+-*/_")))
    def test_every_other_character_matches_reference(self, char):
        # the rest of each source parses, so only the lexer can refuse it
        for source in (f"int f(){{ {char} return 1;}}",
                       f"int f(){{return 1;}}{char}"):
            assert outcome(parse_mini_function, source) == \
                outcome(reference.parse_mini_function, source)

    def test_real_functions_match_reference(self):
        for code in REAL_FUNCTIONS:
            assert outcome(parse_mini_function, code) == \
                outcome(reference.parse_mini_function, code)
            assert outcome(parse_mini_function, code)[0] == "tree"


def accepted_or_none(text):
    """text when sbt_from_sexpr reads it, else None: prepare keeps only
    s-expressions that read."""
    try:
        sbt_from_sexpr(text)
    except MiniParseError:
        return None
    return text


# Trees whose leaves are written as bare atoms, over labels enough to give
# ties in the SBT counts and a vocabulary cut through them.
LEAFY_SEXPRS = st.recursive(
    st.sampled_from(["a", "b", "c", "x1", "if", "é", "<"]),
    lambda inner: st.tuples(st.sampled_from(["f", "a", "if", "+"]),
                            st.lists(inner, max_size=4)).map(
        lambda t: "(" + " ".join([t[0], *t[1]]) + ")"), max_leaves=12)
AST_FIELDS = st.one_of(SEXPR_TEXTS.map(accepted_or_none),
                       LEAFY_SEXPRS.map(accepted_or_none),
                       st.none(), st.just(""))
# ASCII and non-ASCII letters, digits, "_", the grammar's symbols and other
# punctuation and whitespace
CODE_TEXT = st.text(alphabet=st.sampled_from(
    list("abyzABYZ" "éßΩЖǅ" "0189" "٣²" "_" "(){};,=+-*/" "!#.:<>?@[]^`~'\"\\"
         " \t\n\x1c\u2028")), max_size=40)
# Identifiers that differ in case or digits only, so one file repeats
# tokens whose subtokens differ: the memo of a corpus read must tell them
# apart.
CODE_WORDS = st.lists(st.tuples(
    st.sampled_from(["getName", "getname", "GETNAME", "GetNAME", "aB", "ab",
                     "AB", "HTTPServer", "httpServer", "x2y", "X2Y", "_x",
                     "9lives", "a_b", "A_B"]),
    st.sampled_from([" ", "(", ".", "é", "-", "\n"])), max_size=10).map(
        lambda pairs: "".join(word + sep for word, sep in pairs))


class TestPrepareOnePass:
    """prepare's one pass over each sample against the paths it replaced:
    the AST vocabulary from s-expression atoms against counting SBT
    streams, and code tokens from the grammar lexer's tokens against the
    reference tokenizer."""

    @PROPERTY_SETTINGS
    @given(st.lists(AST_FIELDS, max_size=10), st.integers(5, 20))
    def test_ast_vocabulary_matches_sbt_streams(self, asts, size):
        samples = [Sample(id=str(i), project="p", code_tokens=["a"],
                          comment_tokens=["b"], ast_text=ast)
                   for i, ast in enumerate(asts)]
        expected = build_token_vocabulary(
            [sbt_from_sexpr(ast) for ast in asts if ast], size)
        assert build_vocabulary(samples, size, "ast") == expected

    @PROPERTY_SETTINGS
    @given(st.lists(st.one_of(CODE_TEXT, CODE_WORDS, MINI_SOURCES),
                    max_size=8))
    def test_corpus_code_tokens_and_ast_match_reference(self, codes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_text("".join(
                json.dumps({"id": i, "project": "p", "code": code,
                            "comment": "c"}) + "\n"
                for i, code in enumerate(codes)), encoding="utf-8")
            samples = read_corpus_jsonl(path)
        for code, sample in zip(codes, samples, strict=True):
            assert sample.code_tokens == reference.tokenize_code(code)
            assert tokenize_code(code) == sample.code_tokens
            derived = text_outcome(mini_function_sexpr, code)
            assert sample.ast_text == (derived[1] if derived[0] == "value"
                                       else None)


def count_nodes(tree):
    return 1 + sum(count_nodes(c) for c in tree.children)


class TestSbtFlatten:
    def test_leaf(self):
        assert sbt_flatten(AstNode("a")) == ["(", "a", ")", "a"]

    def test_matches_tree_walk(self):
        rng = Rng(6)
        for _ in range(60):
            tree = random_tree(rng, 40)
            assert sbt_flatten(tree) == reference.sbt_flatten(tree)

    @pytest.mark.parametrize("label", ["", "a b", "(", ")", "a(b", "b)",
                                       "x\n", "\x1c", "a\u2028"])
    def test_label_that_text_cannot_hold_refused(self, label):
        # render_sexpr's text of such a node would read back as another
        # tree, so sbt_flatten's pass over it would differ from the tree
        with pytest.raises(MiniParseError, match="node label"):
            AstNode(label)
        with pytest.raises(MiniParseError, match="node label"):
            node("a", node(label))

    def test_two_children(self):
        tree = node("a", node("b"), node("c"))
        assert sbt_flatten(tree) == ["(", "a", "(", "b", ")", "b",
                                     "(", "c", ")", "c", ")", "a"]

    def test_length_is_four_per_node(self):
        rng = Rng(3)
        for _ in range(80):
            tree = random_tree(rng, 50)
            assert len(sbt_flatten(tree)) == 4 * count_nodes(tree)

    def test_parenthesis_balance(self):
        rng = Rng(4)
        for _ in range(40):
            tree = random_tree(rng, 30)
            flat = sbt_flatten(tree)
            n = count_nodes(tree)
            assert flat.count("(") == n and flat.count(")") == n

    def test_every_label_survives(self):
        def labels(tree):
            out = {tree.label}
            for child in tree.children:
                out |= labels(child)
            return out

        rng = Rng(5)
        for _ in range(30):
            tree = random_tree(rng, 25)
            flat = set(sbt_flatten(tree)) - {"(", ")"}
            assert flat == labels(tree)

    def test_injective_on_small_shapes(self):
        # every ordered tree shape with <= 6 same-labelled nodes must
        # flatten to a distinct token sequence
        def shapes(n):
            if n == 1:
                return [AstNode("x")]
            out = []
            for sizes in compositions(n - 1):
                child_options = [shapes(s) for s in sizes]
                for combo in itertools.product(*child_options):
                    out.append(AstNode("x", tuple(combo)))
            return out

        def compositions(total):
            if total == 0:
                return [()]
            result = []
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    result.append((first,) + rest)
            return result

        seen = {}
        for n in range(1, 7):
            for tree in shapes(n):
                key = tuple(sbt_flatten(tree))
                assert key not in seen or seen[key] == tree
                seen[key] = tree


def brute_force_paths(tree, max_len):
    """Independent path enumeration via explicit parent maps and LCA by
    ancestor-set intersection."""
    parents = {}
    leaves = []

    def walk(n, parent):
        parents[id(n)] = (parent, n)
        if n.is_leaf:
            leaves.append(n)
        for c in n.children:
            walk(c, n)

    walk(tree, None)

    def ancestors(n):
        chain = []
        current = parents[id(n)][0]
        while current is not None:
            chain.append(current)
            current = parents[id(current)][0]
        return chain  # leaf's parent first, root last

    out = []
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            up_chain = ancestors(leaves[i])
            down_chain = ancestors(leaves[j])
            down_ids = {id(x): k for k, x in enumerate(down_chain)}
            for up_steps, candidate in enumerate(up_chain):
                if id(candidate) in down_ids:
                    pivot_down = down_ids[id(candidate)]
                    up = tuple(x.label for x in up_chain[:up_steps + 1])
                    down = tuple(x.label
                                 for x in reversed(down_chain[:pivot_down]))
                    path = AstPath(leaves[i].label, up, down, leaves[j].label)
                    if path.length <= max_len:
                        out.append(path)
                    break
    return out


class TestLeafPaths:
    def test_single_pair(self):
        tree = node("a", node("b"), node("c"))
        paths = enumerate_leaf_paths(tree, 8)
        assert paths == [AstPath("b", ("a",), (), "c")]

    def test_single_leaf(self):
        assert enumerate_leaf_paths(AstNode("only"), 8) == []

    def test_full_binary_tree_four_leaves(self):
        tree = node("r", node("l", node("a"), node("b")),
                    node("m", node("c"), node("d")))
        assert len(enumerate_leaf_paths(tree, 8)) == 6

    def test_max_len_filters(self):
        tree = node("r", node("l", node("a"), node("b")),
                    node("m", node("c"), node("d")))
        # sibling pairs have 3 labels, cross pairs 5
        assert len(enumerate_leaf_paths(tree, 3)) == 2

    def test_against_brute_force(self):
        rng = Rng(9)
        for _ in range(60):
            tree = random_tree(rng, 20)
            for max_len in (3, 5, 8, 12):
                assert enumerate_leaf_paths(tree, max_len) == \
                    brute_force_paths(tree, max_len)

    def test_min_length_validation(self):
        with pytest.raises(ConfigurationError):
            enumerate_leaf_paths(AstNode("a"), 2)


class TestSamplePaths:
    def _paths(self, n):
        tree = node("root", *[node(f"leaf{i}") for i in range(n)])
        return enumerate_leaf_paths(tree, 8)

    def test_returns_all_when_k_covers(self):
        paths = self._paths(3)  # 3 paths
        assert sample_paths(paths, k=100, seed=0) == paths

    def test_identity_at_exact_k(self):
        paths = self._paths(5)  # C(5,2) = 10
        assert sample_paths(paths, k=10, seed=0) == paths

    def test_deterministic_subset(self):
        paths = self._paths(8)  # 28 paths
        a = sample_paths(paths, k=9, seed=42)
        b = sample_paths(paths, k=9, seed=42)
        assert a == b and len(a) == 9

    def test_subset_preserves_order(self):
        paths = self._paths(8)
        chosen = sample_paths(paths, k=9, seed=1)
        positions = [paths.index(p) for p in chosen]
        assert positions == sorted(positions)

    def test_k_validation(self):
        with pytest.raises(ConfigurationError):
            sample_paths([], k=0, seed=0)
