"""Miniature function-language parser, structure-based AST flattening and
leaf-to-leaf path extraction.

The grammar covers a single function: header, declarations, assignments,
calls, if/while blocks and return, with +, -, *, / expressions over
identifiers and integer literals.

The lexer yields plain token strings. A token's kind comes from its first
character: a digit starts an integer, a letter or "_" an identifier (or
keyword), anything else is a one-character symbol, and "" marks the end of
input. Tokens carry no position; the line and column of a MiniParseError
are computed from a character offset only when the error is raised.

S-expression text is the one form that commands pass around. The parser
writes it as it parses (mini_function_sexpr), and the structure-based
traversal (SBT) reads it in one pass (sbt_from_sexpr), the one reader and
checker of that text. AstNode trees are built only where a caller keeps
one: leaf-to-leaf paths and the tests, through import_sexpr (which folds
the SBT into a tree) and parse_mini_function.
"""

import re
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigurationError, MiniParseError
from .rng import Rng


# An s-expression is "(", ")" and atoms; an atom is also a node label.
_ATOM_RE = re.compile(r"[^\s()]+")
_SEXPR_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


@dataclass(frozen=True, slots=True)
class AstNode:
    label: str
    children: tuple = ()

    def __post_init__(self):
        if not _ATOM_RE.fullmatch(self.label):
            # render_sexpr's text would not read back as this tree
            raise MiniParseError(f"node label {self.label!r} is empty or "
                                 "holds whitespace or a bracket")
        if type(self.children) is not tuple:
            object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children


def node(label, *children) -> AstNode:
    return AstNode(label, tuple(children))


@dataclass(frozen=True)
class AstPath:
    """Leaf-to-leaf path through the lowest common ancestor.

    up_labels runs from the start leaf's parent up to and including the
    pivot (the LCA); down_labels runs from below the pivot down to the end
    leaf's parent, exclusive on both ends.
    """

    start_leaf: str
    up_labels: tuple
    down_labels: tuple
    end_leaf: str

    @property
    def length(self) -> int:
        return 2 + len(self.up_labels) + len(self.down_labels)


# ---------------------------------------------------------------------------
# mini-language parser

_SYMBOLS = set("(){};,=+-*/")
_KEYWORDS = {"if", "else", "while", "return"}

# Deepest tree or bracket nesting the parsers accept; deeper input is a
# MiniParseError, so recursive parses and tree walks stay in Python's limit.
MAX_DEPTH = 200

# On ASCII text the grammar's tokens are digit runs, identifiers and single
# symbols, and every other character the grammar allows is whitespace
# (in a str pattern \s is str.isspace and, on ASCII, \w is alnum or "_").
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[(){};,=+\-*/]")
_OTHER_RE = re.compile(r"[^\w\s(){};,=+\-*/]")


def _position(source: str, offset: int) -> tuple:
    """(line, column) of a character offset, both counted from 1."""
    return (source.count("\n", 0, offset) + 1,
            offset - source.rfind("\n", 0, offset))


def _scan(source: str) -> list:
    """(text, offset) of every token, one character at a time. Raises on a
    character outside the grammar or brackets deeper than MAX_DEPTH."""
    pairs = []
    i = depth = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            depth += (ch in "({") - (ch in ")}")
            if depth > MAX_DEPTH:
                raise MiniParseError(f"brackets deeper than {MAX_DEPTH} levels",
                                     *_position(source, i))
            pairs.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            pairs.append((source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            pairs.append((source[i:j], i))
            i = j
            continue
        raise MiniParseError(f"unexpected character {ch!r}",
                             *_position(source, i))
    return pairs


def grammar_tokens(text: str) -> list:
    """The digit runs, ASCII identifiers and grammar symbols of any text,
    in order, skipping every other character. On text the parser accepts
    these are its tokens."""
    return _TOKEN_RE.findall(text)


def _lex(source: str, found: list) -> list:
    """Token strings, then two "" end-of-input sentinels; found is
    grammar_tokens(source). Text that is ASCII, holds only grammar
    characters and has at most MAX_DEPTH opening brackets in all can
    neither fail to lex nor nest too deep, so found holds its tokens; other
    text goes through _scan."""
    if (source.isascii() and not _OTHER_RE.search(source)
            and source.count("(") + source.count("{") <= MAX_DEPTH):
        return [*found, "", ""]
    return [text for text, _ in _scan(source)] + ["", ""]


def _is_ident(tok: str) -> bool:
    """An identifier or keyword: a token that starts with a letter or "_"."""
    return tok[:1].isalpha() or tok[:1] == "_"


class _Parser:
    """Recursive descent over _lex's token strings that writes the tree's
    s-expression as it parses: each parse_* method appends its node's text
    to self.out, a leaf as " (x)". A token's kind is read from its first
    character ("" is end of input), and a token's position is worked out
    only when a parse fails."""

    def __init__(self, source: str, found: list):
        self.source = source
        self.tokens = _lex(source, found)
        self.pos = 0
        self.out = []

    def peek(self) -> str:
        return self.tokens[self.pos]

    def fail(self, message: str):
        pairs = _scan(self.source)
        offset = (pairs[self.pos][1] if self.pos < len(pairs)
                  else len(self.source))
        raise MiniParseError(message, *_position(self.source, offset))

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            self.fail(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if not _is_ident(tok) or tok in _KEYWORDS:
            self.fail(f"expected identifier, found {tok or 'end of input'!r}")
        self.pos += 1
        return tok

    def parse_function(self) -> None:
        ftype = self.expect_ident()
        fname = self.expect_ident()
        self.expect("(")
        out = self.out
        out.append(f"(function (type ({ftype})) (name ({fname})) (params")
        if self.peek() != ")":
            while True:
                ptype = self.expect_ident()
                pname = self.expect_ident()
                out.append(f" (param ({ptype}) ({pname}))")
                if self.peek() != ",":
                    break
                self.pos += 1
        self.expect(")")
        out.append(")")
        self.parse_block("body")
        if self.peek():
            self.fail("trailing input after function body")
        out.append(")")

    def parse_block(self, label: str) -> None:
        self.expect("{")
        self.out.append(" (" + label)
        tokens = self.tokens
        while tokens[self.pos] != "}":
            if not tokens[self.pos]:
                self.fail("unterminated block, expected '}'")
            self.parse_statement()
        self.pos += 1
        self.out.append(")")

    def parse_statement(self) -> None:
        tok = self.tokens[self.pos]
        out = self.out
        if tok in ("if", "while"):
            self.pos += 1
            self.expect("(")
            out.append(" (" + tok)
            self.parse_expr()
            self.expect(")")
            self.parse_block("then" if tok == "if" else "body")
            if tok == "if" and self.peek() == "else":
                self.pos += 1
                self.parse_block("else")
        elif tok == "return":
            self.pos += 1
            out.append(" (return")
            if self.peek() != ";":
                self.parse_expr()
            self.expect(";")
        else:
            if not _is_ident(tok):
                self.fail(
                    f"expected a statement, found {tok or 'end of input'!r}")
            nxt = self.tokens[self.pos + 1]
            if nxt not in ("(", "=") and not _is_ident(nxt):
                self.fail(f"cannot parse statement starting at {tok!r}")
            first = self.expect_ident()
            if nxt == "(":
                self.pos += 1
                out.append(f" (call ({first})")
                if self.peek() != ")":
                    while True:
                        self.parse_expr()
                        if self.peek() != ",":
                            break
                        self.pos += 1
                self.expect(")")
            elif nxt == "=":
                self.pos += 1
                out.append(f" (assign ({first})")
                self.parse_expr()
            else:
                name = self.expect_ident()
                out.append(f" (decl ({first}) ({name})")
                if self.peek() == "=":
                    self.pos += 1
                    self.parse_expr()
            self.expect(";")
        out.append(")")

    # The binary operators are left-associative: on each operator the
    # piece where the left operand began gets the operator's " (op" in
    # front, and a ")" follows the right operand.

    def parse_expr(self) -> None:
        out, tokens = self.out, self.tokens
        start = len(out)
        self.parse_term()
        while tokens[self.pos] in ("+", "-"):
            out[start] = " (" + tokens[self.pos] + out[start]
            self.pos += 1
            self.parse_term()
            out.append(")")

    def parse_term(self) -> None:
        out, tokens = self.out, self.tokens
        start = len(out)
        self.parse_factor()
        while tokens[self.pos] in ("*", "/"):
            out[start] = " (" + tokens[self.pos] + out[start]
            self.pos += 1
            self.parse_factor()
            out.append(")")

    def parse_factor(self) -> None:
        tok = self.tokens[self.pos]
        if tok == "(":
            self.pos += 1
            self.parse_expr()
            self.expect(")")
            return
        # every token but "" and the symbols is an integer or an identifier
        if tok and tok not in _SYMBOLS and tok not in _KEYWORDS:
            self.pos += 1
            self.out.append(" (" + tok + ")")
            return
        self.fail(f"expected an expression, found {tok or 'end of input'!r}")


def _nests_too_deep(text: str) -> bool:
    """Whether the brackets of an s-expression nest deeper than MAX_DEPTH;
    text with at most MAX_DEPTH "(" in all needs no scan."""
    if text.count("(") <= MAX_DEPTH:
        return False
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
            if depth > MAX_DEPTH:
                return True
        elif ch == ")":
            depth -= 1
    return False


def mini_function_sexpr(source: str) -> str:
    """The s-expression of a mini-language function's tree, as
    render_sexpr would write it. Syntax errors are raised first; a tree
    deeper than MAX_DEPTH (operator chains deepen it without nesting
    brackets) is refused after the parse."""
    return _function_sexpr(source, grammar_tokens(source))


def _function_sexpr(source: str, found: list) -> str:
    """mini_function_sexpr(source) for a caller that has already taken
    found = grammar_tokens(source), which the parser then reuses."""
    parser = _Parser(source, found)
    parser.parse_function()
    text = "".join(parser.out)
    if _nests_too_deep(text):
        raise MiniParseError(f"tree deeper than {MAX_DEPTH} levels")
    return text


def parse_mini_function(source: str) -> AstNode:
    return import_sexpr(mini_function_sexpr(source))


# ---------------------------------------------------------------------------
# s-expressions


def import_sexpr(text: str) -> AstNode:
    """Parse "(label child child ...)"; children may be nested lists or
    bare atoms (read as leaves). The tree is folded from the text's SBT,
    so the errors are sbt_from_sexpr's."""
    stack = [[]]  # the children read so far of each open list
    tokens = iter(sbt_from_sexpr(text))
    for bracket, label in zip(tokens, tokens):
        if bracket == "(":
            stack.append([])
        else:
            children = tuple(stack.pop())
            stack[-1].append(AstNode(label, children))
    return stack[0][0]


def render_sexpr(tree: AstNode) -> str:
    parts = []

    def visit(n: AstNode, opener: str):
        parts.append(opener + n.label)
        for child in n.children:
            visit(child, " (")
        parts.append(")")

    visit(tree, "(")
    return "".join(parts)


# ---------------------------------------------------------------------------
# flattening and paths


def sbt_from_sexpr(text: str) -> list:
    """The structure-based traversal of an s-expression's tree, read from
    the text in one pass: every node contributes "(", label, ")", label.
    Nesting deeper than MAX_DEPTH is refused before any other error."""
    if _nests_too_deep(text):
        raise MiniParseError(f"list deeper than {MAX_DEPTH} levels")
    tokens = _SEXPR_TOKEN_RE.findall(text)
    if not tokens or tokens[0] != "(":
        raise MiniParseError("expected '(' in s-expression")
    out, labels = [], []
    end = len(tokens)
    i = 0
    while True:
        tok = tokens[i]
        if tok == "(":
            i += 1
            if i == end or tokens[i] in "()":
                raise MiniParseError("empty or malformed s-expression list")
            label = tokens[i]
            out += ("(", label)
            labels.append(label)
        elif tok == ")":
            out += (")", labels.pop())
            if not labels:
                break
        else:
            out += ("(", tok, ")", tok)
        i += 1
        if i == end:
            raise MiniParseError("unbalanced parentheses in s-expression")
    if i + 1 != end:
        raise MiniParseError("trailing content after s-expression")
    return out


def sbt_counts(texts) -> Counter:
    """How often each token occurs in the SBT streams of s-expression
    texts, read from their atoms alone. Every atom is one node, and the SBT
    writes each node as "(", label, ")", label: each label counts twice per
    node, and "(" and ")" once per node. The texts are not checked, so each
    must be one that sbt_from_sexpr accepts."""
    atoms = Counter()
    for text in texts:
        atoms.update(_ATOM_RE.findall(text))
    counts = Counter({label: 2 * n for label, n in atoms.items()})
    nodes = atoms.total()
    if nodes:
        counts["("] = counts[")"] = nodes
    return counts


def sbt_flatten(root: AstNode) -> list:
    """Parenthesized pre-order traversal with the closing label repeated:
    every node contributes "(", label, ")", label. Read from the tree's
    text, which holds it exactly since no label holds a space or bracket."""
    return sbt_from_sexpr(render_sexpr(root))


def _collect_leaves(root: AstNode):
    """Leaves in left-to-right order, each with its ancestor node chain."""
    leaves = []

    def visit(n: AstNode, ancestors):
        if n.is_leaf:
            leaves.append((n, list(ancestors)))
            return
        ancestors.append(n)
        for child in n.children:
            visit(child, ancestors)
        ancestors.pop()

    visit(root, [])
    return leaves


def enumerate_leaf_paths(root: AstNode, max_len: int = 8) -> list:
    """All ordered leaf pairs (i < j, left-to-right) whose connecting path
    has at most max_len labels, counting both leaves and the pivot."""
    if max_len < 3:
        raise ConfigurationError(f"max_len {max_len} must be >= 3")
    leaves = _collect_leaves(root)
    paths = []
    for i in range(len(leaves)):
        leaf_i, chain_i = leaves[i]
        for j in range(i + 1, len(leaves)):
            leaf_j, chain_j = leaves[j]
            common = 0
            while (common < len(chain_i) and common < len(chain_j)
                   and chain_i[common] is chain_j[common]):
                common += 1
            up = tuple(n.label for n in reversed(chain_i[common - 1:]))
            down = tuple(n.label for n in chain_j[common:])
            path = AstPath(leaf_i.label, up, down, leaf_j.label)
            if path.length <= max_len:
                paths.append(path)
    return paths


def sample_paths(paths, k: int = 100, seed: int = 0) -> list:
    """Uniform subset without replacement, re-sorted to the deterministic
    enumeration order; identity when k covers everything."""
    if k < 1:
        raise ConfigurationError(f"sample size {k} must be >= 1")
    paths = list(paths)
    if len(paths) <= k:
        return paths
    picked = Rng(seed).derive("path-sample").choose_indices(len(paths), k)
    return [paths[i] for i in picked]
