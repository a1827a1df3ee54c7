"""Miniature function-language parser, structure-based AST flattening and
leaf-to-leaf path extraction.

The grammar covers a single function: header, declarations, assignments,
calls, if/while blocks and return, with +, -, *, / expressions over
identifiers and integer literals.
"""

from dataclasses import dataclass, field

from .errors import ConfigurationError, MiniParseError
from .rng import Rng


@dataclass(frozen=True)
class AstNode:
    label: str
    children: tuple = ()

    def __post_init__(self):
        if not self.label:
            raise MiniParseError("empty node label")
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

    def reverse(self) -> "AstPath":
        pivot = self.up_labels[-1]
        return AstPath(
            start_leaf=self.end_leaf,
            up_labels=tuple(reversed(self.down_labels)) + (pivot,),
            down_labels=tuple(reversed(self.up_labels[:-1])),
            end_leaf=self.start_leaf,
        )


# ---------------------------------------------------------------------------
# mini-language parser

_SYMBOLS = set("(){};,=+-*/")
_KEYWORDS = {"if", "else", "while", "return"}

# Deepest tree or bracket nesting the parsers accept; deeper input is a
# MiniParseError, so recursive parses and tree walks stay in Python's limit.
MAX_DEPTH = 200


@dataclass
class _Token:
    kind: str  # ident | int | symbol | eof
    text: str
    line: int
    col: int


def _lex(source: str):
    tokens = []
    line, col = 1, 1
    i = depth = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            depth += (ch in "({") - (ch in ")}")
            if depth > MAX_DEPTH:
                raise MiniParseError(f"brackets deeper than {MAX_DEPTH} levels",
                                     line, col)
            tokens.append(_Token("symbol", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(_Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        raise MiniParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _lex(source)
        self.pos = 0

    def peek(self, offset=0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise MiniParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.fail(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_ident(self) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            self.fail(f"expected identifier, found {tok.text or 'end of input'!r}")
        return self.advance()

    def parse_function(self) -> AstNode:
        ftype = self.expect_ident()
        fname = self.expect_ident()
        self.expect("(")
        params = []
        if self.peek().text != ")":
            while True:
                ptype = self.expect_ident()
                pname = self.expect_ident()
                params.append(node("param", node(ptype.text), node(pname.text)))
                if self.peek().text != ",":
                    break
                self.expect(",")
        self.expect(")")
        body = self.parse_block("body")
        if self.peek().kind != "eof":
            self.fail("trailing input after function body")
        return node(
            "function",
            node("type", node(ftype.text)),
            node("name", node(fname.text)),
            node("params", *params),
            body,
        )

    def parse_block(self, label: str) -> AstNode:
        self.expect("{")
        stmts = []
        while self.peek().text != "}":
            if self.peek().kind == "eof":
                self.fail("unterminated block, expected '}'")
            stmts.append(self.parse_statement())
        self.expect("}")
        return node(label, *stmts)

    def parse_statement(self) -> AstNode:
        tok = self.peek()
        if tok.text == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block("then")
            if self.peek().text == "else":
                self.advance()
                return node("if", cond, then, self.parse_block("else"))
            return node("if", cond, then)
        if tok.text == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return node("while", cond, self.parse_block("body"))
        if tok.text == "return":
            self.advance()
            if self.peek().text == ";":
                self.advance()
                return node("return")
            expr = self.parse_expr()
            self.expect(";")
            return node("return", expr)
        if tok.kind != "ident":
            self.fail(f"expected a statement, found {tok.text or 'end of input'!r}")
        nxt = self.peek(1)
        if nxt.text == "(":
            name = self.expect_ident()
            self.expect("(")
            args = []
            if self.peek().text != ")":
                while True:
                    args.append(self.parse_expr())
                    if self.peek().text != ",":
                        break
                    self.expect(",")
            self.expect(")")
            self.expect(";")
            return node("call", node(name.text), *args)
        if nxt.text == "=":
            name = self.expect_ident()
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            return node("assign", node(name.text), expr)
        if nxt.kind == "ident":
            dtype = self.expect_ident()
            name = self.expect_ident()
            if self.peek().text == "=":
                self.expect("=")
                expr = self.parse_expr()
                self.expect(";")
                return node("decl", node(dtype.text), node(name.text), expr)
            self.expect(";")
            return node("decl", node(dtype.text), node(name.text))
        self.fail(f"cannot parse statement starting at {tok.text!r}")

    def parse_expr(self) -> AstNode:
        left = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            left = node(op, left, self.parse_term())
        return left

    def parse_term(self) -> AstNode:
        left = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            left = node(op, left, self.parse_factor())
        return left

    def parse_factor(self) -> AstNode:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "int":
            self.advance()
            return node(tok.text)
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            self.advance()
            return node(tok.text)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse_mini_function(source: str) -> AstNode:
    tree = _Parser(source).parse_function()
    depth, level = 0, [tree]
    while level:  # operator chains deepen the tree without nesting
        depth, level = depth + 1, [c for n in level for c in n.children]
    if depth > MAX_DEPTH:
        raise MiniParseError(f"tree deeper than {MAX_DEPTH} levels")
    return tree


# ---------------------------------------------------------------------------
# s-expressions


def import_sexpr(text: str) -> AstNode:
    """Parse "(label child child ...)"; children may be nested lists or
    bare atoms (read as leaves)."""
    tokens = []
    i = depth = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            depth += 1 if ch == "(" else -1
            if depth > MAX_DEPTH:
                raise MiniParseError(f"list deeper than {MAX_DEPTH} levels")
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j

    pos = 0

    def parse_list() -> AstNode:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != "(":
            raise MiniParseError("expected '(' in s-expression")
        pos += 1
        if pos >= len(tokens) or tokens[pos] in "()":
            raise MiniParseError("empty or malformed s-expression list")
        label = tokens[pos]
        pos += 1
        children = []
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "(":
                children.append(parse_list())
            else:
                children.append(AstNode(tokens[pos]))
                pos += 1
        if pos >= len(tokens):
            raise MiniParseError("unbalanced parentheses in s-expression")
        pos += 1
        return AstNode(label, tuple(children))

    root = parse_list()
    if pos != len(tokens):
        raise MiniParseError("trailing content after s-expression")
    return root


def render_sexpr(tree: AstNode) -> str:
    if tree.is_leaf:
        return f"({tree.label})"
    inner = " ".join(render_sexpr(c) for c in tree.children)
    return f"({tree.label} {inner})"


# ---------------------------------------------------------------------------
# flattening and paths


def sbt_flatten(root: AstNode) -> list:
    """Parenthesized pre-order traversal with the closing label repeated:
    every node contributes "(", label, ")", label."""
    out = []

    def visit(n: AstNode):
        out.append("(")
        out.append(n.label)
        for child in n.children:
            visit(child)
        out.append(")")
        out.append(n.label)

    visit(root)
    return out


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
