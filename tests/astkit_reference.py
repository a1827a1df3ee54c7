"""Reference front end for the equivalence tests: the mini-language lexer
and parser, the s-expression reader, the tree walk that flattens a tree to
its SBT stream and the code tokenizer as they were written before the fast
paths, one _Token per token, one character and one node at a time. The
fast versions in smoothsum must give equal trees, text and tokens, or a
MiniParseError with the same message, line and column."""

import re
from dataclasses import dataclass

from smoothsum.astkit import MAX_DEPTH, AstNode, node
from smoothsum.errors import MiniParseError

_SYMBOLS = set("(){};,=+-*/")
_KEYWORDS = {"if", "else", "while", "return"}
_SUBTOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")


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
    """The reference for astkit.parse_mini_function."""
    tree = _Parser(source).parse_function()
    depth, level = 0, [tree]
    while level:  # operator chains deepen the tree without nesting
        depth, level = depth + 1, [c for n in level for c in n.children]
    if depth > MAX_DEPTH:
        raise MiniParseError(f"tree deeper than {MAX_DEPTH} levels")
    return tree


def import_sexpr(text: str) -> AstNode:
    """The reference for astkit.import_sexpr."""
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


def sbt_flatten(root: AstNode) -> list:
    """The reference for astkit.sbt_flatten and astkit.sbt_from_sexpr:
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


def tokenize_code(raw: str) -> list:
    """The reference for corpus.tokenize_code."""
    tokens = []
    for piece in re.split(r"[^A-Za-z0-9]+", raw):
        for sub in _SUBTOKEN_RE.findall(piece):
            tokens.append(sub.lower())
    return tokens
