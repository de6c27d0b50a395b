"""IEC 61131-3 Structured Text frontend (subset).

Parses a pragmatic subset of Structured Text -- the loop-heavy
scan-cycle shape PLC verification cares about -- and lowers it to the
core imperative AST so desugar/validate/pre-analysis/inference run
unchanged:

* ``FUNCTION name : TYPE ... END_FUNCTION`` -> a value-returning method.
  The function name doubles as the return variable (declared and
  zero-initialised at entry, returned at exit), exactly the IEC
  convention: ``name := expr;`` sets the result, ``RETURN;`` exits.
* ``FUNCTION_BLOCK name ... END_FUNCTION_BLOCK`` -> a ``void`` method
  modelling ONE scan cycle.  ``VAR_INPUT`` become by-value parameters,
  ``VAR_IN_OUT`` become ``ref`` parameters, and ``VAR``/``VAR_OUTPUT``
  state is declared then *havoc'd*: persistent state is arbitrary at
  cycle entry, so a termination verdict covers every reachable cycle.
* ``IF/ELSIF/ELSE`` -> nested ``If``; ``WHILE .. DO`` -> ``While``;
  ``REPEAT body UNTIL c END_REPEAT`` -> ``body; while (!c) body``;
  ``FOR i := a TO b BY s DO`` -> bound materialised into a fresh
  ``__st_forN`` local, then a ``While`` counting toward it (``BY`` must
  be a non-zero integer constant; its sign picks ``<=`` vs ``>=``).
* Integer types (``INT``/``DINT``/``SINT``/``LINT`` and the unsigned
  variants) map to the core unbounded ``int`` -- no wrap-around is
  modelled -- and ``BOOL`` maps to ``bool``.
* ``=``/``<>`` -> ``==``/``!=``; ``AND``/``OR``/``NOT`` -> ``&&``/
  ``||``/``!``.  Calls take positional or named (``f(x := 1)``)
  arguments; named calls are resolved against the callee's declared
  input order, which a signature pre-pass collects so definition order
  in the file does not matter.

Keywords are case-insensitive (``while`` == ``WHILE``); identifiers are
case-sensitive (a deliberate deviation, documented in
``docs/frontends.md``).  Comments are ``(* ... *)`` and ``//``.
All errors raise :class:`LexError`/:class:`ParseError` with ST source
positions, and lowered AST nodes keep those positions so downstream
diagnostics point back into the ST text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lang import ast
from repro.lang.ast import (
    Assign,
    Binary,
    BoolLit,
    CallExpr,
    CallStmt,
    Expr,
    Havoc,
    If,
    IntLit,
    Method,
    Param,
    Program,
    Return,
    Skip,
    Stmt,
    Type,
    Unary,
    Var,
    VarDecl,
    While,
    seq,
)
from repro.lang.errors import SourceError
from repro.lang.lexer import LexError, Token
from repro.lang.parser import ParseError

ST_KEYWORDS = frozenset({
    "FUNCTION", "END_FUNCTION",
    "FUNCTION_BLOCK", "END_FUNCTION_BLOCK",
    "VAR", "VAR_INPUT", "VAR_OUTPUT", "VAR_IN_OUT", "END_VAR",
    "IF", "THEN", "ELSIF", "ELSE", "END_IF",
    "WHILE", "DO", "END_WHILE",
    "FOR", "TO", "BY", "END_FOR",
    "REPEAT", "UNTIL", "END_REPEAT",
    "RETURN", "AND", "OR", "NOT", "TRUE", "FALSE",
    # reserved so their use yields a targeted "not in this subset" error
    # instead of a confusing identifier-level one
    "CASE", "OF", "END_CASE", "EXIT", "CONTINUE", "MOD", "XOR",
})

_UNSUPPORTED_STMT = {
    "CASE": "CASE .. OF is not in the ST subset (rewrite as IF/ELSIF)",
    "EXIT": "EXIT is not in the ST subset (loops must run to their guard)",
    "CONTINUE": "CONTINUE is not in the ST subset",
}

ST_SYMBOLS = [
    ":=", "<=", ">=", "<>",
    "<", ">", "=", "+", "-", "*",
    "(", ")", ";", ":", ",",
]

_TYPE_MAP: Dict[str, Type] = {
    "INT": ast.INT, "DINT": ast.INT, "SINT": ast.INT, "LINT": ast.INT,
    "UINT": ast.INT, "UDINT": ast.INT, "USINT": ast.INT, "ULINT": ast.INT,
    "BOOL": ast.BOOL,
}


def tokenize_st(source: str) -> List[Token]:
    """Tokenize ST source: ``(* *)`` / ``//`` comments, case-insensitive
    keywords (normalised to upper case), underscore-grouped integers."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("(*", i):
            end = source.find("*)", i + 2)
            if end < 0:
                raise LexError("unterminated comment", pos=(line, col))
            for c in source[i:end + 2]:
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = end + 2
            continue
        if ch.isdigit():
            start = i
            while i < n and (source[i].isdigit() or source[i] == "_"):
                i += 1
            text = source[start:i]
            tokens.append(Token("int", text.replace("_", ""), line, col))
            col += len(text)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            upper = text.upper()
            if upper in ST_KEYWORDS:
                tokens.append(Token("kw", upper, line, col))
            else:
                tokens.append(Token("ident", text, line, col))
            col += len(text)
            continue
        for sym in ST_SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", pos=(line, col))
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class _Signature:
    """What a call site needs to know about a POU, collected in a
    pre-pass so named arguments resolve regardless of definition order."""

    name: str
    kind: str                    # 'function' | 'function_block'
    inputs: Tuple[str, ...]      # VAR_INPUT + VAR_IN_OUT names, declared order


@dataclass(frozen=True)
class _VarSection:
    kind: str                                     # VAR | VAR_INPUT | ...
    decls: Tuple[Tuple[str, Type, Optional[Expr], Tuple[int, int]], ...]


class _STParser:
    def __init__(self, tokens: List[Token], sigs: Dict[str, _Signature]):
        self.tokens = tokens
        self.pos = 0
        self.sigs = sigs
        self._fresh = 0          # per-POU counter for FOR bound locals
        self._return_var: Optional[str] = None   # set per FUNCTION

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check_kw(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == text

    def accept_kw(self, text: str) -> bool:
        if self.check_kw(text):
            self.advance()
            return True
        return False

    def expect_kw(self, text: str) -> Token:
        tok = self.peek()
        if not self.check_kw(text):
            found = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(
                f"expected {text!r} but found {found!r}",
                pos=(tok.line, tok.col),
            )
        return self.advance()

    def check_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def accept_sym(self, text: str) -> bool:
        if self.check_sym(text):
            self.advance()
            return True
        return False

    def expect_sym(self, text: str) -> Token:
        tok = self.peek()
        if not self.check_sym(text):
            found = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(
                f"expected {text!r} but found {found!r}",
                pos=(tok.line, tok.col),
            )
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            found = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(
                f"expected identifier but found {found!r}",
                pos=(tok.line, tok.col),
            )
        return self.advance()

    # -- types and VAR sections --------------------------------------------

    def parse_type(self) -> Type:
        tok = self.expect_ident()
        mapped = _TYPE_MAP.get(tok.text.upper())
        if mapped is None:
            raise ParseError(
                f"unknown type {tok.text!r} (supported: "
                f"{', '.join(sorted(_TYPE_MAP))})",
                pos=(tok.line, tok.col),
            )
        return mapped

    def parse_var_sections(self) -> List[_VarSection]:
        sections: List[_VarSection] = []
        while True:
            tok = self.peek()
            if tok.kind != "kw" or tok.text not in (
                "VAR", "VAR_INPUT", "VAR_OUTPUT", "VAR_IN_OUT"
            ):
                return sections
            kind = self.advance().text
            decls: List[Tuple[str, Type, Optional[Expr], Tuple[int, int]]] = []
            while not self.check_kw("END_VAR"):
                names = [self.expect_ident()]
                while self.accept_sym(","):
                    names.append(self.expect_ident())
                self.expect_sym(":")
                vtype = self.parse_type()
                init: Optional[Expr] = None
                if self.accept_sym(":="):
                    init = self.parse_expr()
                self.expect_sym(";")
                for name_tok in names:
                    decls.append(
                        (name_tok.text, vtype, init,
                         (name_tok.line, name_tok.col))
                    )
            self.expect_kw("END_VAR")
            sections.append(_VarSection(kind, tuple(decls)))

    # -- program-object-units ----------------------------------------------

    def parse_module(self) -> Program:
        methods: Dict[str, Method] = {}
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.check_kw("FUNCTION"):
                m = self.parse_function()
            elif self.check_kw("FUNCTION_BLOCK"):
                m = self.parse_function_block()
            else:
                found = tok.text if tok.kind != "eof" else "end of input"
                raise ParseError(
                    f"expected FUNCTION or FUNCTION_BLOCK but found {found!r}",
                    pos=(tok.line, tok.col),
                )
            methods[m.name] = m
        return Program(data_decls={}, methods=methods)

    def _split_sections(
        self, sections: List[_VarSection], name_tok: Token
    ) -> Tuple[List[Param], List[Tuple[str, Type, Optional[Expr], Tuple[int, int]]]]:
        """Split VAR sections into (params, locals), preserving declared
        order inside each group and rejecting duplicate names."""
        params: List[Param] = []
        local_decls: List[Tuple[str, Type, Optional[Expr], Tuple[int, int]]] = []
        seen: Dict[str, Tuple[int, int]] = {name_tok.text: (name_tok.line, name_tok.col)}
        for section in sections:
            for name, vtype, init, pos in section.decls:
                if name in seen:
                    raise ParseError(
                        f"duplicate variable {name!r}", pos=pos
                    )
                seen[name] = pos
                if section.kind in ("VAR_INPUT", "VAR_IN_OUT"):
                    if init is not None:
                        raise ParseError(
                            f"{section.kind} variable {name!r} cannot "
                            "have an initialiser",
                            pos=pos,
                        )
                    params.append(
                        Param(vtype, name, by_ref=section.kind == "VAR_IN_OUT")
                    )
                else:
                    local_decls.append((name, vtype, init, pos))
        return params, local_decls

    @staticmethod
    def _default_init(vtype: Type) -> Expr:
        return BoolLit(False) if vtype == ast.BOOL else IntLit(0)

    def parse_function(self) -> Method:
        start = self.expect_kw("FUNCTION")
        name_tok = self.expect_ident()
        self.expect_sym(":")
        ret_type = self.parse_type()
        sections = self.parse_var_sections()
        params, local_decls = self._split_sections(sections, name_tok)

        self._fresh = 0
        self._return_var = name_tok.text
        stmts: List[Stmt] = [
            VarDecl(ret_type, name_tok.text, self._default_init(ret_type),
                    pos=(name_tok.line, name_tok.col))
        ]
        for name, vtype, init, pos in local_decls:
            stmts.append(
                VarDecl(vtype, name,
                        init if init is not None else self._default_init(vtype),
                        pos=pos)
            )
        body = self.parse_stmts(frozenset({"END_FUNCTION"}))
        end = self.expect_kw("END_FUNCTION")
        stmts.extend(body)
        # implicit "return the result variable" unless the source already
        # ends on a RETURN (appending one there would be flagged as
        # unreachable by the validator)
        if not body or not isinstance(body[-1], Return):
            stmts.append(Return(Var(name_tok.text), pos=(end.line, end.col)))
        return Method(
            ret_type=ret_type,
            name=name_tok.text,
            params=params,
            body=seq(*stmts),
            pos=(start.line, start.col),
        )

    def parse_function_block(self) -> Method:
        start = self.expect_kw("FUNCTION_BLOCK")
        name_tok = self.expect_ident()
        sections = self.parse_var_sections()
        params, local_decls = self._split_sections(sections, name_tok)

        self._fresh = 0
        self._return_var = None
        stmts: List[Stmt] = []
        for name, vtype, init, pos in local_decls:
            stmts.append(VarDecl(vtype, name, init, pos=pos))
        if local_decls:
            # persistent state is arbitrary at scan-cycle entry: a verdict
            # on this method covers every reachable cycle, not just the
            # first one after power-up
            stmts.append(
                Havoc(tuple(name for name, _, _, _ in local_decls),
                      pos=(start.line, start.col))
            )
        stmts.extend(self.parse_stmts(frozenset({"END_FUNCTION_BLOCK"})))
        self.expect_kw("END_FUNCTION_BLOCK")
        return Method(
            ret_type=ast.VOID,
            name=name_tok.text,
            params=params,
            body=seq(*stmts),
            pos=(start.line, start.col),
        )

    # -- statements ---------------------------------------------------------

    def parse_stmts(self, stop: frozenset) -> List[Stmt]:
        out: List[Stmt] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof" or (tok.kind == "kw" and tok.text in stop):
                return out
            s = self.parse_stmt()
            if s is not None:
                out.append(s)

    def parse_stmt(self) -> Optional[Stmt]:
        tok = self.peek()
        pos = (tok.line, tok.col)
        if self.accept_sym(";"):          # stray empty statement
            return None
        if tok.kind == "kw" and tok.text in _UNSUPPORTED_STMT:
            raise ParseError(_UNSUPPORTED_STMT[tok.text], pos=pos)
        if self.accept_kw("IF"):
            return self.parse_if(pos)
        if self.accept_kw("WHILE"):
            cond = self.parse_expr()
            self.expect_kw("DO")
            body = self.parse_stmts(frozenset({"END_WHILE"}))
            self.expect_kw("END_WHILE")
            self.accept_sym(";")
            return While(cond, seq(*body), pos=pos)
        if self.accept_kw("FOR"):
            return self.parse_for(pos)
        if self.accept_kw("REPEAT"):
            body = self.parse_stmts(frozenset({"UNTIL"}))
            self.expect_kw("UNTIL")
            until = self.parse_expr()
            self.expect_kw("END_REPEAT")
            self.accept_sym(";")
            # do-while: run once, then keep running while the exit
            # condition is still false
            loop = While(Unary("!", until), seq(*body), pos=pos)
            return seq(seq(*body), loop)
        if self.accept_kw("RETURN"):
            self.expect_sym(";")
            if self._return_var is not None:
                return Return(Var(self._return_var), pos=pos)
            return Return(None, pos=pos)
        name_tok = self.expect_ident()
        if self.accept_sym(":="):
            value = self.parse_expr()
            self.expect_sym(";")
            return Assign(name_tok.text, value, pos=pos)
        if self.check_sym("("):
            args = self.parse_call_args(name_tok)
            self.expect_sym(";")
            return CallStmt(name_tok.text, tuple(args), pos=pos)
        after = self.peek()
        found = after.text if after.kind != "eof" else "end of input"
        raise ParseError(
            f"expected ':=' or '(' after {name_tok.text!r} "
            f"but found {found!r}",
            pos=(after.line, after.col),
        )

    def parse_if(self, pos: Tuple[int, int]) -> Stmt:
        branch_stops = frozenset({"ELSIF", "ELSE", "END_IF"})
        branches: List[Tuple[Expr, Stmt, Tuple[int, int]]] = []
        cond = self.parse_expr()
        self.expect_kw("THEN")
        branches.append((cond, seq(*self.parse_stmts(branch_stops)), pos))
        while self.check_kw("ELSIF"):
            tok = self.advance()
            cond = self.parse_expr()
            self.expect_kw("THEN")
            branches.append(
                (cond, seq(*self.parse_stmts(branch_stops)),
                 (tok.line, tok.col))
            )
        els: Stmt = Skip()
        if self.accept_kw("ELSE"):
            els = seq(*self.parse_stmts(frozenset({"END_IF"})))
        self.expect_kw("END_IF")
        self.accept_sym(";")
        node = els
        for c, body, p in reversed(branches):
            node = If(c, body, node, pos=p)
        return node

    def parse_for(self, pos: Tuple[int, int]) -> Stmt:
        var_tok = self.expect_ident()
        self.expect_sym(":=")
        start = self.parse_expr()
        self.expect_kw("TO")
        bound = self.parse_expr()
        step = 1
        if self.accept_kw("BY"):
            step_tok = self.peek()
            step_expr = self.parse_expr()
            step = self._constant_int(step_expr)
            if step is None or step == 0:
                raise ParseError(
                    "FOR step (BY ...) must be a non-zero integer constant",
                    pos=(step_tok.line, step_tok.col),
                )
        self.expect_kw("DO")
        body = self.parse_stmts(frozenset({"END_FOR"}))
        self.expect_kw("END_FOR")
        self.accept_sym(";")

        # IEC evaluates the TO bound once, before the first iteration:
        # materialise it so a bound that mentions body-mutated variables
        # keeps that semantics
        bound_name = f"__st_for{self._fresh}"
        self._fresh += 1
        i = var_tok.text
        if step > 0:
            guard: Expr = Binary("<=", Var(i), Var(bound_name))
            incr: Stmt = Assign(i, Binary("+", Var(i), IntLit(step)), pos=pos)
        else:
            guard = Binary(">=", Var(i), Var(bound_name))
            incr = Assign(i, Binary("-", Var(i), IntLit(-step)), pos=pos)
        return seq(
            Assign(i, start, pos=pos),
            VarDecl(ast.INT, bound_name, bound, pos=pos),
            While(guard, seq(*body, incr), pos=pos),
        )

    @staticmethod
    def _constant_int(e: Expr) -> Optional[int]:
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, Unary) and e.op == "-" and isinstance(e.arg, IntLit):
            return -e.arg.value
        return None

    # -- calls ----------------------------------------------------------------

    def parse_call_args(self, name_tok: Token) -> List[Expr]:
        open_tok = self.expect_sym("(")
        if self.accept_sym(")"):
            return []
        named = (
            self.peek().kind == "ident" and self.peek(1).text == ":="
        )
        if not named:
            args = [self.parse_expr()]
            while self.accept_sym(","):
                args.append(self.parse_expr())
            self.expect_sym(")")
            return args
        pairs: List[Tuple[Token, Expr]] = []
        while True:
            pname = self.expect_ident()
            self.expect_sym(":=")
            pairs.append((pname, self.parse_expr()))
            if not self.accept_sym(","):
                break
        self.expect_sym(")")
        sig = self.sigs.get(name_tok.text)
        if sig is None:
            raise ParseError(
                f"named arguments need a callee defined in this file, "
                f"but {name_tok.text!r} is not",
                pos=(name_tok.line, name_tok.col),
            )
        by_name: Dict[str, Expr] = {}
        for pname, expr in pairs:
            if pname.text not in sig.inputs:
                raise ParseError(
                    f"unknown parameter {pname.text!r} in call to "
                    f"{name_tok.text!r}",
                    pos=(pname.line, pname.col),
                )
            if pname.text in by_name:
                raise ParseError(
                    f"duplicate argument for parameter {pname.text!r}",
                    pos=(pname.line, pname.col),
                )
            by_name[pname.text] = expr
        missing = [p for p in sig.inputs if p not in by_name]
        if missing:
            raise ParseError(
                f"call to {name_tok.text!r} is missing argument(s): "
                + ", ".join(missing),
                pos=(open_tok.line, open_tok.col),
            )
        return [by_name[p] for p in sig.inputs]

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_kw("OR"):
            left = Binary("||", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_cmp()
        while self.accept_kw("AND"):
            left = Binary("&&", left, self.parse_cmp())
        return left

    _CMP = {"<=": "<=", ">=": ">=", "<": "<", ">": ">", "=": "==", "<>": "!="}

    def parse_cmp(self) -> Expr:
        left = self.parse_add()
        tok = self.peek()
        if tok.kind == "sym" and tok.text in self._CMP:
            self.advance()
            return Binary(self._CMP[tok.text], left, self.parse_add())
        return left

    def parse_add(self) -> Expr:
        left = self.parse_mul()
        while self.check_sym("+") or self.check_sym("-"):
            op = self.advance().text
            left = Binary(op, left, self.parse_mul())
        return left

    def parse_mul(self) -> Expr:
        left = self.parse_unary()
        while self.check_sym("*"):
            self.advance()
            left = Binary("*", left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.accept_sym("-"):
            return Unary("-", self.parse_unary())
        if self.accept_kw("NOT"):
            return Unary("!", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text))
        if self.accept_kw("TRUE"):
            return BoolLit(True)
        if self.accept_kw("FALSE"):
            return BoolLit(False)
        if self.accept_sym("("):
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        if tok.kind == "ident":
            self.advance()
            if self.check_sym("("):
                args = self.parse_call_args(tok)
                return CallExpr(tok.text, tuple(args), pos=(tok.line, tok.col))
            return Var(tok.text, pos=(tok.line, tok.col))
        found = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(
            f"unexpected token {found!r}", pos=(tok.line, tok.col)
        )


def _collect_signatures(tokens: List[Token]) -> Dict[str, _Signature]:
    """First pass: POU names and declared input order, statements skipped.

    Runs before the real parse so named-argument calls resolve against
    callees defined later in the file.
    """
    sigs: Dict[str, _Signature] = {}
    skimmer = _STParser(tokens, sigs)
    while skimmer.peek().kind != "eof":
        tok = skimmer.peek()
        if tok.kind == "kw" and tok.text in ("FUNCTION", "FUNCTION_BLOCK"):
            kind = "function" if tok.text == "FUNCTION" else "function_block"
            end_kw = "END_" + tok.text
            skimmer.advance()
            name_tok = skimmer.expect_ident()
            if name_tok.text in sigs:
                raise ParseError(
                    f"duplicate definition of {name_tok.text!r}",
                    pos=(name_tok.line, name_tok.col),
                )
            if kind == "function":
                skimmer.expect_sym(":")
                skimmer.parse_type()
            sections = skimmer.parse_var_sections()
            inputs = tuple(
                name
                for section in sections
                if section.kind in ("VAR_INPUT", "VAR_IN_OUT")
                for name, _, _, _ in section.decls
            )
            sigs[name_tok.text] = _Signature(name_tok.text, kind, inputs)
            # statements are re-parsed for real in the second pass
            while not skimmer.check_kw(end_kw):
                if skimmer.peek().kind == "eof":
                    raise ParseError(
                        f"expected {end_kw!r} but found 'end of input'",
                        pos=(skimmer.peek().line, skimmer.peek().col),
                    )
                skimmer.advance()
            skimmer.expect_kw(end_kw)
        else:
            found = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(
                f"expected FUNCTION or FUNCTION_BLOCK but found {found!r}",
                pos=(tok.line, tok.col),
            )
    return sigs


def parse_st_program(source: str) -> Program:
    """Parse ST *source* into a core-language :class:`Program`."""
    tokens = tokenize_st(source)
    sigs = _collect_signatures(tokens)
    return _STParser(tokens, sigs).parse_module()


class STFrontend:
    name = "st"
    extensions = (".st", ".iecst")
    description = (
        "IEC 61131-3 Structured Text subset "
        "(FUNCTION / FUNCTION_BLOCK scan-cycle programs)"
    )

    def parse(self, source: str, *, filename: Optional[str] = None) -> Program:
        try:
            return parse_st_program(source)
        except SourceError as exc:
            if filename is not None and exc.filename is None:
                exc.filename = filename
            raise
