"""Recursive-descent parser for the C subset.

Supports what the RegionWiz corpora need from real-world region code:

* full declarators -- pointers to pointers (``apr_pool_t **newp``),
  function pointers (``typedef apr_status_t (*cleanup_t)(void *)``),
  arrays, parenthesized declarators;
* struct/union tags with forward declarations, typedefs, enums
  (enumerators become integer constants);
* the statement suite (if/while/do/for/return/break/continue, blocks,
  declarations with initializers);
* the expression suite with C precedence, casts, ``sizeof``, ternary
  conditionals, ``->``/``.`` member access, indexing, varargs calls.

Typedef names are tracked during the parse (the classic lexer-feedback
problem), so ``(apr_pool_t *)p`` parses as a cast while ``(x) * p``
parses as multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.lang import nodes
from repro.lang.errors import ParseError, SourceLocation
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.types import (
    ArrayType,
    CHAR,
    CType,
    FunctionType,
    INT,
    IntType,
    LONG,
    PointerType,
    SHORT,
    StructType,
    UNSIGNED,
    VOID,
)

__all__ = ["Parser", "parse"]


_BASE_TYPE_KEYWORDS = frozenset(
    "void char short int long unsigned signed float double".split()
)
_QUALIFIERS = frozenset("const volatile static extern inline".split())

# Operator precedence for the expression climber (binary operators only).
_PRECEDENCE: Dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])


# Declarator shape tree (typed inside-out; see _apply_declarator).
@dataclass
class _DName:
    name: Optional[str]
    loc: SourceLocation


@dataclass
class _DPtr:
    child: "_DTree"


@dataclass
class _DFunc:
    child: "_DTree"
    params: List[nodes.Param]
    varargs: bool


@dataclass
class _DArr:
    child: "_DTree"
    length: int


_DTree = Union[_DName, _DPtr, _DFunc, _DArr]


class Parser:
    def __init__(self, text: str, filename: str = "<input>") -> None:
        self._tokens = tokenize(text, filename)
        self._pos = 0
        self._typedefs: Dict[str, CType] = {}
        self._structs: Dict[str, StructType] = {}
        self._enum_constants: Dict[str, int] = {}
        self._anon_counter = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # Offsets past the end read the trailing EOF token.
        try:
            return self._tokens[self._pos + offset]
        except IndexError:
            return self._tokens[-1]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != TokenKind.EOF:
            self._pos += 1
        return token

    def _at(self, value: str) -> bool:
        token = self._peek()
        return token.kind in (TokenKind.PUNCT, TokenKind.KEYWORD) and token.value == value

    def _accept(self, value: str) -> bool:
        if self._at(value):
            self._next()
            return True
        return False

    def _expect(self, value: str) -> Token:
        token = self._peek()
        if not self._at(value):
            raise ParseError(f"expected {value!r}, found {token.value!r}", token.loc)
        return self._next()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind != TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {token.value!r}", token.loc)
        return self._next()

    # ------------------------------------------------------------------
    # Type detection
    # ------------------------------------------------------------------

    def _starts_type(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        if token.kind == TokenKind.KEYWORD:
            return (
                token.value in _BASE_TYPE_KEYWORDS
                or token.value in ("struct", "union", "enum", "typedef")
                or token.value in _QUALIFIERS
            )
        if token.kind == TokenKind.IDENT:
            return token.value in self._typedefs
        return False

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> nodes.TranslationUnit:
        loc = self._peek().loc
        decls: List[nodes.Decl] = []
        while self._peek().kind != TokenKind.EOF:
            decls.extend(self._parse_top_decl())
        unit = nodes.TranslationUnit(loc, decls)
        unit.enum_constants = dict(self._enum_constants)  # type: ignore[attr-defined]
        unit.structs = dict(self._structs)  # type: ignore[attr-defined]
        return unit

    def _parse_top_decl(self) -> List[nodes.Decl]:
        loc = self._peek().loc
        if self._accept("typedef"):
            return [self._parse_typedef(loc)]
        if self._accept(";"):
            return []
        base, tag_decl = self._parse_decl_specifiers()
        # `struct foo { ... };` or `struct foo;` with no declarator.
        if self._accept(";"):
            return [tag_decl] if tag_decl is not None else []
        results: List[nodes.Decl] = [] if tag_decl is None else [tag_decl]
        first = True
        while True:
            tree = self._parse_declarator()
            name, ctype = self._apply_declarator(tree, base)
            if name is None:
                raise ParseError("declarator requires a name", loc)
            if isinstance(ctype, FunctionType):
                params, varargs = self._declarator_params(tree)
                if first and self._at("{"):
                    body = self._parse_block()
                    results.append(
                        nodes.FuncDecl(loc, ctype.ret, name, params, varargs, body)
                    )
                    return results
                results.append(
                    nodes.FuncDecl(loc, ctype.ret, name, params, varargs, None)
                )
            else:
                init = self._parse_expr_no_comma() if self._accept("=") else None
                results.append(nodes.VarDecl(loc, ctype, name, init, is_global=True))
            first = False
            if self._accept(","):
                continue
            self._expect(";")
            return results

    def _declarator_params(self, tree: _DTree) -> Tuple[List[nodes.Param], bool]:
        """The parameter list of the function declarator attached to the
        name -- the *innermost* _DFunc (``int (*pick(void))(int)`` declares
        pick(void), not pick(int))."""
        node = tree
        last: Optional[_DFunc] = None
        while not isinstance(node, _DName):
            if isinstance(node, _DFunc):
                last = node
            node = node.child
        if last is None:
            raise ParseError("internal: function declarator without params")
        return last.params, last.varargs

    def _parse_typedef(self, loc: SourceLocation) -> nodes.TypedefDecl:
        base, _ = self._parse_decl_specifiers()
        tree = self._parse_declarator()
        name, ctype = self._apply_declarator(tree, base)
        if name is None:
            raise ParseError("typedef requires a name", loc)
        self._expect(";")
        self._typedefs[name] = ctype
        return nodes.TypedefDecl(loc, name, ctype)

    # ------------------------------------------------------------------
    # Declaration specifiers (base type)
    # ------------------------------------------------------------------

    def _parse_decl_specifiers(self) -> Tuple[CType, Optional[nodes.Decl]]:
        """Parse qualifiers + a base type; returns (type, optional tag decl).

        The tag decl is a StructDef when the specifier *defines* a struct,
        so the caller can keep it in the AST.
        """
        words: List[str] = []
        ctype: Optional[CType] = None
        tag_decl: Optional[nodes.Decl] = None
        while True:
            token = self._peek()
            if token.kind == TokenKind.KEYWORD and token.value in _QUALIFIERS:
                self._next()
                continue
            if token.kind == TokenKind.KEYWORD and token.value in _BASE_TYPE_KEYWORDS:
                words.append(token.value)
                self._next()
                continue
            if token.kind == TokenKind.KEYWORD and token.value in ("struct", "union"):
                if words or ctype is not None:
                    raise ParseError("conflicting type specifiers", token.loc)
                ctype, tag_decl = self._parse_struct_specifier()
                continue
            if token.kind == TokenKind.KEYWORD and token.value == "enum":
                if words or ctype is not None:
                    raise ParseError("conflicting type specifiers", token.loc)
                self._parse_enum_specifier()
                ctype = INT
                continue
            if (
                token.kind == TokenKind.IDENT
                and token.value in self._typedefs
                and not words
                and ctype is None
            ):
                # A typedef name is only a specifier if we still need one.
                ctype = self._typedefs[token.value]
                self._next()
                continue
            break
        if ctype is None:
            if not words:
                raise ParseError("expected a type", self._peek().loc)
            ctype = _combine_base_words(words, self._peek().loc)
        return ctype, tag_decl

    def _parse_struct_specifier(self) -> Tuple[CType, Optional[nodes.Decl]]:
        loc = self._peek().loc
        self._next()  # struct / union (unions are laid out like structs here)
        if self._peek().kind == TokenKind.IDENT:
            name = self._next().value
        else:
            self._anon_counter += 1
            name = f"<anon{self._anon_counter}>"
        struct = self._structs.get(name)
        if struct is None:
            struct = StructType(name, loc)
            self._structs[name] = struct
        if not self._at("{"):
            return struct, None
        self._next()  # {
        fields: List[Tuple[CType, str]] = []
        while not self._accept("}"):
            base, _ = self._parse_decl_specifiers()
            while True:
                tree = self._parse_declarator()
                fname, ftype = self._apply_declarator(tree, base)
                if fname is None:
                    raise ParseError("struct field requires a name", loc)
                if isinstance(ftype, FunctionType):
                    raise ParseError(
                        f"field {fname!r} has function type (missing '*'?)", loc
                    )
                fields.append((ftype, fname))
                if not self._accept(","):
                    break
            self._expect(";")
        struct.define([(fname, ftype) for ftype, fname in fields])
        return struct, nodes.StructDef(loc, name, fields)

    def _parse_enum_specifier(self) -> None:
        self._next()  # enum
        if self._peek().kind == TokenKind.IDENT:
            self._next()  # tag (ignored; enums are just ints here)
        if not self._at("{"):
            return
        self._next()
        value = 0
        while not self._accept("}"):
            name_token = self._expect_ident()
            if self._accept("="):
                value_token = self._next()
                if value_token.kind != TokenKind.INT:
                    raise ParseError(
                        "enumerator initializers must be integer literals",
                        value_token.loc,
                    )
                value = int(value_token.value)
            self._enum_constants[name_token.value] = value
            value += 1
            if not self._accept(","):
                self._expect("}")
                break

    # ------------------------------------------------------------------
    # Declarators
    # ------------------------------------------------------------------

    def _parse_declarator(self) -> _DTree:
        if self._accept("*"):
            while self._peek().kind == TokenKind.KEYWORD and self._peek().value in _QUALIFIERS:
                self._next()
            return _DPtr(self._parse_declarator())
        return self._parse_direct_declarator()

    def _parse_direct_declarator(self) -> _DTree:
        token = self._peek()
        node: _DTree
        if token.kind == TokenKind.IDENT and token.value not in self._typedefs:
            self._next()
            node = _DName(token.value, token.loc)
        elif self._at("(") and self._is_parenthesized_declarator():
            self._next()
            node = self._parse_declarator()
            self._expect(")")
        else:
            node = _DName(None, token.loc)  # abstract declarator
        while True:
            if self._at("("):
                self._next()
                params, varargs = self._parse_params()
                self._expect(")")
                node = _DFunc(node, params, varargs)
            elif self._at("["):
                self._next()
                length = 0
                if self._peek().kind == TokenKind.INT:
                    length = int(self._next().value)
                self._expect("]")
                node = _DArr(node, length)
            else:
                return node

    def _is_parenthesized_declarator(self) -> bool:
        """After '(' in declarator position: inner declarator vs params."""
        token = self._peek(1)
        if token.kind == TokenKind.PUNCT and token.value in ("*", "("):
            return True
        if token.kind == TokenKind.IDENT and token.value not in self._typedefs:
            return True
        return False

    def _parse_params(self) -> Tuple[List[nodes.Param], bool]:
        params: List[nodes.Param] = []
        varargs = False
        if self._at(")"):
            return params, varargs
        if self._at("void") and self._peek(1).value == ")":
            self._next()
            return params, varargs
        while True:
            if self._at("..."):
                self._next()
                varargs = True
                break
            loc = self._peek().loc
            base, _ = self._parse_decl_specifiers()
            tree = self._parse_declarator()
            name, ctype = self._apply_declarator(tree, base)
            # Parameter decay: arrays and functions become pointers.
            if isinstance(ctype, ArrayType):
                ctype = PointerType(ctype.element)
            elif isinstance(ctype, FunctionType):
                ctype = PointerType(ctype)
            params.append(nodes.Param(loc, ctype, name))
            if not self._accept(","):
                break
        return params, varargs

    def _apply_declarator(
        self, tree: _DTree, base: CType
    ) -> Tuple[Optional[str], CType]:
        """Resolve a declarator tree against a base type (inside-out rule)."""
        if isinstance(tree, _DName):
            return tree.name, base
        if isinstance(tree, _DPtr):
            return self._apply_declarator(tree.child, PointerType(base))
        if isinstance(tree, _DFunc):
            param_types = tuple(p.type for p in tree.params)
            return self._apply_declarator(
                tree.child, FunctionType(base, param_types, tree.varargs)
            )
        if isinstance(tree, _DArr):
            return self._apply_declarator(tree.child, ArrayType(base, tree.length))
        raise ParseError("internal: unknown declarator node")

    def _parse_type_name(self) -> CType:
        """A type without a name, as in casts and sizeof."""
        base, _ = self._parse_decl_specifiers()
        tree = self._parse_declarator()
        name, ctype = self._apply_declarator(tree, base)
        if name is not None:
            raise ParseError(f"unexpected name {name!r} in type", self._peek().loc)
        return ctype

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_block(self) -> nodes.Block:
        loc = self._expect("{").loc
        stmts: List[nodes.Stmt] = []
        while not self._accept("}"):
            stmts.extend(self._parse_statement())
        return nodes.Block(loc, stmts)

    def _parse_statement(self) -> List[nodes.Stmt]:
        token = self._peek()
        loc = token.loc
        if self._at("{"):
            return [self._parse_block()]
        if self._accept(";"):
            return []
        if self._at("if"):
            return [self._parse_if()]
        if self._at("while"):
            return [self._parse_while()]
        if self._at("do"):
            return [self._parse_do_while()]
        if self._at("for"):
            return [self._parse_for()]
        if self._accept("return"):
            value = None if self._at(";") else self._parse_expr()
            self._expect(";")
            return [nodes.Return(loc, value)]
        if self._accept("break"):
            self._expect(";")
            return [nodes.Break(loc)]
        if self._accept("continue"):
            self._expect(";")
            return [nodes.Continue(loc)]
        if self._starts_type():
            return self._parse_local_declaration()
        expr = self._parse_expr()
        self._expect(";")
        return [nodes.ExprStmt(loc, expr)]

    def _parse_local_declaration(self) -> List[nodes.Stmt]:
        loc = self._peek().loc
        base, _ = self._parse_decl_specifiers()
        stmts: List[nodes.Stmt] = []
        if self._accept(";"):
            return stmts  # bare struct/enum tag declaration
        if self._accept("typedef"):
            raise ParseError("typedef must appear at file scope", loc)
        while True:
            tree = self._parse_declarator()
            name, ctype = self._apply_declarator(tree, base)
            if name is None:
                raise ParseError("declaration requires a name", loc)
            if isinstance(ctype, FunctionType):
                # Local prototype: the function is resolved globally,
                # so the declaration produces no statement.
                pass
            else:
                init = self._parse_expr_no_comma() if self._accept("=") else None
                stmts.append(
                    nodes.DeclStmt(loc, nodes.VarDecl(loc, ctype, name, init))
                )
            if self._accept(","):
                continue
            self._expect(";")
            return stmts

    def _parse_if(self) -> nodes.If:
        loc = self._expect("if").loc
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then = _as_single(self._parse_statement(), loc)
        other = None
        if self._accept("else"):
            other = _as_single(self._parse_statement(), loc)
        return nodes.If(loc, cond, then, other)

    def _parse_while(self) -> nodes.While:
        loc = self._expect("while").loc
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        body = _as_single(self._parse_statement(), loc)
        return nodes.While(loc, cond, body)

    def _parse_do_while(self) -> nodes.DoWhile:
        loc = self._expect("do").loc
        body = _as_single(self._parse_statement(), loc)
        self._expect("while")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        self._expect(";")
        return nodes.DoWhile(loc, body, cond)

    def _parse_for(self) -> nodes.For:
        loc = self._expect("for").loc
        self._expect("(")
        init: Optional[Union[nodes.Expr, nodes.VarDecl]] = None
        if not self._at(";"):
            if self._starts_type():
                base, _ = self._parse_decl_specifiers()
                tree = self._parse_declarator()
                name, ctype = self._apply_declarator(tree, base)
                if name is None:
                    raise ParseError("declaration requires a name", loc)
                value = self._parse_expr_no_comma() if self._accept("=") else None
                init = nodes.VarDecl(loc, ctype, name, value)
            else:
                init = self._parse_expr()
        self._expect(";")
        cond = None if self._at(";") else self._parse_expr()
        self._expect(";")
        step = None if self._at(")") else self._parse_expr()
        self._expect(")")
        body = _as_single(self._parse_statement(), loc)
        return nodes.For(loc, init, cond, step, body)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _parse_expr(self) -> nodes.Expr:
        expr = self._parse_expr_no_comma()
        while self._at(","):
            loc = self._next().loc
            right = self._parse_expr_no_comma()
            # The comma operator evaluates both; model as a binary op.
            expr = nodes.Binary(loc, ",", expr, right)
        return expr

    def _parse_expr_no_comma(self) -> nodes.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> nodes.Expr:
        left = self._parse_conditional()
        token = self._peek()
        if token.kind == TokenKind.PUNCT and token.value in _ASSIGN_OPS:
            self._next()
            right = self._parse_assignment()
            if token.value == "=":
                return nodes.Assign(token.loc, left, right)
            # Compound assignment desugars to load-op-store.
            op = token.value[:-1]
            return nodes.Assign(
                token.loc, left, nodes.Binary(token.loc, op, left, right)
            )
        return left

    def _parse_conditional(self) -> nodes.Expr:
        cond = self._parse_binary(1)
        if not self._at("?"):
            return cond
        loc = self._next().loc
        then = self._parse_expr()
        self._expect(":")
        other = self._parse_conditional()
        return nodes.Cond(loc, cond, then, other)

    def _parse_binary(self, min_precedence: int) -> nodes.Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind != TokenKind.PUNCT:
                return left
            precedence = _PRECEDENCE.get(token.value)
            if precedence is None or precedence < min_precedence:
                return left
            self._next()
            right = self._parse_binary(precedence + 1)
            left = nodes.Binary(token.loc, token.value, left, right)

    def _parse_unary(self) -> nodes.Expr:
        token = self._peek()
        loc = token.loc
        if token.kind == TokenKind.PUNCT and token.value in ("*", "&", "!", "-", "+", "~"):
            self._next()
            return nodes.Unary(loc, token.value, self._parse_unary())
        if token.kind == TokenKind.PUNCT and token.value in ("++", "--"):
            self._next()
            target = self._parse_unary()
            # ++x desugars to x = x + 1 (value semantics suffice here).
            op = "+" if token.value == "++" else "-"
            return nodes.Assign(
                loc, target, nodes.Binary(loc, op, target, nodes.IntLit(loc, 1))
            )
        if self._at("sizeof"):
            self._next()
            if self._at("(") and self._starts_type(1):
                self._next()
                ctype = self._parse_type_name()
                self._expect(")")
                return nodes.SizeOf(loc, ctype)
            return nodes.SizeOf(loc, self._parse_unary())
        if self._at("(") and self._starts_type(1):
            self._next()
            ctype = self._parse_type_name()
            self._expect(")")
            return nodes.Cast(loc, ctype, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> nodes.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if self._at("("):
                self._next()
                args: List[nodes.Expr] = []
                if not self._at(")"):
                    args.append(self._parse_expr_no_comma())
                    while self._accept(","):
                        args.append(self._parse_expr_no_comma())
                self._expect(")")
                expr = nodes.Call(token.loc, expr, args)
            elif self._at("->"):
                self._next()
                name = self._expect_ident().value
                expr = nodes.Member(token.loc, expr, name, arrow=True)
            elif self._at("."):
                self._next()
                name = self._expect_ident().value
                expr = nodes.Member(token.loc, expr, name, arrow=False)
            elif self._at("["):
                self._next()
                index = self._parse_expr()
                self._expect("]")
                expr = nodes.Index(token.loc, expr, index)
            elif self._at("++") or self._at("--"):
                op_token = self._next()
                op = "+" if op_token.value == "++" else "-"
                # x++ as a statement-level desugar (value not preserved,
                # which the analysis never needs).
                expr = nodes.Assign(
                    op_token.loc,
                    expr,
                    nodes.Binary(op_token.loc, op, expr, nodes.IntLit(op_token.loc, 1)),
                )
            else:
                return expr

    def _parse_primary(self) -> nodes.Expr:
        token = self._peek()
        loc = token.loc
        if token.kind == TokenKind.INT:
            self._next()
            return nodes.IntLit(loc, int(token.value))
        if token.kind == TokenKind.STRING:
            self._next()
            value = token.value
            # Adjacent string literals concatenate.
            while self._peek().kind == TokenKind.STRING:
                value += self._next().value
            return nodes.StrLit(loc, value)
        if token.kind == TokenKind.IDENT:
            self._next()
            if token.value == "NULL":
                return nodes.NullLit(loc)
            if token.value in self._enum_constants:
                return nodes.IntLit(loc, self._enum_constants[token.value])
            return nodes.Ident(loc, token.value)
        if self._accept("("):
            expr = self._parse_expr()
            self._expect(")")
            return expr
        raise ParseError(f"unexpected token {token.value!r}", loc)


def _as_single(stmts: List[nodes.Stmt], loc: SourceLocation) -> nodes.Stmt:
    if len(stmts) == 1:
        return stmts[0]
    return nodes.Block(loc, stmts)


def _combine_base_words(words: List[str], loc: SourceLocation) -> CType:
    key = frozenset(words)
    signed = "unsigned" not in key
    if "void" in key:
        return VOID
    if "char" in key:
        return CHAR if signed else IntType("unsigned char", 1, signed=False)
    if "short" in key:
        return SHORT if signed else IntType("unsigned short", 2, signed=False)
    if "long" in key or "double" in key:
        return LONG if signed else IntType("unsigned long", 8, signed=False)
    if "float" in key:
        return INT  # floats are opaque scalars to the analysis
    if "int" in key or "signed" in key:
        return INT if signed else UNSIGNED
    if key == {"unsigned"}:
        return UNSIGNED
    raise ParseError(f"unsupported type specifier {' '.join(words)!r}", loc)


def parse(text: str, filename: str = "<input>") -> nodes.TranslationUnit:
    """Parse a translation unit from source text."""
    return Parser(text, filename).parse_translation_unit()
