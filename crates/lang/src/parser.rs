//! Recursive-descent parser for the surface language.
//!
//! Newlines are statement separators inside blocks and arm separators in
//! `match`/`type` bodies; they are transparent inside parentheses,
//! argument lists, and after binary operators and `->`.
//!
//! Nesting is bounded by [`MAX_NESTING`], so that neither the parser nor
//! the phases after it, which recurse once per level, can run out of
//! stack on a hostile source.

use crate::ast::*;
use crate::error::{LangError, Span};
use crate::names::{Names, Sym};
use crate::token::{lex, Spanned, Tok};

/// The deepest a source may nest, counted per expression level: no
/// expression tree may be more than this many nodes deep (`a + b + c` is
/// three), and no parse may open more levels at once — each parenthesis,
/// operand, argument, branch, statement, type and pattern opens one.
/// Deeper sources are rejected with a [`Phase::Depth`] error (the
/// daemon's `source-too-deep`) as soon as the parser meets the level
/// past the limit, so nothing deeper is ever built.
///
/// [`Phase::Depth`]: crate::error::Phase::Depth
pub const MAX_NESTING: usize = 256;

/// Parses a whole source file.
pub fn parse(src: &str) -> Result<SProgram, LangError> {
    let mut names = Names::new();
    let toks = lex(src, &mut names)?;
    let mut p = Parser {
        toks,
        names,
        pos: 0,
        depth: 0,
        tree: 0,
    };
    p.program()
}

/// Precedences of the binary operators below `:=`, loosest first.
const OR: u8 = 1;
const AND: u8 = 2;
const CMP: u8 = 3;
const ADD: u8 = 4;
const MUL: u8 = 5;

/// The binary operator `tok` spells, with its precedence.
fn infix(tok: Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::OrOr => (BinOp::Or, OR),
        Tok::AndAnd => (BinOp::And, AND),
        Tok::EqEq => (BinOp::Eq, CMP),
        Tok::NotEq => (BinOp::Ne, CMP),
        Tok::Lt => (BinOp::Lt, CMP),
        Tok::Le => (BinOp::Le, CMP),
        Tok::Gt => (BinOp::Gt, CMP),
        Tok::Ge => (BinOp::Ge, CMP),
        Tok::Plus => (BinOp::Add, ADD),
        Tok::Minus => (BinOp::Sub, ADD),
        Tok::Star => (BinOp::Mul, MUL),
        Tok::Slash => (BinOp::Div, MUL),
        Tok::Percent => (BinOp::Rem, MUL),
        _ => return None,
    })
}

fn too_deep(span: Span) -> LangError {
    LangError::depth(
        format!("expression nested deeper than {MAX_NESTING} levels"),
        span,
    )
}

struct Parser {
    toks: Vec<Spanned>,
    /// The lexer's name table, handed on to the tree.
    names: Names,
    pos: usize,
    /// Levels the parse has open at the current token.
    depth: usize,
    /// The tree depth of the expression parsed last.
    tree: usize,
}

impl Parser {
    /// Opens one level for `parse`.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        if self.depth >= MAX_NESTING {
            return Err(too_deep(self.peek_span()));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Records that the expression about to be built sits one node
    /// above children `below` deep.
    fn level(&mut self, below: usize, span: Span) -> Result<(), LangError> {
        if below >= MAX_NESTING {
            return Err(too_deep(span));
        }
        self.tree = below + 1;
        Ok(())
    }

    /// An expression and its tree depth.
    fn measured(&mut self) -> Result<(SExpr, usize), LangError> {
        let e = self.expr()?;
        Ok((e, self.tree))
    }

    /// Builds `lhs op rhs`, whose operands are `dl` and `self.tree` deep.
    fn binop(&mut self, op: BinOp, lhs: SExpr, dl: usize, rhs: SExpr) -> Result<SExpr, LangError> {
        let span = lhs.span().merge(rhs.span());
        self.level(dl.max(self.tree), span)?;
        Ok(SExpr::Binop(op, Box::new(lhs), Box::new(rhs), span))
    }

    fn peek(&self) -> Tok {
        self.toks[self.pos].tok
    }

    fn peek_span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// The next non-newline token (for lookahead across line breaks).
    fn peek_past_newlines(&self) -> Tok {
        let mut i = self.pos;
        while matches!(self.toks[i].tok, Tok::Newline) {
            i += 1;
        }
        self.toks[i].tok
    }

    /// Consumes the next token; the final `Eof` stays in place for every
    /// later peek.
    fn bump(&mut self) -> Spanned {
        let t = self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the identifier or constructor the caller peeked and
    /// returns its name.
    fn bump_name(&mut self) -> (Sym, Span) {
        match self.bump() {
            Spanned {
                tok: Tok::Ident(s) | Tok::ConId(s),
                span,
            } => (s, span),
            other => unreachable!("bump_name on {:?}", other.tok),
        }
    }

    /// "`what`, found `the next token`", as an error at the next token.
    fn found(&self, what: impl std::fmt::Display) -> LangError {
        LangError::parse(
            format!("{what}, found {}", self.peek().show(&self.names)),
            self.peek_span(),
        )
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == *tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Span, LangError> {
        if self.peek() == tok {
            Ok(self.bump().span)
        } else {
            Err(self.found(format_args!("expected {}", tok.show(&self.names))))
        }
    }

    /// Skips newlines and semicolons.
    fn skip_seps(&mut self) {
        while matches!(self.peek(), Tok::Newline | Tok::Semi) {
            self.bump();
        }
    }

    /// Skips newlines only (inside delimiters).
    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    fn ident(&mut self) -> Result<(Sym, Span), LangError> {
        match self.peek() {
            Tok::Ident(_) => Ok(self.bump_name()),
            _ => Err(self.found("expected an identifier")),
        }
    }

    // ---- declarations ------------------------------------------------

    fn program(&mut self) -> Result<SProgram, LangError> {
        let mut out = SProgram::default();
        self.skip_seps();
        while !matches!(self.peek(), Tok::Eof) {
            match self.peek() {
                Tok::Type => out.types.push(self.typedef()?),
                Tok::Fun => out.funs.push(self.fundef()?),
                _ => return Err(self.found("expected `type` or `fun`")),
            }
            self.skip_seps();
        }
        out.names = std::mem::take(&mut self.names);
        Ok(out)
    }

    fn typedef(&mut self) -> Result<STypeDef, LangError> {
        let start = self.expect(Tok::Type)?;
        let (name, _) = self.ident()?;
        let mut params = Vec::new();
        if self.eat(&Tok::Lt) {
            loop {
                let (p, _) = self.ident()?;
                params.push(p);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::Gt)?;
        }
        self.skip_newlines();
        self.expect(Tok::LBrace)?;
        self.skip_seps();
        let mut ctors = Vec::new();
        while !matches!(self.peek(), Tok::RBrace) {
            ctors.push(self.ctordef()?);
            self.skip_seps();
        }
        let end = self.expect(Tok::RBrace)?;
        Ok(STypeDef {
            name,
            params,
            ctors,
            span: start.merge(end),
        })
    }

    fn ctordef(&mut self) -> Result<SCtorDef, LangError> {
        let (name, span) = match self.peek() {
            Tok::ConId(_) => self.bump_name(),
            _ => return Err(self.found("expected a constructor name")),
        };
        let mut fields = Vec::new();
        if self.eat(&Tok::LParen) {
            self.skip_newlines();
            loop {
                // `name : type` or bare `type`; disambiguate by looking
                // one token past an identifier for a colon.
                let field_name = if matches!(self.peek(), Tok::Ident(_))
                    && matches!(self.toks[self.pos + 1].tok, Tok::Colon)
                {
                    let (n, _) = self.ident()?;
                    self.expect(Tok::Colon)?;
                    Some(n)
                } else {
                    None
                };
                let ty = self.type_()?;
                fields.push((field_name, ty));
                self.skip_newlines();
                if !self.eat(&Tok::Comma) {
                    break;
                }
                self.skip_newlines();
            }
            self.expect(Tok::RParen)?;
        }
        Ok(SCtorDef { name, fields, span })
    }

    fn fundef(&mut self) -> Result<SFunDef, LangError> {
        let start = self.expect(Tok::Fun)?;
        let (name, _) = self.ident()?;
        self.expect(Tok::LParen)?;
        self.skip_newlines();
        let mut params = Vec::new();
        if !matches!(self.peek(), Tok::RParen) {
            loop {
                // `borrow` is a soft keyword: it modifies the parameter
                // that follows (a plain parameter may still be *named*
                // `borrow` when nothing follows it).
                let borrowed = self.peek() == Tok::Ident(Sym::BORROW)
                    && matches!(self.toks[self.pos + 1].tok, Tok::Ident(_));
                if borrowed {
                    self.bump();
                }
                let (p, _) = self.ident()?;
                let ann = if self.eat(&Tok::Colon) {
                    Some(self.type_()?)
                } else {
                    None
                };
                params.push(crate::ast::SParam {
                    name: p,
                    ann,
                    borrowed,
                });
                self.skip_newlines();
                if !self.eat(&Tok::Comma) {
                    break;
                }
                self.skip_newlines();
            }
        }
        self.expect(Tok::RParen)?;
        let ret = if self.eat(&Tok::Colon) {
            Some(self.type_()?)
        } else {
            None
        };
        self.skip_newlines();
        let body = self.block()?;
        let span = start.merge(body.span());
        Ok(SFunDef {
            name,
            params,
            ret,
            body,
            span,
        })
    }

    // ---- types ---------------------------------------------------------

    fn type_(&mut self) -> Result<SType, LangError> {
        self.nested(Self::bare_type)
    }

    fn bare_type(&mut self) -> Result<SType, LangError> {
        // `( … )` may open a function-type parameter list or a
        // parenthesized/unit type.
        if self.eat(&Tok::LParen) {
            self.skip_newlines();
            let mut parts = Vec::new();
            if !matches!(self.peek(), Tok::RParen) {
                loop {
                    parts.push(self.type_()?);
                    self.skip_newlines();
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                    self.skip_newlines();
                }
            }
            self.expect(Tok::RParen)?;
            if self.eat(&Tok::Arrow) {
                let ret = self.type_()?;
                return Ok(SType::Fn(parts, Box::new(ret)));
            }
            return match parts.len() {
                0 => Ok(SType::Unit),
                1 => Ok(parts.into_iter().next().expect("len checked")),
                n => Err(LangError::parse(
                    format!("tuple types are not supported ({n} components)"),
                    self.peek_span(),
                )),
            };
        }
        let (name, _) = self.ident()?;
        let mut args = Vec::new();
        if self.eat(&Tok::Lt) {
            loop {
                args.push(self.type_()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::Gt)?;
        }
        let base = SType::Name(name, args);
        // Single-argument function sugar: `int -> int`.
        if self.eat(&Tok::Arrow) {
            let ret = self.type_()?;
            return Ok(SType::Fn(vec![base], Box::new(ret)));
        }
        Ok(base)
    }

    // ---- statements and blocks ------------------------------------------

    fn block(&mut self) -> Result<SExpr, LangError> {
        let start = self.expect(Tok::LBrace)?;
        self.skip_seps();
        let mut stmts: Vec<SStmt> = Vec::new();
        // A unit tail is one node below the block.
        let mut below = 1;
        while !matches!(self.peek(), Tok::RBrace) {
            if self.eat(&Tok::Val) {
                let (name, vspan) = self.ident()?;
                self.expect(Tok::Eq)?;
                self.skip_newlines();
                let rhs = self.expr()?;
                let span = vspan.merge(rhs.span());
                stmts.push(SStmt::Val(name, rhs, span));
            } else {
                let e = self.expr()?;
                stmts.push(SStmt::Expr(e));
            }
            below = below.max(self.tree);
            // A statement ends at a newline, semicolon or the brace.
            if !matches!(self.peek(), Tok::RBrace) {
                if !matches!(self.peek(), Tok::Newline | Tok::Semi) {
                    return Err(self.found("expected end of statement"));
                }
                self.skip_seps();
            }
        }
        let end = self.expect(Tok::RBrace)?;
        let span = start.merge(end);
        // The tail is the last expression statement; a trailing `val`
        // makes the block unit-valued.
        let tail = match stmts.pop() {
            Some(SStmt::Expr(e)) => e,
            Some(v @ SStmt::Val(..)) => {
                stmts.push(v);
                SExpr::Unit(span)
            }
            None => SExpr::Unit(span),
        };
        self.level(below, span)?;
        Ok(SExpr::Block(stmts, Box::new(tail), span))
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<SExpr, LangError> {
        self.nested(Self::assign_expr)
    }

    fn assign_expr(&mut self) -> Result<SExpr, LangError> {
        let lhs = self.binary(OR)?;
        if self.eat(&Tok::Assign) {
            let dl = self.tree;
            self.skip_newlines();
            let rhs = self.nested(Self::assign_expr)?;
            return self.binop(BinOp::Assign, lhs, dl, rhs);
        }
        Ok(lhs)
    }

    /// The operators between `:=` and the unary ones, by precedence
    /// climbing: an operand, then each operator of precedence `min` or
    /// more that may follow what has been built, with its right operand.
    /// Every level is left-associative but comparison, which takes one
    /// operator: `a < b < c` stops before the second `<`.
    ///
    /// Layout rule (as in Koka): a line that *starts* with one of these
    /// operators continues the previous expression, except `-`: it is a
    /// prefix operator too, so a leading one starts a new statement.
    fn binary(&mut self, min: u8) -> Result<SExpr, LangError> {
        let mut lhs = self.unary_expr()?;
        // The highest precedence the next operator may have.
        let mut limit = MUL;
        loop {
            let mut tok = self.peek();
            let continued = tok == Tok::Newline;
            if continued {
                tok = self.peek_past_newlines();
            }
            let Some((op, prec)) = infix(tok) else { break };
            if prec < min || prec > limit || continued && tok == Tok::Minus {
                break;
            }
            if continued {
                self.skip_newlines();
            }
            let dl = self.tree;
            self.bump();
            self.skip_newlines();
            let rhs = self.binary(prec + 1)?;
            lhs = self.binop(op, lhs, dl, rhs)?;
            limit = if prec == CMP { prec - 1 } else { prec };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<SExpr, LangError> {
        match self.peek() {
            Tok::Minus => {
                let start = self.bump().span;
                let e = self.nested(Self::unary_expr)?;
                let span = start.merge(e.span());
                self.level(self.tree, span)?;
                Ok(SExpr::Neg(Box::new(e), span))
            }
            Tok::Bang => {
                let start = self.bump().span;
                let e = self.nested(Self::unary_expr)?;
                let span = start.merge(e.span());
                self.level(self.tree, span)?;
                Ok(SExpr::Deref(Box::new(e), span))
            }
            _ => self.call_expr(),
        }
    }

    fn call_expr(&mut self) -> Result<SExpr, LangError> {
        let mut e = self.atom()?;
        while matches!(self.peek(), Tok::LParen) {
            let mut below = self.tree;
            self.bump();
            self.skip_newlines();
            let mut args = Vec::new();
            if !matches!(self.peek(), Tok::RParen) {
                loop {
                    args.push(self.expr()?);
                    below = below.max(self.tree);
                    self.skip_newlines();
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                    self.skip_newlines();
                }
            }
            let end = self.expect(Tok::RParen)?;
            let span = e.span().merge(end);
            self.level(below, span)?;
            e = SExpr::Call(Box::new(e), args, span);
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<SExpr, LangError> {
        self.tree = 1;
        match self.peek() {
            Tok::Int(i) => {
                let span = self.bump().span;
                Ok(SExpr::Int(i, span))
            }
            Tok::Ident(_) => {
                let (s, span) = self.bump_name();
                Ok(SExpr::Var(s, span))
            }
            Tok::ConId(_) => {
                let (s, span) = self.bump_name();
                Ok(SExpr::Con(s, span))
            }
            Tok::LParen => {
                self.bump();
                self.skip_newlines();
                if self.eat(&Tok::RParen) {
                    return Ok(SExpr::Unit(self.peek_span()));
                }
                let e = self.expr()?;
                self.skip_newlines();
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBrace => self.block(),
            Tok::If => self.if_expr(),
            Tok::Match => self.match_expr(),
            Tok::Fn => self.fn_expr(),
            _ => Err(self.found("expected an expression")),
        }
    }

    fn if_expr(&mut self) -> Result<SExpr, LangError> {
        let start = self.expect(Tok::If)?;
        let (cond, dc) = self.measured()?;
        self.skip_newlines();
        self.expect(Tok::Then)?;
        self.skip_newlines();
        let (then_e, dt) = self.measured()?;
        // `elif`/`else` may start on the following line.
        if matches!(self.peek_past_newlines(), Tok::Elif) {
            self.skip_newlines();
            // Parse `elif …` by reusing if_expr with the elif consumed.
            let elif_span = self.expect(Tok::Elif)?;
            // Rebuild as a nested if: push a synthetic If token? Simpler:
            // parse the rest inline.
            let inner = self.nested(|p| p.if_tail(elif_span))?;
            let span = start.merge(inner.span());
            self.level(dc.max(dt).max(self.tree), span)?;
            return Ok(SExpr::If(
                Box::new(cond),
                Box::new(then_e),
                Box::new(inner),
                span,
            ));
        }
        if !matches!(self.peek_past_newlines(), Tok::Else) {
            return Err(LangError::parse(
                "`if` requires an `else` branch".into(),
                self.peek_span(),
            ));
        }
        self.skip_newlines();
        self.expect(Tok::Else)?;
        self.skip_newlines();
        let else_e = self.expr()?;
        let span = start.merge(else_e.span());
        self.level(dc.max(dt).max(self.tree), span)?;
        Ok(SExpr::If(
            Box::new(cond),
            Box::new(then_e),
            Box::new(else_e),
            span,
        ))
    }

    /// Parses the continuation of an `elif`: condition, then-branch and
    /// the rest of the chain.
    fn if_tail(&mut self, start: Span) -> Result<SExpr, LangError> {
        let (cond, dc) = self.measured()?;
        self.skip_newlines();
        self.expect(Tok::Then)?;
        self.skip_newlines();
        let (then_e, dt) = self.measured()?;
        if matches!(self.peek_past_newlines(), Tok::Elif) {
            self.skip_newlines();
            let elif_span = self.expect(Tok::Elif)?;
            let inner = self.nested(|p| p.if_tail(elif_span))?;
            let span = start.merge(inner.span());
            self.level(dc.max(dt).max(self.tree), span)?;
            return Ok(SExpr::If(
                Box::new(cond),
                Box::new(then_e),
                Box::new(inner),
                span,
            ));
        }
        self.skip_newlines();
        self.expect(Tok::Else)?;
        self.skip_newlines();
        let else_e = self.expr()?;
        let span = start.merge(else_e.span());
        self.level(dc.max(dt).max(self.tree), span)?;
        Ok(SExpr::If(
            Box::new(cond),
            Box::new(then_e),
            Box::new(else_e),
            span,
        ))
    }

    fn match_expr(&mut self) -> Result<SExpr, LangError> {
        let start = self.expect(Tok::Match)?;
        let (scrutinee, mut below) = self.measured()?;
        self.skip_newlines();
        self.expect(Tok::LBrace)?;
        self.skip_seps();
        let mut arms = Vec::new();
        while !matches!(self.peek(), Tok::RBrace) {
            let pattern = self.pattern()?;
            self.skip_newlines();
            self.expect(Tok::Arrow)?;
            self.skip_newlines();
            let body = self.expr()?;
            below = below.max(self.tree);
            let span = pattern.span().merge(body.span());
            arms.push(SArm {
                pattern,
                body,
                span,
            });
            self.skip_seps();
        }
        let end = self.expect(Tok::RBrace)?;
        let span = start.merge(end);
        self.level(below, span)?;
        Ok(SExpr::Match(Box::new(scrutinee), arms, span))
    }

    fn fn_expr(&mut self) -> Result<SExpr, LangError> {
        let start = self.expect(Tok::Fn)?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !matches!(self.peek(), Tok::RParen) {
            loop {
                let (p, _) = self.ident()?;
                // Optional annotation, ignored (inference handles it).
                if self.eat(&Tok::Colon) {
                    self.type_()?;
                }
                params.push(p);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.skip_newlines();
        let body = self.block()?;
        let span = start.merge(body.span());
        self.level(self.tree, span)?;
        Ok(SExpr::Lam(params, Box::new(body), span))
    }

    fn pattern(&mut self) -> Result<SPat, LangError> {
        self.nested(Self::bare_pattern)
    }

    fn bare_pattern(&mut self) -> Result<SPat, LangError> {
        match self.peek() {
            Tok::Ident(_) => {
                let (s, span) = self.bump_name();
                if s == Sym::WILDCARD {
                    Ok(SPat::Wild(span))
                } else {
                    Ok(SPat::Var(s, span))
                }
            }
            Tok::Int(i) => {
                let span = self.bump().span;
                Ok(SPat::Int(i, span))
            }
            Tok::Minus => {
                let start = self.bump().span;
                match self.peek() {
                    Tok::Int(i) => {
                        let span = start.merge(self.bump().span);
                        Ok(SPat::Int(-i, span))
                    }
                    _ => Err(self.found("expected an integer after `-`")),
                }
            }
            Tok::ConId(_) => {
                let (s, mut span) = self.bump_name();
                let mut fields = Vec::new();
                if self.eat(&Tok::LParen) {
                    self.skip_newlines();
                    loop {
                        fields.push(self.pattern()?);
                        self.skip_newlines();
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        self.skip_newlines();
                    }
                    span = span.merge(self.expect(Tok::RParen)?);
                }
                Ok(SPat::Ctor(s, fields, span))
            }
            _ => Err(self.found("expected a pattern")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typedef() {
        let p = parse("type list<a> { Nil; Cons(head: a, tail: list<a>) }").unwrap();
        assert_eq!(p.types.len(), 1);
        let t = &p.types[0];
        let text = |s| p.names.text(s);
        assert_eq!(text(t.name), "list");
        assert_eq!(t.params.iter().map(|&s| text(s)).collect::<Vec<_>>(), ["a"]);
        assert_eq!(t.ctors.len(), 2);
        assert_eq!(t.ctors[1].fields.len(), 2);
        assert_eq!(t.ctors[1].fields[0].0.map(text), Some("head"));
    }

    #[test]
    fn parses_fun_with_match() {
        let src = r#"
fun map(xs: list<a>, f: (a) -> b): list<b> {
  match xs {
    Cons(x, xx) -> Cons(f(x), map(xx, f))
    Nil -> Nil
  }
}
"#;
        let p = parse(src).unwrap();
        assert_eq!(p.funs.len(), 1);
        let f = &p.funs[0];
        assert_eq!(p.names.text(f.name), "map");
        assert_eq!(f.params.len(), 2);
        assert!(f.ret.is_some());
    }

    #[test]
    fn parses_if_elif_chain() {
        let src = "fun f(x: int): int { if x < 0 then 0 elif x == 0 then 1 else 2 }";
        let p = parse(src).unwrap();
        let SExpr::Block(_, tail, _) = &p.funs[0].body else {
            panic!()
        };
        let SExpr::If(_, _, else_b, _) = &**tail else {
            panic!("expected if, got {tail:?}")
        };
        assert!(matches!(**else_b, SExpr::If(..)), "elif nests");
    }

    #[test]
    fn parses_operator_precedence() {
        let src = "fun f(a: int, b: int): bool { a + b * 2 < a * 3 }";
        let p = parse(src).unwrap();
        let SExpr::Block(_, tail, _) = &p.funs[0].body else {
            panic!()
        };
        let SExpr::Binop(BinOp::Lt, lhs, _, _) = &**tail else {
            panic!("expected <, got {tail:?}")
        };
        assert!(matches!(**lhs, SExpr::Binop(BinOp::Add, ..)));
    }

    #[test]
    fn parses_blocks_with_val() {
        let src = "fun f(): int {\n  val x = 1\n  val y = 2\n  x + y\n}";
        let p = parse(src).unwrap();
        let SExpr::Block(stmts, tail, _) = &p.funs[0].body else {
            panic!()
        };
        assert_eq!(stmts.len(), 2);
        assert!(matches!(**tail, SExpr::Binop(BinOp::Add, ..)));
    }

    #[test]
    fn parses_lambda_and_calls() {
        let src = "fun f(): int { (fn(x) { x + 1 })(41) }";
        let p = parse(src).unwrap();
        let SExpr::Block(_, tail, _) = &p.funs[0].body else {
            panic!()
        };
        assert!(matches!(**tail, SExpr::Call(..)));
    }

    #[test]
    fn parses_nested_patterns() {
        let src = r#"
fun f(t: tree): tree {
  match t {
    Node(_, Node(Red, lx, kx, vx, rx), ky, vy, ry) -> lx
    _ -> t
  }
}
"#;
        let p = parse(src).unwrap();
        let SExpr::Block(_, tail, _) = &p.funs[0].body else {
            panic!()
        };
        let SExpr::Match(_, arms, _) = &**tail else {
            panic!()
        };
        let SPat::Ctor(name, fields, _) = &arms[0].pattern else {
            panic!()
        };
        assert_eq!(p.names.text(*name), "Node");
        assert_eq!(fields.len(), 5);
        assert!(matches!(&fields[1], SPat::Ctor(n, f, _) if n == name && f.len() == 5));
    }

    #[test]
    fn parses_multiline_arguments() {
        let src =
            "fun f(): int {\n  g(1,\n    2,\n    3)\n}\nfun g(a: int, b: int, c: int): int { a }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn parses_deref_and_assign() {
        let src = "fun f(r: ref<int>): int {\n  r := 5\n  !r\n}";
        let p = parse(src).unwrap();
        let SExpr::Block(stmts, tail, _) = &p.funs[0].body else {
            panic!()
        };
        assert!(matches!(
            stmts[0],
            SStmt::Expr(SExpr::Binop(BinOp::Assign, ..))
        ));
        assert!(matches!(**tail, SExpr::Deref(..)));
    }

    #[test]
    fn error_mentions_location() {
        let err = parse("fun f() { ??? }").unwrap_err();
        assert!(err.render("fun f() { ??? }").contains("1:"), "{err}");
    }

    #[test]
    fn trailing_val_makes_unit_block() {
        let src = "fun f() { val x = 1 }";
        let p = parse(src).unwrap();
        let SExpr::Block(stmts, tail, _) = &p.funs[0].body else {
            panic!()
        };
        assert_eq!(stmts.len(), 1);
        assert!(matches!(**tail, SExpr::Unit(_)));
    }

    fn main_returning(e: &str) -> String {
        format!("fun main(n: int): int {{ {e} }}")
    }

    /// At the limit the parser is 256 levels deep, more than a debug
    /// build's test thread holds; it runs on a stack of its own, as the
    /// daemon's workers do.
    #[test]
    fn nesting_is_bounded_per_expression_level() {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(nesting_limits)
            .unwrap()
            .join()
            .unwrap();
    }

    fn nesting_limits() {
        // `1 + (1 + (… + (n)))`: the body block, k additions and `n` are
        // k + 2 levels.
        let sums = |k: usize| main_returning(&format!("{}n{}", "1 + (".repeat(k), ")".repeat(k)));
        parse(&sums(MAX_NESTING - 2)).unwrap();
        let err = parse(&sums(MAX_NESTING - 1)).unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Depth, "{err}");
        // Parentheses alone build nothing but are parsed recursively.
        let parens = main_returning(&format!("{}n{}", "(".repeat(1_000), ")".repeat(1_000)));
        assert_eq!(
            parse(&parens).unwrap_err().phase,
            crate::error::Phase::Depth
        );
        // A chain of operators is built by a loop, one level per operator.
        let chain = |k: usize| main_returning(&format!("n{}", " + 1".repeat(k)));
        parse(&chain(MAX_NESTING / 2)).unwrap();
        assert_eq!(
            parse(&chain(50_000)).unwrap_err().phase,
            crate::error::Phase::Depth
        );
        // Patterns and types nest too.
        let pattern = format!(
            "type t {{ A; B(t) }}\nfun f(x: t): int {{ match x {{ {}A{} -> 0\n _ -> 1 }} }}",
            "B(".repeat(MAX_NESTING),
            ")".repeat(MAX_NESTING)
        );
        assert_eq!(
            parse(&pattern).unwrap_err().phase,
            crate::error::Phase::Depth
        );
        let ty = format!(
            "fun f(x: {}int{}): int {{ 0 }}",
            "ref<".repeat(MAX_NESTING),
            ">".repeat(MAX_NESTING)
        );
        assert_eq!(parse(&ty).unwrap_err().phase, crate::error::Phase::Depth);
    }
}
