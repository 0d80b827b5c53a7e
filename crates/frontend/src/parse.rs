//! Recursive-descent parser for the analyzed C subset, plus the simple
//! linker merging several translation units (paper Sect. 5.1).
//!
//! Typedefs, enum constants and struct tags are tracked during parsing;
//! array sizes are constant expressions evaluated immediately (the family's
//! hardware tables are declared with macro-computed sizes).

use crate::ast::*;
use crate::lex::{Token, TokenKind};
use astree_ir::{FloatKind, IntType, ScalarType};
use std::collections::HashMap;

/// A syntax error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one preprocessed translation unit.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
pub fn parse(tokens: &[Token]) -> Result<AstProgram, ParseError> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        typedefs: HashMap::new(),
        enum_consts: HashMap::new(),
        out: AstProgram::default(),
    };
    p.unit()?;
    Ok(p.out)
}

/// Links several parsed units into one (the paper's "simple linker").
///
/// Struct definitions must agree; `extern` declarations merge with their
/// definitions; function prototypes merge with their bodies; duplicate
/// definitions are errors.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the conflict.
pub fn link(units: Vec<AstProgram>) -> Result<AstProgram, ParseError> {
    let mut out = AstProgram::default();
    // Name → position in `out`: one probe per declaration, not a scan of
    // everything merged so far (a paper-scale program has ~22 k globals).
    let mut structs: HashMap<String, usize> = HashMap::new();
    let mut globals: HashMap<String, usize> = HashMap::new();
    let mut funcs: HashMap<String, usize> = HashMap::new();
    for unit in units {
        for (tag, fields) in unit.structs {
            match structs.get(&tag) {
                None => {
                    structs.insert(tag.clone(), out.structs.len());
                    out.structs.push((tag, fields));
                }
                Some(&i) if out.structs[i].1 == fields => {}
                Some(_) => {
                    return Err(ParseError {
                        line: 0,
                        msg: format!("conflicting definitions of struct {tag}"),
                    })
                }
            }
        }
        for g in unit.globals {
            let Some(&i) = globals.get(&g.name) else {
                globals.insert(g.name.clone(), out.globals.len());
                out.globals.push(g);
                continue;
            };
            let existing = &mut out.globals[i];
            if existing.ty != g.ty {
                return Err(ParseError {
                    line: g.line,
                    msg: format!("conflicting types for global {}", g.name),
                });
            }
            match (&existing.init, &g.init) {
                (Some(_), Some(_)) => {
                    return Err(ParseError {
                        line: g.line,
                        msg: format!("multiple initializations of {}", g.name),
                    })
                }
                (None, Some(_)) => {
                    existing.init = g.init;
                    existing.is_extern = existing.is_extern && g.is_extern;
                }
                _ => {}
            }
        }
        for f in unit.funcs {
            let Some(&i) = funcs.get(&f.name) else {
                funcs.insert(f.name.clone(), out.funcs.len());
                out.funcs.push(f);
                continue;
            };
            let existing = &mut out.funcs[i];
            if existing.params.len() != f.params.len() || existing.ret != f.ret {
                return Err(ParseError {
                    line: f.line,
                    msg: format!("conflicting declarations of function {}", f.name),
                });
            }
            match (&existing.body, f.body) {
                (Some(_), Some(_)) => {
                    return Err(ParseError {
                        line: f.line,
                        msg: format!("multiple definitions of function {}", f.name),
                    })
                }
                (None, Some(b)) => {
                    existing.params = f.params;
                    existing.body = Some(b);
                }
                _ => {}
            }
        }
    }
    Ok(out)
}

const KEYWORDS: &[&str] = &[
    "void", "char", "short", "int", "long", "float", "double", "signed", "unsigned", "_Bool",
    "struct", "enum", "union", "typedef", "static", "extern", "const", "volatile", "register",
    "if", "else", "while", "do", "for", "return", "break", "continue", "switch", "case", "default",
    "goto", "sizeof", "inline",
];

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    typedefs: HashMap<String, AstType>,
    enum_consts: HashMap<String, i64>,
    out: AstProgram,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), msg: msg.into() }
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map_or(0, |t| t.line)
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn peek_at(&self, off: usize) -> Option<&TokenKind> {
        self.toks.get(self.pos + off).map(|t| &t.kind)
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Punct(q)) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn at_ident(&self, name: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s == name)
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.at_ident(name) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) if !KEYWORDS.contains(&s.as_str()) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    /// `true` when the token at `pos + off` starts a type.
    fn is_type_start_at(&self, off: usize) -> bool {
        match self.peek_at(off) {
            Some(TokenKind::Ident(s)) => {
                matches!(
                    s.as_str(),
                    "void"
                        | "char"
                        | "short"
                        | "int"
                        | "long"
                        | "float"
                        | "double"
                        | "signed"
                        | "unsigned"
                        | "_Bool"
                        | "struct"
                        | "enum"
                        | "const"
                        | "volatile"
                ) || self.typedefs.contains_key(s)
            }
            _ => false,
        }
    }

    fn is_type_start(&self) -> bool {
        self.is_type_start_at(0)
    }

    // ----- top level ---------------------------------------------------

    fn unit(&mut self) -> Result<(), ParseError> {
        while self.peek().is_some() {
            self.top_decl()?;
        }
        Ok(())
    }

    fn top_decl(&mut self) -> Result<(), ParseError> {
        let line = self.line();
        if self.eat_ident("typedef") {
            let base = self.parse_type()?.0;
            let (name, ty) = self.declarator(base)?;
            self.expect_punct(";")?;
            self.typedefs.insert(name, ty);
            return Ok(());
        }
        // enum definition (possibly anonymous) used purely for constants.
        if self.at_ident("enum") && !self.is_enum_type_ref() {
            self.parse_enum_def()?;
            self.expect_punct(";")?;
            return Ok(());
        }
        // struct definition without declarator: struct S { ... };
        if self.at_ident("struct")
            && matches!(self.peek_at(1), Some(TokenKind::Ident(_)))
            && matches!(self.peek_at(2), Some(TokenKind::Punct("{")))
        {
            self.parse_struct_def()?;
            self.expect_punct(";")?;
            return Ok(());
        }
        // storage class and qualifiers
        let mut is_static = false;
        let mut is_extern = false;
        let mut is_volatile = false;
        loop {
            if self.eat_ident("static") {
                is_static = true;
            } else if self.eat_ident("extern") {
                is_extern = true;
            } else if self.eat_ident("inline") {
                // accepted, ignored
            } else {
                break;
            }
        }
        let (base, vol) = self.parse_type()?;
        is_volatile |= vol;
        let (name, ty) = self.declarator(base)?;
        if self.at_punct("(") {
            // function
            self.expect_punct("(")?;
            let mut params = Vec::new();
            if self.eat_ident("void") {
                // (void)
            } else if !self.at_punct(")") {
                loop {
                    let (pbase, _) = self.parse_type()?;
                    let (pname, pty) = self.declarator(pbase)?;
                    params.push((pname, pty));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            }
            self.expect_punct(")")?;
            if self.eat_punct(";") {
                self.out.funcs.push(FuncDecl { name, ret: ty, params, body: None, line });
                return Ok(());
            }
            self.expect_punct("{")?;
            let body = self.block_items()?;
            self.expect_punct("}")?;
            self.out.funcs.push(FuncDecl { name, ret: ty, params, body: Some(body), line });
            return Ok(());
        }
        // global variable(s)
        let mut name = name;
        let mut ty = ty;
        loop {
            let init = if self.eat_punct("=") { Some(self.initializer()?) } else { None };
            self.out.globals.push(GlobalDecl {
                name,
                ty,
                is_static,
                is_volatile,
                is_extern,
                init,
                line,
            });
            if self.eat_punct(",") {
                let base = self.out.globals.last().expect("just pushed").ty.clone();
                // Re-derive the base type: strip array suffixes added by the
                // previous declarator (C allows `int a[2], b;`).
                let base = strip_declarator_suffixes(base);
                let (n2, t2) = self.declarator(base)?;
                name = n2;
                ty = t2;
                continue;
            }
            self.expect_punct(";")?;
            return Ok(());
        }
    }

    /// `true` if `enum` here is a type reference (enum X ident) rather than a
    /// definition (enum [tag] { ... }).
    fn is_enum_type_ref(&self) -> bool {
        matches!(self.peek_at(1), Some(TokenKind::Ident(_)))
            && !matches!(self.peek_at(2), Some(TokenKind::Punct("{")))
            && !matches!(self.peek_at(1), Some(TokenKind::Punct("{")))
    }

    fn parse_enum_def(&mut self) -> Result<(), ParseError> {
        assert!(self.eat_ident("enum"));
        // optional tag
        if matches!(self.peek(), Some(TokenKind::Ident(s)) if !KEYWORDS.contains(&s.as_str())) {
            self.pos += 1;
        }
        self.expect_punct("{")?;
        let mut next = 0i64;
        loop {
            if self.eat_punct("}") {
                break;
            }
            let name = self.expect_ident()?;
            if self.eat_punct("=") {
                let e = self.ternary_expr()?;
                next = self.eval_const(&e)?;
            }
            self.enum_consts.insert(name, next);
            next += 1;
            if !self.eat_punct(",") {
                self.expect_punct("}")?;
                break;
            }
        }
        Ok(())
    }

    fn parse_struct_def(&mut self) -> Result<String, ParseError> {
        assert!(self.eat_ident("struct"));
        let tag = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        while !self.eat_punct("}") {
            let (base, _) = self.parse_type()?;
            loop {
                let (fname, fty) = self.declarator(base.clone())?;
                fields.push((fname, fty));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
        }
        if self.out.structs.iter().any(|(t, _)| *t == tag) {
            return Err(self.err(format!("duplicate struct {tag}")));
        }
        self.out.structs.push((tag.clone(), fields));
        Ok(tag)
    }

    /// Parses type specifiers and qualifiers; returns the type and whether
    /// `volatile` appeared.
    #[allow(clippy::while_let_loop)] // the specifier loop has several distinct exits
    fn parse_type(&mut self) -> Result<(AstType, bool), ParseError> {
        let mut volatile = false;
        let mut signedness: Option<bool> = None;
        let mut base: Option<AstType> = None;
        let mut long_count = 0u8;
        let mut int_seen = false;
        loop {
            match self.peek() {
                Some(TokenKind::Ident(s)) => match s.as_str() {
                    "const" | "register" => {
                        self.pos += 1;
                    }
                    "volatile" => {
                        volatile = true;
                        self.pos += 1;
                    }
                    "signed" => {
                        signedness = Some(true);
                        self.pos += 1;
                    }
                    "unsigned" => {
                        signedness = Some(false);
                        self.pos += 1;
                    }
                    "void" => {
                        base = Some(AstType::Void);
                        self.pos += 1;
                    }
                    "char" => {
                        base = Some(AstType::Scalar(ScalarType::Int(IntType::UCHAR)));
                        self.pos += 1;
                    }
                    "short" => {
                        base = Some(AstType::Scalar(ScalarType::Int(IntType::SHORT)));
                        self.pos += 1;
                    }
                    "int" => {
                        int_seen = true;
                        if base.is_none() {
                            base = Some(AstType::Scalar(ScalarType::Int(IntType::INT)));
                        }
                        self.pos += 1;
                    }
                    "long" => {
                        long_count += 1;
                        if base.is_none() {
                            base = Some(AstType::Scalar(ScalarType::Int(IntType::INT)));
                        }
                        self.pos += 1;
                    }
                    "float" => {
                        base = Some(AstType::Scalar(ScalarType::Float(FloatKind::F32)));
                        self.pos += 1;
                    }
                    "double" => {
                        base = Some(AstType::Scalar(ScalarType::Float(FloatKind::F64)));
                        self.pos += 1;
                    }
                    "_Bool" => {
                        base = Some(AstType::Scalar(ScalarType::Int(IntType::BOOL)));
                        self.pos += 1;
                    }
                    "struct" => {
                        if matches!(self.peek_at(2), Some(TokenKind::Punct("{"))) {
                            let tag = self.parse_struct_def()?;
                            base = Some(AstType::Struct(tag));
                        } else {
                            self.pos += 1;
                            let tag = self.expect_ident()?;
                            base = Some(AstType::Struct(tag));
                        }
                    }
                    "enum" => {
                        if self.is_enum_type_ref() {
                            self.pos += 2; // enum Tag
                        } else {
                            self.parse_enum_def()?;
                        }
                        base = Some(AstType::Scalar(ScalarType::Int(IntType::INT)));
                    }
                    "union" => return Err(self.err("unions are not in the analyzed subset")),
                    name if self.typedefs.contains_key(name)
                        && base.is_none()
                        && signedness.is_none() =>
                    {
                        base = Some(self.typedefs[name].clone());
                        self.pos += 1;
                        break; // a typedef name is a complete type
                    }
                    _ => break,
                },
                _ => break,
            }
            if long_count >= 2 {
                return Err(self.err("long long is not in the analyzed subset (32-bit target)"));
            }
        }
        let _ = int_seen;
        let mut ty = base.ok_or_else(|| {
            if signedness.is_some() {
                // bare `signed` / `unsigned` means int
                return ParseError { line: 0, msg: String::new() };
            }
            self.err("expected type")
        });
        if ty.is_err() && signedness.is_some() {
            ty = Ok(AstType::Scalar(ScalarType::Int(IntType::INT)));
        }
        let mut ty = ty?;
        // Apply signedness to integer bases.
        if let (Some(sig), AstType::Scalar(ScalarType::Int(it))) = (signedness, &ty) {
            let bits = if it.bits == 1 { 8 } else { it.bits };
            ty = AstType::Scalar(ScalarType::Int(IntType { bits, signed: sig }));
        } else if let AstType::Scalar(ScalarType::Int(it)) = &ty {
            // plain char is unsigned on the target; plain short/int/long signed
            if it.bits != 8 && it.bits != 1 {
                ty = AstType::Scalar(ScalarType::Int(IntType { bits: it.bits, signed: true }));
            }
        }
        // trailing qualifiers (e.g. `int volatile`)
        loop {
            if self.eat_ident("volatile") {
                volatile = true;
            } else if self.eat_ident("const") {
            } else {
                break;
            }
        }
        Ok((ty, volatile))
    }

    /// Parses `'*'* name ('[' const ']')*` and applies it to `base`.
    fn declarator(&mut self, base: AstType) -> Result<(String, AstType), ParseError> {
        let mut ptr_depth = 0;
        while self.eat_punct("*") {
            ptr_depth += 1;
        }
        if ptr_depth > 1 {
            return Err(self.err("multi-level pointers are not in the analyzed subset"));
        }
        let name = self.expect_ident()?;
        let mut ty = base;
        let mut sizes = Vec::new();
        while self.eat_punct("[") {
            let e = self.ternary_expr()?;
            let n = self.eval_const(&e)?;
            if n <= 0 {
                return Err(self.err("array size must be positive"));
            }
            sizes.push(n as usize);
            self.expect_punct("]")?;
        }
        for n in sizes.into_iter().rev() {
            ty = AstType::Array(Box::new(ty), n);
        }
        if ptr_depth == 1 {
            ty = AstType::Pointer(Box::new(ty));
        }
        Ok((name, ty))
    }

    fn initializer(&mut self) -> Result<Init, ParseError> {
        if self.eat_punct("{") {
            let mut items = Vec::new();
            loop {
                if self.eat_punct("}") {
                    break;
                }
                items.push(self.initializer()?);
                if !self.eat_punct(",") {
                    self.expect_punct("}")?;
                    break;
                }
            }
            Ok(Init::List(items))
        } else {
            Ok(Init::Scalar(self.ternary_expr()?))
        }
    }

    // ----- statements ---------------------------------------------------

    fn block_items(&mut self) -> Result<Vec<AstStmt>, ParseError> {
        let mut out = Vec::new();
        while !self.at_punct("}") {
            if self.peek().is_none() {
                return Err(self.err("unexpected end of input in block"));
            }
            out.push(self.statement()?);
        }
        Ok(out)
    }

    fn statement(&mut self) -> Result<AstStmt, ParseError> {
        let line = self.line();
        // local declaration
        if self.at_ident("static") || self.is_type_start() || self.at_ident("typedef") {
            if self.eat_ident("typedef") {
                let base = self.parse_type()?.0;
                let (name, ty) = self.declarator(base)?;
                self.expect_punct(";")?;
                self.typedefs.insert(name, ty);
                return Ok(AstStmt { kind: StmtKindAst::Empty, line });
            }
            let is_static = self.eat_ident("static");
            let (base, _) = self.parse_type()?;
            // Could still be a struct def used as a statement? Not supported.
            let mut decls = Vec::new();
            loop {
                let (name, ty) = self.declarator(base.clone())?;
                let init = if self.eat_punct("=") { Some(self.initializer()?) } else { None };
                decls.push(AstStmt { kind: StmtKindAst::Decl(name, ty, is_static, init), line });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
            return Ok(if decls.len() == 1 {
                decls.pop().expect("one")
            } else {
                AstStmt { kind: StmtKindAst::Block(decls), line }
            });
        }
        if self.eat_ident("if") {
            self.expect_punct("(")?;
            let c = self.ternary_expr()?;
            self.expect_punct(")")?;
            let then_b = self.stmt_as_block()?;
            let else_b = if self.eat_ident("else") { self.stmt_as_block()? } else { Vec::new() };
            return Ok(AstStmt { kind: StmtKindAst::If(c, then_b, else_b), line });
        }
        if self.eat_ident("while") {
            self.expect_punct("(")?;
            let c = self.ternary_expr()?;
            self.expect_punct(")")?;
            let body = self.stmt_as_block()?;
            return Ok(AstStmt { kind: StmtKindAst::While(c, body), line });
        }
        if self.eat_ident("do") {
            let body = self.stmt_as_block()?;
            if !self.eat_ident("while") {
                return Err(self.err("expected `while` after do-body"));
            }
            self.expect_punct("(")?;
            let c = self.ternary_expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(AstStmt { kind: StmtKindAst::DoWhile(body, c), line });
        }
        if self.eat_ident("for") {
            self.expect_punct("(")?;
            let init = if self.at_punct(";") { None } else { Some(self.assignment_expr()?) };
            self.expect_punct(";")?;
            let cond = if self.at_punct(";") { None } else { Some(self.ternary_expr()?) };
            self.expect_punct(";")?;
            let step = if self.at_punct(")") { None } else { Some(self.assignment_expr()?) };
            self.expect_punct(")")?;
            let body = self.stmt_as_block()?;
            return Ok(AstStmt { kind: StmtKindAst::For(init, cond, step, body), line });
        }
        if self.eat_ident("return") {
            let e = if self.at_punct(";") { None } else { Some(self.ternary_expr()?) };
            self.expect_punct(";")?;
            return Ok(AstStmt { kind: StmtKindAst::Return(e), line });
        }
        if self.at_ident("break")
            || self.at_ident("continue")
            || self.at_ident("goto")
            || self.at_ident("switch")
        {
            return Err(self.err("break/continue/goto/switch are not in the analyzed subset"));
        }
        if self.eat_punct("{") {
            let body = self.block_items()?;
            self.expect_punct("}")?;
            return Ok(AstStmt { kind: StmtKindAst::Block(body), line });
        }
        if self.eat_punct(";") {
            return Ok(AstStmt { kind: StmtKindAst::Empty, line });
        }
        let e = self.assignment_expr()?;
        self.expect_punct(";")?;
        Ok(AstStmt { kind: StmtKindAst::Expr(e), line })
    }

    fn stmt_as_block(&mut self) -> Result<Vec<AstStmt>, ParseError> {
        if self.eat_punct("{") {
            let b = self.block_items()?;
            self.expect_punct("}")?;
            Ok(b)
        } else {
            Ok(vec![self.statement()?])
        }
    }

    // ----- expressions ---------------------------------------------------

    fn assignment_expr(&mut self) -> Result<AstExpr, ParseError> {
        let line = self.line();
        let lhs = self.ternary_expr()?;
        let op = match self.peek() {
            Some(TokenKind::Punct("=")) => None,
            Some(TokenKind::Punct("+=")) => Some(BinopKind::Add),
            Some(TokenKind::Punct("-=")) => Some(BinopKind::Sub),
            Some(TokenKind::Punct("*=")) => Some(BinopKind::Mul),
            Some(TokenKind::Punct("/=")) => Some(BinopKind::Div),
            Some(TokenKind::Punct("%=")) => Some(BinopKind::Rem),
            Some(TokenKind::Punct("&=")) => Some(BinopKind::BAnd),
            Some(TokenKind::Punct("|=")) => Some(BinopKind::BOr),
            Some(TokenKind::Punct("^=")) => Some(BinopKind::BXor),
            Some(TokenKind::Punct("<<=")) => Some(BinopKind::Shl),
            Some(TokenKind::Punct(">>=")) => Some(BinopKind::Shr),
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.assignment_expr()?;
        let kind = match op {
            None => ExprKind::Assign(Box::new(lhs), Box::new(rhs)),
            Some(op) => ExprKind::CompoundAssign(op, Box::new(lhs), Box::new(rhs)),
        };
        Ok(AstExpr { kind, line })
    }

    fn ternary_expr(&mut self) -> Result<AstExpr, ParseError> {
        let line = self.line();
        let c = self.binary_expr(0)?;
        if self.eat_punct("?") {
            let a = self.ternary_expr()?;
            self.expect_punct(":")?;
            let b = self.ternary_expr()?;
            Ok(AstExpr { kind: ExprKind::Ternary(Box::new(c), Box::new(a), Box::new(b)), line })
        } else {
            Ok(c)
        }
    }

    /// Precedence-climbing binary expression parser.
    #[allow(clippy::while_let_loop)] // the operator match doubles as the exit test
    fn binary_expr(&mut self, min_prec: u8) -> Result<AstExpr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                Some(TokenKind::Punct(p)) => match *p {
                    "||" => (BinopKind::LOr, 1),
                    "&&" => (BinopKind::LAnd, 2),
                    "|" => (BinopKind::BOr, 3),
                    "^" => (BinopKind::BXor, 4),
                    "&" => (BinopKind::BAnd, 5),
                    "==" => (BinopKind::Eq, 6),
                    "!=" => (BinopKind::Ne, 6),
                    "<" => (BinopKind::Lt, 7),
                    "<=" => (BinopKind::Le, 7),
                    ">" => (BinopKind::Gt, 7),
                    ">=" => (BinopKind::Ge, 7),
                    "<<" => (BinopKind::Shl, 8),
                    ">>" => (BinopKind::Shr, 8),
                    "+" => (BinopKind::Add, 9),
                    "-" => (BinopKind::Sub, 9),
                    "*" => (BinopKind::Mul, 10),
                    "/" => (BinopKind::Div, 10),
                    "%" => (BinopKind::Rem, 10),
                    _ => break,
                },
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.pos += 1;
            let rhs = self.binary_expr(prec + 1)?;
            lhs = AstExpr { kind: ExprKind::Binop(op, Box::new(lhs), Box::new(rhs)), line };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<AstExpr, ParseError> {
        let line = self.line();
        if self.eat_punct("-") {
            let e = self.unary_expr()?;
            return Ok(AstExpr { kind: ExprKind::Unop(UnopKind::Neg, Box::new(e)), line });
        }
        if self.eat_punct("+") {
            return self.unary_expr();
        }
        if self.eat_punct("!") {
            let e = self.unary_expr()?;
            return Ok(AstExpr { kind: ExprKind::Unop(UnopKind::LNot, Box::new(e)), line });
        }
        if self.eat_punct("~") {
            let e = self.unary_expr()?;
            return Ok(AstExpr { kind: ExprKind::Unop(UnopKind::BNot, Box::new(e)), line });
        }
        if self.eat_punct("*") {
            let e = self.unary_expr()?;
            return Ok(AstExpr { kind: ExprKind::Deref(Box::new(e)), line });
        }
        if self.eat_punct("&") {
            let e = self.unary_expr()?;
            return Ok(AstExpr { kind: ExprKind::AddrOf(Box::new(e)), line });
        }
        if self.eat_punct("++") {
            let e = self.unary_expr()?;
            let one = AstExpr { kind: ExprKind::Int(1, false), line };
            return Ok(AstExpr {
                kind: ExprKind::CompoundAssign(BinopKind::Add, Box::new(e), Box::new(one)),
                line,
            });
        }
        if self.eat_punct("--") {
            let e = self.unary_expr()?;
            let one = AstExpr { kind: ExprKind::Int(1, false), line };
            return Ok(AstExpr {
                kind: ExprKind::CompoundAssign(BinopKind::Sub, Box::new(e), Box::new(one)),
                line,
            });
        }
        // cast: '(' type ')' unary
        if self.at_punct("(") && self.is_type_start_at(1) {
            self.expect_punct("(")?;
            let (ty, _) = self.parse_type()?;
            // abstract declarator: allow '*'? not supported beyond scalar casts
            self.expect_punct(")")?;
            let e = self.unary_expr()?;
            return Ok(AstExpr { kind: ExprKind::Cast(ty, Box::new(e)), line });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<AstExpr, ParseError> {
        let line = self.line();
        let mut e = self.primary_expr()?;
        loop {
            if self.eat_punct("[") {
                let idx = self.ternary_expr()?;
                self.expect_punct("]")?;
                e = AstExpr { kind: ExprKind::Index(Box::new(e), Box::new(idx)), line };
            } else if self.eat_punct(".") {
                let f = self.expect_ident()?;
                e = AstExpr { kind: ExprKind::Field(Box::new(e), f), line };
            } else if self.eat_punct("->") {
                let f = self.expect_ident()?;
                e = AstExpr { kind: ExprKind::Arrow(Box::new(e), f), line };
            } else if self.at_punct("++") || self.at_punct("--") {
                let op = if self.eat_punct("++") {
                    BinopKind::Add
                } else {
                    self.pos += 1;
                    BinopKind::Sub
                };
                let one = AstExpr { kind: ExprKind::Int(1, false), line };
                e = AstExpr {
                    kind: ExprKind::CompoundAssign(op, Box::new(e), Box::new(one)),
                    line,
                };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<AstExpr, ParseError> {
        let line = self.line();
        match self.peek().cloned() {
            Some(TokenKind::IntLit(v, u)) => {
                self.pos += 1;
                Ok(AstExpr { kind: ExprKind::Int(v, u), line })
            }
            Some(TokenKind::FloatLit(v, f)) => {
                self.pos += 1;
                Ok(AstExpr { kind: ExprKind::Float(v, f), line })
            }
            Some(TokenKind::CharLit(v)) => {
                self.pos += 1;
                Ok(AstExpr { kind: ExprKind::Int(v, false), line })
            }
            Some(TokenKind::Ident(name)) => {
                if KEYWORDS.contains(&name.as_str()) {
                    if name == "sizeof" {
                        return Err(self.err("sizeof is not in the analyzed subset"));
                    }
                    return Err(self.err(format!("unexpected keyword `{name}`")));
                }
                self.pos += 1;
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.at_punct(")") {
                        loop {
                            args.push(self.ternary_expr()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                    }
                    self.expect_punct(")")?;
                    return Ok(AstExpr { kind: ExprKind::Call(name, args), line });
                }
                if let Some(v) = self.enum_consts.get(&name) {
                    return Ok(AstExpr { kind: ExprKind::Int(*v, false), line });
                }
                Ok(AstExpr { kind: ExprKind::Ident(name), line })
            }
            Some(TokenKind::Punct("(")) => {
                self.pos += 1;
                let e = self.ternary_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    /// Evaluates a constant integer expression (array sizes, enum values).
    fn eval_const(&self, e: &AstExpr) -> Result<i64, ParseError> {
        let err =
            || ParseError { line: e.line, msg: "expected integer constant expression".into() };
        match &e.kind {
            ExprKind::Int(v, _) => Ok(*v),
            ExprKind::Ident(n) => self.enum_consts.get(n).copied().ok_or_else(err),
            ExprKind::Unop(UnopKind::Neg, a) => Ok(-self.eval_const(a)?),
            ExprKind::Unop(UnopKind::BNot, a) => Ok(!self.eval_const(a)?),
            ExprKind::Unop(UnopKind::LNot, a) => Ok((self.eval_const(a)? == 0) as i64),
            ExprKind::Binop(op, a, b) => {
                let x = self.eval_const(a)?;
                let y = self.eval_const(b)?;
                Ok(match op {
                    BinopKind::Add => x.wrapping_add(y),
                    BinopKind::Sub => x.wrapping_sub(y),
                    BinopKind::Mul => x.wrapping_mul(y),
                    BinopKind::Div => {
                        if y == 0 {
                            return Err(err());
                        }
                        x / y
                    }
                    BinopKind::Rem => {
                        if y == 0 {
                            return Err(err());
                        }
                        x % y
                    }
                    BinopKind::Shl => x.wrapping_shl(y as u32),
                    BinopKind::Shr => x.wrapping_shr(y as u32),
                    BinopKind::BAnd => x & y,
                    BinopKind::BOr => x | y,
                    BinopKind::BXor => x ^ y,
                    BinopKind::Lt => (x < y) as i64,
                    BinopKind::Le => (x <= y) as i64,
                    BinopKind::Gt => (x > y) as i64,
                    BinopKind::Ge => (x >= y) as i64,
                    BinopKind::Eq => (x == y) as i64,
                    BinopKind::Ne => (x != y) as i64,
                    BinopKind::LAnd => ((x != 0) && (y != 0)) as i64,
                    BinopKind::LOr => ((x != 0) || (y != 0)) as i64,
                })
            }
            ExprKind::Ternary(c, a, b) => {
                if self.eval_const(c)? != 0 {
                    self.eval_const(a)
                } else {
                    self.eval_const(b)
                }
            }
            ExprKind::Cast(_, a) => self.eval_const(a),
            _ => Err(err()),
        }
    }
}

/// Strips array suffixes from a declarator-applied type, recovering the base
/// for `int a[2], b;` style multi-declarators.
fn strip_declarator_suffixes(ty: AstType) -> AstType {
    match ty {
        AstType::Array(inner, _) => strip_declarator_suffixes(*inner),
        AstType::Pointer(inner) => strip_declarator_suffixes(*inner),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use std::collections::HashMap;

    fn parse_src(src: &str) -> AstProgram {
        let toks = preprocess(src, &HashMap::new(), &[]).unwrap();
        parse(&toks).unwrap()
    }

    fn parse_err(src: &str) -> ParseError {
        let toks = preprocess(src, &HashMap::new(), &[]).unwrap();
        parse(&toks).unwrap_err()
    }

    #[test]
    fn globals_and_arrays() {
        let p = parse_src("int x; static float table[4]; volatile int sensor;");
        assert_eq!(p.globals.len(), 3);
        assert!(p.globals[1].is_static);
        assert_eq!(
            p.globals[1].ty,
            AstType::Array(Box::new(AstType::Scalar(ScalarType::Float(FloatKind::F32))), 4)
        );
        assert!(p.globals[2].is_volatile);
    }

    #[test]
    fn multi_declarators_share_base() {
        let p = parse_src("int a[2], b;");
        assert_eq!(
            p.globals[0].ty,
            AstType::Array(Box::new(AstType::Scalar(ScalarType::Int(IntType::INT))), 2)
        );
        assert_eq!(p.globals[1].ty, AstType::Scalar(ScalarType::Int(IntType::INT)));
    }

    #[test]
    fn function_with_body() {
        let p = parse_src("int add(int a, int b) { return a + b; }");
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].params.len(), 2);
        assert!(p.funcs[0].body.is_some());
    }

    #[test]
    fn typedef_resolves() {
        let p = parse_src("typedef unsigned char BYTE; BYTE b;");
        assert_eq!(p.globals[0].ty, AstType::Scalar(ScalarType::Int(IntType::UCHAR)));
    }

    #[test]
    fn enum_constants_fold() {
        let p = parse_src("enum { A, B = 5, C }; int x[C];");
        assert_eq!(
            p.globals[0].ty,
            AstType::Array(Box::new(AstType::Scalar(ScalarType::Int(IntType::INT))), 6)
        );
    }

    #[test]
    fn struct_definition_and_use() {
        let p = parse_src("struct P { int x; float y; }; struct P point;");
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.globals[0].ty, AstType::Struct("P".into()));
    }

    #[test]
    fn statements_parse() {
        let p = parse_src(
            "void main(void) { int i; i = 0; while (i < 10) { i = i + 1; } if (i == 10) { i = 0; } else { i = 1; } }",
        );
        let body = p.funcs[0].body.as_ref().unwrap();
        assert_eq!(body.len(), 4);
        assert!(matches!(body[2].kind, StmtKindAst::While(_, _)));
    }

    #[test]
    fn for_and_do_while() {
        let p = parse_src(
            "void f(void) { int i; for (i = 0; i < 4; i = i + 1) { } do { i = 0; } while (i); }",
        );
        let body = p.funcs[0].body.as_ref().unwrap();
        assert!(matches!(body[1].kind, StmtKindAst::For(..)));
        assert!(matches!(body[2].kind, StmtKindAst::DoWhile(..)));
    }

    #[test]
    fn precedence_is_c() {
        let p = parse_src("int x; void f(void) { x = 1 + 2 * 3; }");
        let body = p.funcs[0].body.as_ref().unwrap();
        if let StmtKindAst::Expr(AstExpr { kind: ExprKind::Assign(_, rhs), .. }) = &body[0].kind {
            if let ExprKind::Binop(BinopKind::Add, _, r) = &rhs.kind {
                assert!(matches!(r.kind, ExprKind::Binop(BinopKind::Mul, _, _)));
                return;
            }
        }
        panic!("wrong tree: {body:?}");
    }

    #[test]
    fn casts_and_ternary() {
        let p = parse_src("double d; int i; void f(void) { d = (double)i; i = i > 0 ? 1 : 2; }");
        let body = p.funcs[0].body.as_ref().unwrap();
        if let StmtKindAst::Expr(AstExpr { kind: ExprKind::Assign(_, rhs), .. }) = &body[0].kind {
            assert!(matches!(rhs.kind, ExprKind::Cast(_, _)));
        } else {
            panic!();
        }
    }

    #[test]
    fn compound_assign_and_incr() {
        let p = parse_src("int x; void f(void) { x += 2; x++; --x; }");
        let body = p.funcs[0].body.as_ref().unwrap();
        assert!(matches!(
            body[0].kind,
            StmtKindAst::Expr(AstExpr { kind: ExprKind::CompoundAssign(BinopKind::Add, _, _), .. })
        ));
    }

    #[test]
    fn by_ref_params() {
        let p = parse_src("void out(int *r) { *r = 1; } void main(void) { int x; out(&x); }");
        assert_eq!(
            p.funcs[0].params[0].1,
            AstType::Pointer(Box::new(AstType::Scalar(ScalarType::Int(IntType::INT))))
        );
    }

    #[test]
    fn rejects_unions_and_switch() {
        assert!(parse_err("union U { int a; };").msg.contains("union"));
        assert!(parse_err("void f(void) { switch (1) {} }").msg.contains("switch"));
    }

    #[test]
    fn rejects_long_long() {
        assert!(parse_err("long long x;").msg.contains("long long"));
    }

    #[test]
    fn rejects_negative_array() {
        assert!(parse_err("int a[-1];").msg.contains("positive"));
    }

    #[test]
    fn initializer_lists() {
        let p =
            parse_src("int a[3] = {1, 2, 3}; struct S { int x; int y; }; struct S s = { 4, 5 };");
        assert!(matches!(p.globals[0].init, Some(Init::List(_))));
    }

    #[test]
    fn link_merges_extern() {
        let a = parse_src("extern int shared; void f(void) { shared = 1; }");
        let b = parse_src("int shared = 0;");
        let m = link(vec![a, b]).unwrap();
        assert_eq!(m.globals.len(), 1);
        assert!(m.globals[0].init.is_some());
    }

    #[test]
    fn link_merges_prototypes() {
        let a = parse_src("int get(void); void main(void) { int x; x = get(); }");
        let b = parse_src("int get(void) { return 3; }");
        let m = link(vec![a, b]).unwrap();
        assert_eq!(m.funcs.iter().filter(|f| f.name == "get").count(), 1);
        assert!(m.funcs.iter().find(|f| f.name == "get").unwrap().body.is_some());
    }

    #[test]
    fn link_rejects_double_definition() {
        let a = parse_src("int f(void) { return 1; }");
        let b = parse_src("int f(void) { return 2; }");
        assert!(link(vec![a, b]).is_err());
    }

    /// The linker the indexed one replaced, kept as its reference: each
    /// declaration is looked up by a linear scan of everything merged so far.
    fn link_reference(units: Vec<AstProgram>) -> Result<AstProgram, ParseError> {
        let err = |line, msg: String| Err(ParseError { line, msg });
        let mut out = AstProgram::default();
        for unit in units {
            for (tag, fields) in unit.structs {
                match out.structs.iter().find(|(t, _)| *t == tag) {
                    None => out.structs.push((tag, fields)),
                    Some((_, existing)) if *existing == fields => {}
                    Some(_) => return err(0, format!("conflicting definitions of struct {tag}")),
                }
            }
            for g in unit.globals {
                let Some(existing) = out.globals.iter_mut().find(|o| o.name == g.name) else {
                    out.globals.push(g);
                    continue;
                };
                if existing.ty != g.ty {
                    return err(g.line, format!("conflicting types for global {}", g.name));
                }
                match (&existing.init, &g.init) {
                    (Some(_), Some(_)) => {
                        return err(g.line, format!("multiple initializations of {}", g.name))
                    }
                    (None, Some(_)) => {
                        existing.init = g.init;
                        existing.is_extern = existing.is_extern && g.is_extern;
                    }
                    _ => {}
                }
            }
            for f in unit.funcs {
                let Some(existing) = out.funcs.iter_mut().find(|o| o.name == f.name) else {
                    out.funcs.push(f);
                    continue;
                };
                if existing.params.len() != f.params.len() || existing.ret != f.ret {
                    return err(f.line, format!("conflicting declarations of function {}", f.name));
                }
                match (&existing.body, f.body) {
                    (Some(_), Some(_)) => {
                        return err(f.line, format!("multiple definitions of function {}", f.name))
                    }
                    (None, Some(b)) => {
                        existing.params = f.params;
                        existing.body = Some(b);
                    }
                    _ => {}
                }
            }
        }
        Ok(out)
    }

    #[test]
    fn indexed_link_is_the_reference() {
        let units = [
            "struct P { int x; }; extern int a; int b; extern float c; int get(int n); \
             void tick(void); void main(void) { a = get(b); tick(); }",
            "struct P { int x; }; struct Q { float y; }; int a = 3; extern int b; \
             void tick(void) { b = b + 1; } int get(int m);",
            "extern int a; float c = 1.5; int b = 2; extern int d; \
             int get(int k) { return k; } void tick(void);",
        ]
        .map(parse_src);
        let linked = link(units.to_vec()).unwrap();
        assert_eq!(linked, link_reference(units.to_vec()).unwrap());
        let names = |v: &[GlobalDecl]| v.iter().map(|g| g.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&linked.globals), ["a", "b", "c", "d"]);
        assert!(linked.globals.iter().take(3).all(|g| g.init.is_some() && !g.is_extern));
        assert_eq!(
            linked.funcs.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            ["get", "tick", "main"]
        );
        assert!(linked.funcs.iter().all(|f| f.body.is_some()));
        assert_eq!(linked.funcs[0].params[0].0, "k", "the definition's parameters win");

        for bad in [
            "struct P { float x; };",
            "float b;",
            "int a = 4;",
            "void tick(int n);",
            "void tick(void) { }",
        ] {
            let mut with_bad = units.to_vec();
            with_bad.push(parse_src(bad));
            let got = link(with_bad.clone()).unwrap_err();
            assert_eq!(got, link_reference(with_bad).unwrap_err(), "{bad}");
        }
    }

    #[test]
    fn comma_in_global_scope_keeps_volatile() {
        let p = parse_src("volatile int a, b;");
        assert!(p.globals[0].is_volatile && p.globals[1].is_volatile);
    }
}
