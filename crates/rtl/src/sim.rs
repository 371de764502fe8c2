//! A parser and evaluator for the combinational Verilog subset
//! [`crate::emit_verilog`] produces — the emitted *text* executed on
//! concrete bit-vectors, independent of the [`crate::Netlist`] it came
//! from.
//!
//! The structural golden model (`Netlist::evaluate`) shares code with
//! the emitter by construction, so agreement between the two proves
//! little about the Verilog itself. This module closes that gap: it
//! re-reads the emitted source like an external simulator would —
//! module header, port declarations, `wire` declarations, `assign`
//! continuous assignments, and the behavioural helper `function`s
//! (`sbox` case table, `xtime`, `gfmul` with its `for` loop) — and
//! evaluates it with Verilog-2001 width and sign semantics (context
//! sizing to the widest operand, signed comparison only when every
//! operand is signed, self-determined shift amounts, zero-filled
//! oversized shifts).
//!
//! [`parse_module`] elaborates each module once: names become slot and
//! function indices, and the continuous assigns a topological order
//! that [`VerilogModule::evaluate`] runs straight-line through the one
//! evaluator module expressions and function bodies share. Every fault
//! that does not depend on input values is a line-numbered [`SimError`]
//! from `parse_module`: syntax; undeclared, undriven, doubly driven or
//! looping nets; unknown functions and variables; wrong-arity or
//! recursive calls; over-deep nesting; concatenations over 64 bits.
//! `evaluate` rejects only a wrong-length input vector or a function
//! that exceeds its step budget (a runaway `for` loop).
//!
//! ```
//! use isegen_graph::NodeSet;
//! use isegen_ir::{BlockBuilder, Opcode};
//! use isegen_rtl::{emit_verilog, sim, Netlist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = BlockBuilder::new("k");
//! let x = b.input("x");
//! let y = b.input("y");
//! let m = b.op(Opcode::Mul, &[x, y])?;
//! let block = b.build()?;
//! let netlist = Netlist::from_cut(&block, &NodeSet::from_ids(3, [m]))?;
//! let text = emit_verilog(&netlist, "mul_afu")?;
//! let module = sim::parse_module(&text)?;
//! assert_eq!(module.evaluate(&[6, 7])?, netlist.evaluate(&[6, 7])?);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Hard bound on behavioural statements executed per function call —
/// `gfmul`'s loop runs 8 iterations of 3 statements, so this is three
/// orders of magnitude of headroom while keeping a corrupted loop
/// bound from pinning a worker thread.
const MAX_FUNCTION_STEPS: usize = 65_536;

/// Maximum nesting depth of parsed expressions and statements, and of
/// evaluation, where a call nests its callee's body under it.
const MAX_EXPR_DEPTH: usize = 256;

/// A simulation failure: parse errors, unknown signals, combinational
/// loops, width overflows — always with the source line it was
/// detected on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// 1-based source line of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl SimError {
    fn new(line: usize, message: impl Into<String>) -> SimError {
        SimError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verilog sim: line {}: {}", self.line, self.message)
    }
}

impl Error for SimError {}

// ---------------------------------------------------------------------
// Values: bit-vectors up to 64 bits with Verilog-2001 sign semantics.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Value {
    bits: u64,
    width: u32,
    signed: bool,
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl Value {
    fn new(bits: u64, width: u32, signed: bool) -> Value {
        Value {
            bits: bits & mask(width),
            width: width.min(64),
            signed,
        }
    }

    /// The value's bits zero- or sign-extended (by its *own* top bit)
    /// to `width`, used once the expression's sign has been decided.
    fn extended(self, width: u32, signed: bool) -> u64 {
        if signed && self.width < 64 && self.bits >> (self.width - 1) & 1 == 1 {
            (self.bits | !mask(self.width)) & mask(width)
        } else {
            self.bits
        }
    }

    /// Two's-complement interpretation at the value's own width.
    fn as_i64(self) -> i64 {
        if self.width < 64 && self.bits >> (self.width - 1) & 1 == 1 {
            (self.bits | !mask(self.width)) as i64
        } else {
            self.bits as i64
        }
    }

    fn is_true(self) -> bool {
        self.bits != 0
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// Identifier or keyword (includes `$signed`).
    Ident(String),
    /// A resolved literal: `8'h1b`, `6'd32`, `1'b0`, bare `42`.
    Number(Value),
    /// Operator or punctuation, longest-match.
    Punct(&'static str),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
}

const PUNCTS: [&str; 28] = [
    ">>>", "<<", ">>", "==", "!=", "<=", ">=", "(", ")", "[", "]", "{", "}", ",", ";", ":", "?",
    "=", "+", "-", "*", "~", "&", "|", "^", "<", ">", "!",
];

fn lex(text: &str) -> Result<Vec<Token>, SimError> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    'outer: while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'`' => {
                // Compiler directives (`timescale …`) span to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && matches!(bytes[i], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'$')
                {
                    i += 1;
                }
                tokens.push(Token {
                    tok: Tok::Ident(text[start..i].to_string()),
                    line,
                });
            }
            b'0'..=b'9' | b'\'' => {
                let start = i;
                let mut size_digits = String::new();
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    size_digits.push(bytes[i] as char);
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'\'' {
                    // Based literal: [size]'[bdh]digits
                    i += 1;
                    let width: u32 = if size_digits.is_empty() {
                        32
                    } else {
                        size_digits
                            .parse()
                            .map_err(|_| SimError::new(line, "literal size out of range"))?
                    };
                    if width == 0 || width > 64 {
                        return Err(SimError::new(
                            line,
                            format!("unsupported literal width {width} (1..=64)"),
                        ));
                    }
                    let radix = match bytes.get(i) {
                        Some(b'b' | b'B') => 2,
                        Some(b'd' | b'D') => 10,
                        Some(b'h' | b'H') => 16,
                        Some(b'o' | b'O') => 8,
                        _ => return Err(SimError::new(line, "bad literal base")),
                    };
                    i += 1;
                    let dstart = i;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    let digits: String = text[dstart..i].chars().filter(|&c| c != '_').collect();
                    if digits.is_empty() {
                        return Err(SimError::new(line, "literal needs digits"));
                    }
                    let bits = u64::from_str_radix(&digits, radix).map_err(|_| {
                        SimError::new(line, format!("bad literal {:?}", &text[start..i]))
                    })?;
                    if width < 64 && bits > mask(width) {
                        return Err(SimError::new(
                            line,
                            format!("literal {:?} does not fit its width", &text[start..i]),
                        ));
                    }
                    let tok = Tok::Number(Value::new(bits, width, false));
                    tokens.push(Token { tok, line });
                } else {
                    // Bare decimal: 32-bit signed (Verilog-2001).
                    let bits: u64 = size_digits
                        .parse::<u32>()
                        .map_err(|_| SimError::new(line, "decimal literal out of range"))?
                        .into();
                    let tok = Tok::Number(Value::new(bits, 32, true));
                    tokens.push(Token { tok, line });
                }
            }
            _ => {
                for p in PUNCTS {
                    if text[i..].starts_with(p) {
                        tokens.push(Token {
                            tok: Tok::Punct(p),
                            line,
                        });
                        i += p.len();
                        continue 'outer;
                    }
                }
                return Err(SimError::new(
                    line,
                    format!("unexpected character {:?}", c as char),
                ));
            }
        }
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

/// An identifier and what elaboration resolved it to: a slot for a net
/// or variable, an index into the module's functions for a callee.
#[derive(Debug, Clone, PartialEq)]
struct Name {
    text: String,
    index: usize,
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name { text, index: 0 }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Ident(Name),
    Literal(Value),
    /// `base[high:low]` with constant bounds.
    Select(Box<Expr>, u32, u32),
    /// `base[index]` with a computed index (`b[i]` in `gfmul`'s loop).
    Index(Box<Expr>, Box<Expr>),
    Concat(Vec<Expr>),
    Unary(&'static str, Box<Expr>),
    Binary(&'static str, Box<Expr>, Box<Expr>),
    /// `cond ? then : els`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `$signed(e)`.
    Signed(Box<Expr>),
    Call(Name, Vec<Expr>),
}

#[derive(Debug, Clone)]
enum Stmt {
    /// `target = expr;` (blocking assignment) on `line`.
    Assign(Name, Expr, usize),
    /// `if (cond) then else els`.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `for (init; cond; step) body` on `line`.
    For(Box<Stmt>, Expr, Box<Stmt>, Box<Stmt>, usize),
    /// `case (scrutinee) label: arm … default: arm endcase` on `line`.
    Case(Expr, Vec<(Expr, Stmt)>, Option<Box<Stmt>>, usize),
    Block(Vec<Stmt>),
}

/// A helper function. Its frame is its inputs, then its locals, then
/// the return variable (named like the function); a later declaration
/// shadows an earlier one of the same name.
#[derive(Debug, Clone)]
struct Function {
    name: String,
    ret_width: u32,
    /// `(name, width)` in declaration order.
    inputs: Vec<(String, u32)>,
    /// `(name, width, signed)` — `integer` locals are 32-bit signed.
    locals: Vec<(String, u32, bool)>,
    body: Vec<Stmt>,
    line: usize,
}

/// One elaborated combinational module, ready to evaluate on concrete
/// input vectors.
#[derive(Debug, Clone)]
pub struct VerilogModule {
    name: String,
    /// The initial value of every slot, which fixes its width: the input
    /// ports in declaration order, then one per continuous assign.
    slots: Vec<Value>,
    /// How many leading slots are input ports.
    input_count: usize,
    /// `(slot, width)` of each output port, in declaration order.
    outputs: Vec<(usize, u32)>,
    /// `(target, expr, line)` per continuous assign an output depends
    /// on, in topological order.
    assigns: Vec<(Name, Expr, usize)>,
    functions: Vec<Function>,
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// A literal usable as a constant bit index.
fn constant_index(e: &Expr) -> Option<u32> {
    match e {
        Expr::Literal(v) if v.bits <= 63 => Some(v.bits as u32),
        _ => None,
    }
}

impl Parser {
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(1, |t| t.line)
    }

    fn err(&self, message: impl Into<String>) -> SimError {
        SimError::new(self.line(), message)
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), SimError> {
        if self.at_punct(p) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}")))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SimError> {
        if self.at_keyword(kw) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, SimError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn expect_index(&mut self) -> Result<u32, SimError> {
        match self.bump() {
            Some(Tok::Number(v)) if v.bits <= 63 => Ok(v.bits as u32),
            _ => Err(self.err("expected bit index 0..=63")),
        }
    }

    /// `[high:low]` (or nothing → scalar width 1).
    fn range(&mut self) -> Result<u32, SimError> {
        if !self.at_punct("[") {
            return Ok(1);
        }
        self.pos += 1;
        let high = self.expect_index()?;
        self.expect_punct(":")?;
        let low = self.expect_index()?;
        self.expect_punct("]")?;
        if low != 0 || high < low {
            return Err(self.err("only [N:0] declarations are supported"));
        }
        Ok(high - low + 1)
    }

    // ----- expressions ------------------------------------------------

    fn expr(&mut self, depth: usize) -> Result<Expr, SimError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.err("expression nesting too deep"));
        }
        let cond = self.binary(0, depth)?;
        if self.at_punct("?") {
            self.pos += 1;
            let then = self.expr(depth + 1)?;
            self.expect_punct(":")?;
            let els = self.expr(depth + 1)?;
            return Ok(Expr::Ternary(Box::new(cond), Box::new(then), Box::new(els)));
        }
        Ok(cond)
    }

    /// Binary operators by precedence level (loosest first).
    fn binary(&mut self, level: usize, depth: usize) -> Result<Expr, SimError> {
        const LEVELS: [&[&str]; 6] = [
            &["|"],
            &["^"],
            &["&"],
            &["==", "!="],
            &["<", "<=", ">", ">="],
            &["<<", ">>", ">>>"],
        ];
        if level == LEVELS.len() {
            return self.additive(depth);
        }
        let mut lhs = self.binary(level + 1, depth + 1)?;
        while let Some(Tok::Punct(p)) = self.peek() {
            let Some(&op) = LEVELS[level].iter().find(|&&q| q == *p) else {
                break;
            };
            self.pos += 1;
            let rhs = self.binary(level + 1, depth + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn additive(&mut self, depth: usize) -> Result<Expr, SimError> {
        let mut lhs = self.multiplicative(depth)?;
        while let Some(Tok::Punct(p @ ("+" | "-"))) = self.peek() {
            let op = *p;
            self.pos += 1;
            let rhs = self.multiplicative(depth)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self, depth: usize) -> Result<Expr, SimError> {
        let mut lhs = self.unary(depth)?;
        while let Some(Tok::Punct(p @ "*")) = self.peek() {
            let op = *p;
            self.pos += 1;
            let rhs = self.unary(depth)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self, depth: usize) -> Result<Expr, SimError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.err("expression nesting too deep"));
        }
        if let Some(Tok::Punct(p @ ("~" | "-" | "!"))) = self.peek() {
            let op = *p;
            self.pos += 1;
            let operand = self.unary(depth + 1)?;
            return Ok(Expr::Unary(op, Box::new(operand)));
        }
        self.primary(depth)
    }

    fn primary(&mut self, depth: usize) -> Result<Expr, SimError> {
        let base = match self.peek().cloned() {
            Some(Tok::Number(value)) => {
                self.pos += 1;
                Expr::Literal(value)
            }
            Some(Tok::Punct("(")) => {
                self.pos += 1;
                let inner = self.expr(depth + 1)?;
                self.expect_punct(")")?;
                inner
            }
            Some(Tok::Punct("{")) => {
                self.pos += 1;
                let mut parts = Vec::new();
                loop {
                    parts.push(self.expr(depth + 1)?);
                    if self.at_punct(",") {
                        self.pos += 1;
                        continue;
                    }
                    self.expect_punct("}")?;
                    break;
                }
                Expr::Concat(parts)
            }
            Some(Tok::Ident(name)) if name == "$signed" => {
                self.pos += 1;
                self.expect_punct("(")?;
                let inner = self.expr(depth + 1)?;
                self.expect_punct(")")?;
                Expr::Signed(Box::new(inner))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                if self.at_punct("(") {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.at_punct(")") {
                        loop {
                            args.push(self.expr(depth + 1)?);
                            if self.at_punct(",") {
                                self.pos += 1;
                                continue;
                            }
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                    Expr::Call(name.into(), args)
                } else {
                    Expr::Ident(name.into())
                }
            }
            _ => return Err(self.err("expected expression")),
        };
        // Bit / part select on the base.
        if self.at_punct("[") {
            self.pos += 1;
            let first = self.expr(depth + 1)?;
            if self.at_punct(":") {
                // Part selects need constant bounds.
                self.pos += 1;
                let high =
                    constant_index(&first).ok_or_else(|| self.err("expected bit index 0..=63"))?;
                let second = self.expr(depth + 1)?;
                let low =
                    constant_index(&second).ok_or_else(|| self.err("expected bit index 0..=63"))?;
                self.expect_punct("]")?;
                if high < low {
                    return Err(self.err("descending part select required"));
                }
                return Ok(Expr::Select(Box::new(base), high, low));
            }
            self.expect_punct("]")?;
            // Constant single-bit selects fold to a Select; computed
            // indices stay dynamic.
            if let Some(bit) = constant_index(&first) {
                return Ok(Expr::Select(Box::new(base), bit, bit));
            }
            return Ok(Expr::Index(Box::new(base), Box::new(first)));
        }
        Ok(base)
    }

    // ----- statements (function bodies) -------------------------------

    fn statement(&mut self, depth: usize) -> Result<Stmt, SimError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.err("statement nesting too deep"));
        }
        let line = self.line();
        if self.at_keyword("begin") {
            self.pos += 1;
            let mut stmts = Vec::new();
            while !self.at_keyword("end") {
                if self.peek().is_none() {
                    return Err(self.err("unterminated begin block"));
                }
                stmts.push(self.statement(depth + 1)?);
            }
            self.pos += 1; // end
            return Ok(Stmt::Block(stmts));
        }
        if self.at_keyword("if") {
            self.pos += 1;
            self.expect_punct("(")?;
            let cond = self.expr(0)?;
            self.expect_punct(")")?;
            let then = Box::new(self.statement(depth + 1)?);
            let els = if self.at_keyword("else") {
                self.pos += 1;
                Some(Box::new(self.statement(depth + 1)?))
            } else {
                None
            };
            return Ok(Stmt::If(cond, then, els));
        }
        if self.at_keyword("for") {
            self.pos += 1;
            self.expect_punct("(")?;
            let init = Box::new(self.simple_assign()?);
            self.expect_punct(";")?;
            let cond = self.expr(0)?;
            self.expect_punct(";")?;
            let step = Box::new(self.simple_assign()?);
            self.expect_punct(")")?;
            let body = Box::new(self.statement(depth + 1)?);
            return Ok(Stmt::For(init, cond, step, body, line));
        }
        if self.at_keyword("case") {
            self.pos += 1;
            self.expect_punct("(")?;
            let scrutinee = self.expr(0)?;
            self.expect_punct(")")?;
            let mut arms = Vec::new();
            let mut default = None;
            while !self.at_keyword("endcase") {
                if self.peek().is_none() {
                    return Err(self.err("unterminated case"));
                }
                if self.at_keyword("default") {
                    self.pos += 1;
                    self.expect_punct(":")?;
                    default = Some(Box::new(self.statement(depth + 1)?));
                } else {
                    let label = self.expr(0)?;
                    self.expect_punct(":")?;
                    let body = self.statement(depth + 1)?;
                    arms.push((label, body));
                }
            }
            self.pos += 1; // endcase
            return Ok(Stmt::Case(scrutinee, arms, default, line));
        }
        let assign = self.simple_assign()?;
        self.expect_punct(";")?;
        Ok(assign)
    }

    /// `ident = expr` without the trailing semicolon (shared by plain
    /// statements and `for` headers).
    fn simple_assign(&mut self) -> Result<Stmt, SimError> {
        let line = self.line();
        let target = self.expect_ident()?;
        self.expect_punct("=")?;
        let expr = self.expr(0)?;
        Ok(Stmt::Assign(target.into(), expr, line))
    }

    // ----- declarations ------------------------------------------------

    fn function(&mut self) -> Result<Function, SimError> {
        let line = self.line();
        self.expect_keyword("function")?;
        let ret_width = self.range()?;
        let name = self.expect_ident()?;
        self.expect_punct(";")?;
        let mut inputs = Vec::new();
        let mut locals = Vec::new();
        loop {
            if self.at_keyword("input") {
                self.pos += 1;
                let width = self.range()?;
                let pname = self.expect_ident()?;
                self.expect_punct(";")?;
                inputs.push((pname, width));
            } else if self.at_keyword("integer") {
                self.pos += 1;
                let vname = self.expect_ident()?;
                self.expect_punct(";")?;
                locals.push((vname, 32, true));
            } else if self.at_keyword("reg") {
                self.pos += 1;
                let width = self.range()?;
                let vname = self.expect_ident()?;
                self.expect_punct(";")?;
                locals.push((vname, width, false));
            } else {
                break;
            }
        }
        let body = match self.statement(0)? {
            Stmt::Block(stmts) => stmts,
            other => vec![other],
        };
        self.expect_keyword("endfunction")?;
        if inputs.is_empty() {
            return Err(SimError::new(
                line,
                format!("function {name} has no inputs"),
            ));
        }
        Ok(Function {
            name,
            ret_width,
            inputs,
            locals,
            body,
            line,
        })
    }

    fn module(&mut self) -> Result<VerilogModule, SimError> {
        self.expect_keyword("module")?;
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        loop {
            let is_input = if self.at_keyword("input") {
                true
            } else if self.at_keyword("output") {
                false
            } else {
                return Err(self.err("expected input/output port declaration"));
            };
            self.pos += 1;
            if self.at_keyword("wire") {
                self.pos += 1;
            }
            let width = self.range()?;
            let pname = self.expect_ident()?;
            if is_input {
                inputs.push((pname, width));
            } else {
                outputs.push((pname, width));
            }
            if self.at_punct(",") {
                self.pos += 1;
                continue;
            }
            break;
        }
        self.expect_punct(")")?;
        self.expect_punct(";")?;

        let mut wires: HashMap<String, u32> = HashMap::new();
        let mut assigns = Vec::new();
        let mut functions = Vec::new();
        loop {
            if self.at_keyword("endmodule") {
                self.pos += 1;
                break;
            }
            if self.at_keyword("function") {
                functions.push(self.function()?);
                continue;
            }
            if self.at_keyword("wire") {
                self.pos += 1;
                let width = self.range()?;
                let wname = self.expect_ident()?;
                let line = self.line();
                self.expect_punct(";")?;
                if wires.insert(wname.clone(), width).is_some() {
                    return Err(SimError::new(line, format!("duplicate wire {wname}")));
                }
                continue;
            }
            if self.at_keyword("assign") {
                self.pos += 1;
                let line = self.line();
                let target = self.expect_ident()?;
                self.expect_punct("=")?;
                let expr = self.expr(0)?;
                self.expect_punct(";")?;
                assigns.push((target.into(), expr, line));
                continue;
            }
            if self.peek().is_none() {
                return Err(self.err("unterminated module (missing endmodule)"));
            }
            return Err(self.err("expected wire, assign, function or endmodule"));
        }
        elaborate(name, &inputs, &outputs, &wires, assigns, functions)
    }
}

/// Parses exactly one module from `text` (leading/trailing comments
/// allowed, anything else after the module is an error).
pub fn parse_module(text: &str) -> Result<VerilogModule, SimError> {
    let mut modules = parse_modules(text)?;
    match modules.len() {
        1 => Ok(modules.remove(0)),
        n => Err(SimError::new(1, format!("expected 1 module, found {n}"))),
    }
}

/// Parses every module in `text` — the shape of
/// [`crate::AfuLibrary::emit_verilog`]'s concatenated output.
pub fn parse_modules(text: &str) -> Result<Vec<VerilogModule>, SimError> {
    let tokens = lex(text)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut modules = Vec::new();
    while parser.peek().is_some() {
        modules.push(parser.module()?);
    }
    if modules.is_empty() {
        return Err(SimError::new(1, "no module found"));
    }
    Ok(modules)
}

// ---------------------------------------------------------------------
// Elaboration
// ---------------------------------------------------------------------

/// Gives every input port and driven net a slot, resolves every name in
/// place, and orders the continuous assigns so each runs after the nets
/// it reads.
fn elaborate(
    name: String,
    inputs: &[(String, u32)],
    outputs: &[(String, u32)],
    wires: &HashMap<String, u32>,
    mut assigns: Vec<(Name, Expr, usize)>,
    functions: Vec<Function>,
) -> Result<VerilogModule, SimError> {
    let mut e = Elaborator::default();
    for (i, f) in functions.iter().enumerate() {
        if e.index.insert(f.name.clone(), i).is_some() {
            return Err(SimError::new(f.line, "duplicate function"));
        }
    }
    e.progress = vec![Progress::Todo; functions.len()];
    e.functions = functions;
    // An input port is driven from outside, so assigning it is a
    // second driver.
    let ports = inputs.iter().map(|(port, width)| (port, Some(*width), 1));
    let nets = assigns.iter().map(|(Name { text, .. }, _, line)| {
        let output = outputs.iter().find(|(port, _)| port == text);
        let width = wires.get(text).or(output.map(|p| &p.1));
        (text, width.copied(), *line)
    });
    let mut slots = Vec::new();
    for (net, width, line) in ports.chain(nets) {
        let Some(width) = width else {
            return Err(SimError::new(line, format!("undeclared signal {net}")));
        };
        if e.names.insert(net.clone(), (slots.len(), width)).is_some() {
            return Err(SimError::new(line, format!("multiple drivers for {net}")));
        }
        slots.push(Value::new(0, width, false));
    }
    // What each slot reads: nothing for a port.
    let mut deps = vec![Vec::new(); inputs.len()];
    for (slot, (target, expr, line)) in (inputs.len()..).zip(&mut assigns) {
        target.index = slot;
        e.expr(expr, *line, 0)?;
        deps.push(std::mem::take(&mut e.reads));
    }
    for i in 0..e.functions.len() {
        let (name, line) = (e.functions[i].name.clone(), e.functions[i].line);
        e.call(&name, line, 0)?;
    }
    let rank = topo_rank(&deps).map_err(|slot| {
        let (target, _, line) = &assigns[slot - inputs.len()];
        SimError::new(*line, format!("combinational loop through {}", target.text))
    })?;
    assigns.sort_by_key(|(target, ..)| rank[target.index]);
    let outputs = outputs.iter().map(|(port, width)| match e.names.get(port) {
        Some(&(slot, _)) => Ok((slot, *width)),
        None => Err(SimError::new(1, format!("undriven signal {port}"))),
    });
    let outputs: Vec<_> = outputs.collect::<Result<_, _>>()?;
    // Evaluate only the nets some output reads, directly or not.
    let mut live = vec![false; slots.len()];
    outputs.iter().for_each(|&(slot, _)| live[slot] = true);
    for (target, ..) in assigns.iter().rev() {
        if live[target.index] {
            deps[target.index].iter().for_each(|&d| live[d] = true);
        }
    }
    assigns.retain(|(target, ..)| live[target.index]);
    Ok(VerilogModule {
        name,
        slots,
        input_count: inputs.len(),
        outputs,
        assigns,
        functions: e.functions,
    })
}

/// Each node's position in an order that puts it after all its `deps`
/// (Kahn's algorithm), or `Err` with a node on a dependency cycle.
fn topo_rank(deps: &[Vec<usize>]) -> Result<Vec<usize>, usize> {
    let mut pending: Vec<usize> = deps.iter().map(Vec::len).collect();
    let mut users = vec![Vec::new(); deps.len()];
    for (node, ds) in deps.iter().enumerate() {
        ds.iter().for_each(|&d| users[d].push(node));
    }
    let mut order: Vec<usize> = (0..deps.len()).filter(|&v| pending[v] == 0).collect();
    let mut rank = vec![0; deps.len()];
    for next in 0.. {
        let Some(&node) = order.get(next) else { break };
        rank[node] = next;
        for &user in &users[node] {
            pending[user] -= 1;
            if pending[user] == 0 {
                order.push(user);
            }
        }
    }
    // Walking back along pending dependencies `len` times ends on a cycle.
    let Some(mut node) = (0..deps.len()).find(|&v| pending[v] > 0) else {
        return Ok(rank);
    };
    for _ in 0..deps.len() {
        if let Some(&d) = deps[node].iter().find(|&&d| pending[d] > 0) {
            node = d;
        }
    }
    Err(node)
}

/// Where a function's elaboration stands. A function is elaborated at
/// its first call, so a call that reaches an `Active` one recurses.
#[derive(Clone, Copy)]
enum Progress {
    Todo,
    Active,
    /// Elaborated; its body nests this many levels under a call.
    Done(usize),
}

#[derive(Default)]
struct Elaborator {
    functions: Vec<Function>,
    /// Function name -> index into `functions`.
    index: HashMap<String, usize>,
    progress: Vec<Progress>,
    /// What the code being elaborated can see: `name -> (slot, width)`.
    names: HashMap<String, (usize, u32)>,
    /// The function being elaborated; `None` for continuous assigns.
    function: Option<usize>,
    /// The module slots the current continuous assign reads.
    reads: Vec<usize>,
    /// The deepest nesting reached since the current function began.
    deepest: usize,
}

impl Elaborator {
    fn enter(&mut self, depth: usize, line: usize) -> Result<(), SimError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(SimError::new(line, "evaluation too deep"));
        }
        self.deepest = self.deepest.max(depth);
        Ok(())
    }

    /// Resolves a call of `name` at nesting `depth`, elaborating the
    /// callee's body on its first call.
    fn call(&mut self, name: &str, line: usize, depth: usize) -> Result<usize, SimError> {
        let fail = |message: String| Err(SimError::new(line, message));
        let Some(&index) = self.index.get(name) else {
            return fail(format!("unknown function {name}"));
        };
        let f = &mut self.functions[index];
        match self.progress[index] {
            Progress::Done(height) => self.enter(depth + height, line)?,
            Progress::Active => return fail(format!("recursive call to function {name}")),
            Progress::Todo => {
                let vars = f.inputs.iter().map(|(n, w)| (n, *w));
                let vars = vars.chain(f.locals.iter().map(|(n, w, _)| (n, *w)));
                let vars = vars.chain([(&f.name, f.ret_width)]).enumerate();
                let names = vars.map(|(slot, (n, w))| (n.clone(), (slot, w))).collect();
                let mut body = std::mem::take(&mut f.body);
                self.progress[index] = Progress::Active;
                let names = std::mem::replace(&mut self.names, names);
                let function = self.function.replace(index);
                let deepest = std::mem::replace(&mut self.deepest, depth);
                for stmt in &mut body {
                    self.stmt(stmt, depth + 1)?;
                }
                self.functions[index].body = body;
                self.progress[index] = Progress::Done(self.deepest - depth);
                (self.names, self.function) = (names, function);
                self.deepest = self.deepest.max(deepest);
            }
        }
        Ok(index)
    }

    fn stmt(&mut self, stmt: &mut Stmt, depth: usize) -> Result<(), SimError> {
        let fline = self.function.map_or(1, |f| self.functions[f].line);
        self.enter(depth, fline)?;
        let d = depth + 1;
        match stmt {
            Stmt::Assign(target, expr, line) => {
                let Some(&(slot, _)) = self.names.get(&target.text) else {
                    let message = format!("assignment to unknown variable {}", target.text);
                    return Err(SimError::new(*line, message));
                };
                target.index = slot;
                self.expr(expr, *line, d)?;
            }
            Stmt::If(cond, then, els) => {
                self.expr(cond, fline, d)?;
                for s in std::iter::once(then).chain(els) {
                    self.stmt(s, d)?;
                }
            }
            Stmt::For(init, cond, step, body, line) => {
                self.expr(cond, *line, d)?;
                for s in [init, step, body] {
                    self.stmt(s, d)?;
                }
            }
            Stmt::Case(scrutinee, arms, default, line) => {
                self.expr(scrutinee, *line, d)?;
                for (label, arm) in arms {
                    self.expr(label, *line, d)?;
                    self.stmt(arm, d)?;
                }
                if let Some(s) = default {
                    self.stmt(s, d)?;
                }
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s, d)?;
                }
            }
        }
        Ok(())
    }

    /// Resolves `expr` in place and returns its width, which Verilog-2001
    /// fixes without looking at any value.
    fn expr(&mut self, expr: &mut Expr, line: usize, depth: usize) -> Result<u32, SimError> {
        self.enter(depth, line)?;
        let d = depth + 1;
        Ok(match expr {
            Expr::Ident(name) => {
                let Some(&(slot, width)) = self.names.get(&name.text) else {
                    let text = &name.text;
                    let message = match self.function.map(|f| &self.functions[f].name) {
                        Some(f) => format!("unknown variable {text} in function {f}"),
                        None => format!("undriven signal {text}"),
                    };
                    return Err(SimError::new(line, message));
                };
                name.index = slot;
                if self.function.is_none() {
                    self.reads.push(slot);
                }
                width
            }
            Expr::Literal(v) => v.width,
            Expr::Select(base, high, low) => {
                self.expr(base, line, d)?;
                *high - *low + 1
            }
            Expr::Index(base, index) => {
                self.expr(base, line, d)?;
                self.expr(index, line, d)?;
                1
            }
            Expr::Concat(parts) => {
                let mut width = 0;
                for part in parts {
                    width += self.expr(part, line, d)?;
                    if width > 64 {
                        return Err(SimError::new(line, "concatenation wider than 64 bits"));
                    }
                }
                width
            }
            Expr::Signed(inner) => self.expr(inner, line, d)?,
            Expr::Unary(op, operand) => match (*op, self.expr(operand, line, d)?) {
                ("!", _) => 1,
                (_, width) => width,
            },
            Expr::Ternary(cond, then, els) => {
                self.expr(cond, line, d)?;
                let width = self.expr(then, line, d)?;
                width.max(self.expr(els, line, d)?)
            }
            Expr::Binary(op, lhs, rhs) => {
                let width = self.expr(lhs, line, d)?;
                let rhs = self.expr(rhs, line, d)?;
                match *op {
                    "==" | "!=" | "<" | "<=" | ">" | ">=" => 1,
                    "<<" | ">>" | ">>>" => width,
                    _ => width.max(rhs),
                }
            }
            Expr::Call(name, args) => {
                name.index = self.call(&name.text, line, depth)?;
                let callee = &self.functions[name.index];
                if args.len() != callee.inputs.len() {
                    let arity = callee.inputs.len();
                    let message = format!(
                        "{} takes {arity} argument(s), got {}",
                        name.text,
                        args.len()
                    );
                    return Err(SimError::new(line, message));
                }
                for arg in args {
                    self.expr(arg, line, d)?;
                }
                self.functions[name.index].ret_width
            }
        })
    }
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

impl VerilogModule {
    /// Evaluates `expr` over `frame`: the module's slots, or a call's.
    fn eval(&self, expr: &Expr, line: usize, frame: &[Value]) -> Result<Value, SimError> {
        Ok(match expr {
            Expr::Literal(v) => *v,
            Expr::Ident(name) => frame[name.index],
            Expr::Select(base, high, low) => {
                let v = self.eval(base, line, frame)?;
                Value::new(v.bits >> low, high - low + 1, false)
            }
            Expr::Index(base, index) => {
                let v = self.eval(base, line, frame)?;
                let i = self.eval(index, line, frame)?;
                let inside = i.bits < u64::from(v.width);
                Value::new(if inside { v.bits >> i.bits } else { 0 }, 1, false)
            }
            Expr::Concat(parts) => {
                // Elaboration bounds the total width by 64.
                let mut v = Value::new(0, 0, false);
                for part in parts {
                    let p = self.eval(part, line, frame)?;
                    let bits = v.bits.checked_shl(p.width).unwrap_or(0) | p.bits;
                    v = Value::new(bits, v.width + p.width, false);
                }
                v
            }
            Expr::Signed(inner) => Value {
                signed: true,
                ..self.eval(inner, line, frame)?
            },
            Expr::Unary(op, operand) => {
                let v = self.eval(operand, line, frame)?;
                // The parser produces only `~`, `-` and `!`.
                match *op {
                    "~" => Value::new(!v.bits, v.width, v.signed),
                    "-" => Value::new(v.bits.wrapping_neg(), v.width, v.signed),
                    _ => Value::new(u64::from(!v.is_true()), 1, false),
                }
            }
            Expr::Ternary(cond, then, els) => {
                let c = self.eval(cond, line, frame)?;
                // Both branches are context-sized together; evaluating
                // only the taken branch is safe because the subset is
                // side-effect free, but the width must consider both.
                let t = self.eval(then, line, frame)?;
                let e = self.eval(els, line, frame)?;
                let width = t.width.max(e.width);
                let signed = t.signed && e.signed;
                let v = if c.is_true() { t } else { e };
                Value::new(v.extended(width, signed), width, signed)
            }
            Expr::Binary(op, lhs, rhs) => {
                let a = self.eval(lhs, line, frame)?;
                let b = self.eval(rhs, line, frame)?;
                binary_op(op, a, b, line)?
            }
            Expr::Call(name, args) => {
                // The callee's frame: inputs, locals, return variable.
                let function = &self.functions[name.index];
                let mut callee = Vec::with_capacity(args.len() + function.locals.len() + 1);
                for (arg, &(_, width)) in args.iter().zip(&function.inputs) {
                    callee.push(Value::new(self.eval(arg, line, frame)?.bits, width, false));
                }
                let locals = function.locals.iter();
                callee.extend(locals.map(|&(_, width, signed)| Value::new(0, width, signed)));
                callee.push(Value::new(0, function.ret_width, false));
                let mut steps = 0;
                for stmt in &function.body {
                    self.exec(function, stmt, &mut callee, &mut steps)?;
                }
                callee[callee.len() - 1]
            }
        })
    }

    fn exec(
        &self,
        function: &Function,
        stmt: &Stmt,
        frame: &mut [Value],
        steps: &mut usize,
    ) -> Result<(), SimError> {
        let tick = |steps: &mut usize, line: usize| {
            *steps += 1;
            if *steps > MAX_FUNCTION_STEPS {
                let message = format!("function {} exceeded the step budget", function.name);
                return Err(SimError::new(line, message));
            }
            Ok(())
        };
        tick(steps, function.line)?;
        match stmt {
            Stmt::Assign(target, expr, line) => {
                let value = self.eval(expr, *line, frame)?;
                let slot = &mut frame[target.index];
                let (width, signed) = (slot.width, slot.signed);
                *slot = Value::new(value.extended(width, value.signed), width, signed);
            }
            Stmt::If(cond, then, els) => {
                if self.eval(cond, function.line, frame)?.is_true() {
                    self.exec(function, then, frame, steps)?;
                } else if let Some(e) = els {
                    self.exec(function, e, frame, steps)?;
                }
            }
            Stmt::For(init, cond, step, body, line) => {
                self.exec(function, init, frame, steps)?;
                while self.eval(cond, *line, frame)?.is_true() {
                    self.exec(function, body, frame, steps)?;
                    self.exec(function, step, frame, steps)?;
                    tick(steps, *line)?;
                }
            }
            Stmt::Case(scrutinee, arms, default, line) => {
                let s = self.eval(scrutinee, *line, frame)?;
                for (label, arm) in arms {
                    let l = self.eval(label, *line, frame)?;
                    let w = s.width.max(l.width);
                    if s.extended(w, false) == l.extended(w, false) {
                        return self.exec(function, arm, frame, steps);
                    }
                }
                if let Some(d) = default {
                    self.exec(function, d, frame, steps)?;
                }
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.exec(function, s, frame, steps)?;
                }
            }
        }
        Ok(())
    }
}

/// One Verilog-2001 binary operation with context sizing: the result
/// is as wide as the wider operand, signed only when both operands are
/// signed, and operands are sign-extended only in that signed case.
fn binary_op(op: &str, a: Value, b: Value, line: usize) -> Result<Value, SimError> {
    match op {
        "+" | "-" | "*" | "&" | "|" | "^" => {
            let width = a.width.max(b.width);
            let signed = a.signed && b.signed;
            let x = a.extended(width, signed);
            let y = b.extended(width, signed);
            let bits = match op {
                "+" => x.wrapping_add(y),
                "-" => x.wrapping_sub(y),
                "*" => x.wrapping_mul(y),
                "&" => x & y,
                "|" => x | y,
                _ => x ^ y,
            };
            Ok(Value::new(bits, width, signed))
        }
        "==" | "!=" | "<" | "<=" | ">" | ">=" => {
            let width = a.width.max(b.width);
            let signed = a.signed && b.signed;
            let (x, y) = if signed {
                let ext = |v: Value| {
                    let e = v.extended(64, true);
                    e as i64
                };
                (ext(a) as i128, ext(b) as i128)
            } else {
                (
                    a.extended(width, false) as i128,
                    b.extended(width, false) as i128,
                )
            };
            let r = match op {
                "==" => x == y,
                "!=" => x != y,
                "<" => x < y,
                "<=" => x <= y,
                ">" => x > y,
                _ => x >= y,
            };
            Ok(Value::new(u64::from(r), 1, false))
        }
        "<<" | ">>" | ">>>" => {
            // The shift amount is self-determined and unsigned.
            let sh = b.bits;
            let width = a.width;
            let bits = match op {
                "<<" => {
                    if sh >= 64 {
                        0
                    } else {
                        a.bits << sh
                    }
                }
                ">>" => {
                    if sh >= 64 {
                        0
                    } else {
                        a.bits >> sh
                    }
                }
                _ => {
                    // Arithmetic only when the operand is signed.
                    if a.signed {
                        let x = a.as_i64();
                        let s = sh.min(63) as u32;
                        (x >> s) as u64
                    } else if sh >= 64 {
                        0
                    } else {
                        a.bits >> sh
                    }
                }
            };
            Ok(Value::new(bits, width, a.signed))
        }
        _ => Err(SimError::new(line, format!("unsupported operator {op:?}"))),
    }
}

impl VerilogModule {
    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input ports, in declaration order.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Number of output ports, in declaration order.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Evaluates the module on one input vector (values bound to input
    /// ports in declaration order) and returns the output port values
    /// in declaration order.
    ///
    /// # Errors
    ///
    /// [`SimError`] when the vector length disagrees with the port
    /// count, or a helper function exceeds its step budget on these
    /// values. Every other fault of the text is rejected by
    /// [`parse_module`] before a module exists to evaluate.
    pub fn evaluate(&self, inputs: &[u32]) -> Result<Vec<u32>, SimError> {
        if inputs.len() != self.input_count {
            let (name, ports, got) = (&self.name, self.input_count, inputs.len());
            let message = format!("module {name} has {ports} input port(s), got {got} value(s)");
            return Err(SimError::new(1, message));
        }
        let mut slots = self.slots.clone();
        for (slot, &value) in slots.iter_mut().zip(inputs) {
            *slot = Value::new(u64::from(value), slot.width, false);
        }
        for (target, expr, line) in &self.assigns {
            let v = self.eval(expr, *line, &slots)?;
            let width = slots[target.index].width;
            // Continuous assignment truncates/extends to the net's width.
            slots[target.index] = Value::new(v.extended(width, v.signed), width, false);
        }
        Ok(self
            .outputs
            .iter()
            .map(|&(slot, width)| (slots[slot].bits & mask(width) & mask(32)) as u32)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{emit_verilog, Netlist};
    use isegen_graph::NodeSet;
    use isegen_ir::interp::eval_opcode;
    use isegen_ir::{BlockBuilder, Opcode};

    fn simulate_one(opcode: Opcode, args: &[u32]) -> u32 {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let operands = &[x, y, z][..opcode.arity()];
        let n = b.op(opcode, operands).unwrap();
        let block = b.build().unwrap();
        let netlist =
            Netlist::from_cut(&block, &NodeSet::from_ids(block.dag().node_count(), [n])).unwrap();
        let text = emit_verilog(&netlist, "one").unwrap();
        let module = parse_module(&text).unwrap();
        // The netlist keeps only the ports the cell actually reads.
        let out = module.evaluate(&args[..netlist.input_count()]).unwrap();
        out[0]
    }

    #[test]
    fn every_opcode_matches_the_interpreter() {
        let vectors: [[u32; 3]; 8] = [
            [0, 0, 0],
            [1, 2, 3],
            [6, 7, 8],
            [u32::MAX, 1, 2],
            [0x8000_0000, 31, 5],
            [0xdead_beef, 0xcafe_f00d, 0x1234_5678],
            [0x7fff_ffff, 0xffff_ffff, 1],
            [0x53, 0x13, 0x80],
        ];
        for opcode in Opcode::ALL {
            if !opcode.is_ise_eligible() {
                continue;
            }
            for args in vectors {
                let expected = eval_opcode(opcode, &args[..opcode.arity()]).unwrap();
                let got = simulate_one(opcode, &args[..opcode.arity()]);
                assert_eq!(got, expected, "{opcode:?} on {args:?}");
            }
        }
    }

    #[test]
    fn duplicate_operands_share_one_port() {
        // x*x: one input port feeds both operands.
        let mut b = BlockBuilder::new("sq");
        let x = b.input("x");
        let sq = b.op(Opcode::Mul, &[x, x]).unwrap();
        let block = b.build().unwrap();
        let netlist = Netlist::from_cut(&block, &NodeSet::from_ids(2, [sq])).unwrap();
        let module = parse_module(&emit_verilog(&netlist, "sq").unwrap()).unwrap();
        assert_eq!(module.evaluate(&[9]).unwrap(), vec![81]);
        assert_eq!(module.evaluate(&[65536]).unwrap(), vec![0], "wrapping mul");
    }

    #[test]
    fn rotate_by_zero_is_identity() {
        // The emitted RotL idiom shifts right by 32 when r == 0; in
        // Verilog that yields 0, keeping the identity. A simulator with
        // Rust shift semantics would panic or wrap here.
        assert_eq!(
            simulate_one(Opcode::RotL, &[0xdead_beef, 0, 0]),
            0xdead_beef
        );
        assert_eq!(
            simulate_one(Opcode::RotL, &[0xdead_beef, 32, 0]),
            0xdead_beef
        );
    }

    #[test]
    fn parse_errors_are_line_numbered() {
        let err =
            parse_module("module m (\n  input wire [31:0] in0\n);\n  assign ;\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.to_string().contains("line 4"));
    }

    #[test]
    fn corrupted_text_is_an_error_not_a_panic() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let n = b.op(Opcode::Not, &[x]).unwrap();
        let block = b.build().unwrap();
        let netlist = Netlist::from_cut(&block, &NodeSet::from_ids(2, [n])).unwrap();
        let good = emit_verilog(&netlist, "inv").unwrap();
        // Truncations at every byte boundary (cutting into `endmodule`
        // at minimum): parse error or evaluation error, never a panic
        // and never a silently wrong answer.
        for end in 0..good.trim_end().len() {
            if let Ok(module) = parse_modules(&good[..end]) {
                // A prefix that still parses must be missing something.
                assert!(
                    module[0].evaluate(&[5]).is_err(),
                    "truncation at {end} parsed and evaluated"
                );
            }
        }
        // Random byte corruption either errors or changes no semantics
        // (e.g. flips inside a comment); it must never panic.
        let mut corrupted = good.clone().into_bytes();
        for (i, b) in corrupted.iter_mut().enumerate() {
            if i % 7 == 0 {
                *b = b'@';
            }
        }
        let _ = parse_modules(&String::from_utf8_lossy(&corrupted));
    }

    #[test]
    fn undriven_and_double_driven_nets_are_errors() {
        // Each static fault is rejected by `parse_module`, never left
        // for `evaluate` to find.
        let faults = [
            ("  wire [31:0] n0;\n  assign out0 = n0;\n", "undriven"),
            ("  assign out0 = n0;\n  assign n0 = in0;\n", "undeclared"),
            ("  assign out0 = f(in0);\n", "unknown function"),
            (
                "  function [31:0] f;\n    input [31:0] a;\n    input [31:0] b;\n    f = a + b;\n  endfunction\n  assign out0 = f(in0);\n",
                "takes 2 argument(s), got 1",
            ),
        ];
        for (body, message) in faults {
            let text = format!("module m (\n  input wire [31:0] in0,\n  output wire [31:0] out0\n);\n{body}endmodule\n");
            let err = parse_module(&text).unwrap_err();
            assert!(err.message.contains(message), "{err}");
        }

        let doubled = "module m (\n  input wire [31:0] in0,\n  output wire [31:0] out0\n);\n  assign out0 = in0;\n  assign out0 = in0;\nendmodule\n";
        assert!(parse_module(doubled)
            .unwrap_err()
            .message
            .contains("multiple drivers"));
    }

    #[test]
    fn combinational_loops_are_detected() {
        let text = "module m (\n  input wire [31:0] in0,\n  output wire [31:0] out0\n);\n  wire [31:0] a;\n  wire [31:0] b;\n  assign a = b + in0;\n  assign b = a + 1;\n  assign out0 = a;\nendmodule\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("combinational loop"), "{err}");
    }

    #[test]
    fn recursive_functions_are_rejected_not_run() {
        let self_recursive = "  function [7:0] f;\n    input [7:0] b;\n    begin\n      f = f(b);\n    end\n  endfunction\n  assign out0 = {24'b0, f(in0[7:0])};\n";
        let mutual = "  function [7:0] f;\n    input [7:0] b;\n    f = g(b);\n  endfunction\n  function [7:0] g;\n    input [7:0] b;\n    g = f(b);\n  endfunction\n  assign out0 = {24'b0, g(in0[7:0])};\n";
        for body in [self_recursive, mutual] {
            let text = format!("module m (\n  input wire [31:0] in0,\n  output wire [31:0] out0\n);\n{body}endmodule\n");
            let err = parse_module(&text).unwrap_err();
            assert!(err.message.contains("recursive call"), "{err}");
        }
    }

    #[test]
    fn runaway_function_loops_hit_the_step_budget() {
        let text = "module m (\n  input wire [31:0] in0,\n  output wire [31:0] out0\n);\n  function [7:0] spin;\n    input [7:0] b;\n    integer i;\n    begin\n      for (i = 0; i < 1; i = i - 1) begin\n        spin = b;\n      end\n    end\n  endfunction\n  assign out0 = {24'b0, spin(in0[7:0])};\nendmodule\n";
        let module = parse_module(text).unwrap();
        let err = module.evaluate(&[1]).unwrap_err();
        assert!(err.message.contains("step budget"), "{err}");
    }

    #[test]
    fn signedness_follows_verilog_rules() {
        // $signed compare vs unsigned compare of the same bits.
        let text = "module m (\n  input wire [31:0] in0,\n  input wire [31:0] in1,\n  output wire [31:0] out0,\n  output wire [31:0] out1\n);\n  assign out0 = {31'b0, $signed(in0) < $signed(in1)};\n  assign out1 = {31'b0, in0 < in1};\nendmodule\n";
        let module = parse_module(text).unwrap();
        let out = module.evaluate(&[0xffff_ffff, 1]).unwrap();
        assert_eq!(out, vec![1, 0], "-1 < 1 signed, 0xffffffff > 1 unsigned");
        // Bare decimal literals are signed: $signed(x) < 0 is a signed
        // comparison (the Abs idiom depends on this).
        let text2 = "module m (\n  input wire [31:0] in0,\n  output wire [31:0] out0\n);\n  assign out0 = ($signed(in0) < 0) ? (32'd0 - in0) : in0;\nendmodule\n";
        let module2 = parse_module(text2).unwrap();
        assert_eq!(
            module2.evaluate(&[0xffff_fffb]).unwrap(),
            vec![5],
            "abs(-5)"
        );
        assert_eq!(module2.evaluate(&[5]).unwrap(), vec![5]);
    }

    #[test]
    fn afu_library_concatenation_parses_as_multiple_modules() {
        let mut b = BlockBuilder::new("two");
        let x = b.input("x");
        let a = b.op(Opcode::Not, &[x]).unwrap();
        let block = b.build().unwrap();
        let netlist = Netlist::from_cut(&block, &NodeSet::from_ids(2, [a])).unwrap();
        let one = emit_verilog(&netlist, "ise0").unwrap();
        let two = emit_verilog(&netlist, "ise1").unwrap();
        let both = format!("// banner\n{one}\n{two}");
        let modules = parse_modules(&both).unwrap();
        assert_eq!(modules.len(), 2);
        assert_eq!(modules[0].name(), "ise0");
        assert_eq!(modules[1].name(), "ise1");
        assert_eq!(modules[1].evaluate(&[0]).unwrap(), vec![u32::MAX]);
    }
}
