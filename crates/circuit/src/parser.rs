//! Recursive-descent parser for the GLQ quantum-program text format.
//!
//! Grammar:
//!
//! ```text
//! program  := "qubits" NUMBER ";" stmt*
//! stmt     := "skip" ";"
//!           | IDENT params? operands ";"
//!           | "if" QUBIT "==" "0" block ("else" block)?
//! params   := "(" expr ("," expr)* ")"
//! operands := QUBIT ("," QUBIT)*
//! block    := "{" stmt* "}"
//! expr     := term (("+" | "-") term)*
//! term     := factor (("*" | "/") factor)*
//! factor   := NUMBER | "pi" | "-" factor | "(" expr ")"
//! QUBIT    := "q" NUMBER   (written as one identifier, e.g. `q12`)
//! ```

use crate::lexer::{tokenize, LexError, Spanned, Token};
use crate::{Gate, GateApp, Program, Qubit, Stmt};
use std::fmt;

/// Maximum nesting depth of parenthesized or negated expressions and of
/// `if` blocks: deeper input is a parse error, not a stack overflow in
/// the parser or in the recursive passes over the parsed program.
const MAX_DEPTH: usize = 64;

/// A parse error with source position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// 1-based line (0 for end-of-input).
    pub line: usize,
    /// 1-based column (0 for end-of-input).
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.token)
    }

    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or((0, 0), |s| (s.line, s.col))
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            message: msg.into(),
            line,
            col,
        }
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(x) if x == t => {
                self.pos += 1;
                Ok(())
            }
            Some(x) => Err(self.err(format!("expected `{t}`, found `{x}`"))),
            None => Err(self.err(format!("expected `{t}`, found end of input"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(x) => Err(self.err(format!("expected identifier, found `{x}`"))),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        match self.peek() {
            Some(Token::Number(x)) => {
                let x = *x;
                self.pos += 1;
                Ok(x)
            }
            Some(x) => Err(self.err(format!("expected number, found `{x}`"))),
            None => Err(self.err("expected number, found end of input")),
        }
    }

    fn qubit(&mut self) -> Result<Qubit, ParseError> {
        let word = self.ident()?;
        let rest = word
            .strip_prefix('q')
            .ok_or_else(|| self.err(format!("expected qubit like `q0`, found `{word}`")))?;
        let idx: usize = rest
            .parse()
            .map_err(|_| self.err(format!("expected qubit like `q0`, found `{word}`")))?;
        Ok(Qubit(idx))
    }

    // expr := term (("+" | "-") term)*
    fn expr(&mut self) -> Result<f64, ParseError> {
        let mut v = self.term()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.pos += 1;
                    v += self.term()?;
                }
                Some(Token::Minus) => {
                    self.pos += 1;
                    v -= self.term()?;
                }
                _ => return Ok(v),
            }
        }
    }

    fn term(&mut self) -> Result<f64, ParseError> {
        let mut v = self.factor()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.pos += 1;
                    v *= self.factor()?;
                }
                Some(Token::Slash) => {
                    self.pos += 1;
                    v /= self.factor()?;
                }
                _ => return Ok(v),
            }
        }
    }

    fn factor(&mut self) -> Result<f64, ParseError> {
        match self.peek() {
            Some(Token::Number(_)) => self.number(),
            Some(Token::Minus) => self.nested(|p| {
                p.pos += 1;
                Ok(-p.factor()?)
            }),
            Some(Token::LParen) => self.nested(|p| {
                p.pos += 1;
                let v = p.expr()?;
                p.expect(&Token::RParen)?;
                Ok(v)
            }),
            Some(Token::Ident(s)) if s == "pi" => {
                self.pos += 1;
                Ok(std::f64::consts::PI)
            }
            Some(x) => Err(self.err(format!("expected expression, found `{x}`"))),
            None => Err(self.err("expected expression, found end of input")),
        }
    }

    fn params(&mut self) -> Result<Vec<f64>, ParseError> {
        let mut ps = Vec::new();
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            ps.push(self.expr()?);
            while self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                ps.push(self.expr()?);
            }
            self.expect(&Token::RParen)?;
        }
        Ok(ps)
    }

    fn gate_from(&self, name: &str, params: &[f64]) -> Result<Gate, ParseError> {
        let need = |k: usize| -> Result<(), ParseError> {
            if params.len() == k {
                Ok(())
            } else {
                Err(self.err(format!(
                    "gate `{name}` takes {k} parameter(s), got {}",
                    params.len()
                )))
            }
        };
        let g = match name {
            "id" => Gate::I,
            "x" => Gate::X,
            "y" => Gate::Y,
            "z" => Gate::Z,
            "h" => Gate::H,
            "s" => Gate::S,
            "sdg" => Gate::Sdg,
            "t" => Gate::T,
            "tdg" => Gate::Tdg,
            "cnot" | "cx" => Gate::Cnot,
            "cz" => Gate::Cz,
            "swap" => Gate::Swap,
            "rx" => {
                need(1)?;
                Gate::Rx(params[0])
            }
            "ry" => {
                need(1)?;
                Gate::Ry(params[0])
            }
            "rz" => {
                need(1)?;
                Gate::Rz(params[0])
            }
            "phase" => {
                need(1)?;
                Gate::Phase(params[0])
            }
            "rzz" => {
                need(1)?;
                Gate::Rzz(params[0])
            }
            "cphase" => {
                need(1)?;
                Gate::CPhase(params[0])
            }
            other => return Err(self.err(format!("unknown gate `{other}`"))),
        };
        if g.param().is_none() {
            need(0)?;
        }
        Ok(g)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let name = self.ident()?;
        match name.as_str() {
            "skip" => {
                self.expect(&Token::Semi)?;
                Ok(Stmt::Skip)
            }
            "if" => {
                let q = self.qubit()?;
                self.expect(&Token::EqEq)?;
                let v = self.number()?;
                if v != 0.0 {
                    return Err(self.err("measurement condition must be `== 0`"));
                }
                let zero = self.nested(Self::block)?;
                let one = if self.peek() == Some(&Token::Ident("else".into())) {
                    self.pos += 1;
                    self.nested(Self::block)?
                } else {
                    Stmt::Skip
                };
                Ok(Stmt::IfMeasure {
                    qubit: q,
                    zero: Box::new(zero),
                    one: Box::new(one),
                })
            }
            _ => {
                let params = self.params()?;
                let gate = self.gate_from(&name, &params)?;
                let mut qs = vec![self.qubit()?];
                while self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                    qs.push(self.qubit()?);
                }
                self.expect(&Token::Semi)?;
                if qs.len() != gate.arity() {
                    return Err(self.err(format!(
                        "gate `{name}` takes {} qubit(s), got {}",
                        gate.arity(),
                        qs.len()
                    )));
                }
                if qs.len() == 2 && qs[0] == qs[1] {
                    return Err(self.err("2-qubit gate with repeated operand"));
                }
                Ok(Stmt::Gate(GateApp::new(gate, qs)))
            }
        }
    }

    fn block(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Token::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unclosed block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(&Token::RBrace)?;
        Ok(match stmts.len() {
            0 => Stmt::Skip,
            1 => stmts.pop().expect("len checked"),
            _ => Stmt::Seq(stmts),
        })
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let kw = self.ident()?;
        if kw != "qubits" {
            return Err(self.err("program must start with `qubits N;`"));
        }
        let n = self.number()?;
        if n.fract() != 0.0 || n < 1.0 {
            return Err(self.err("qubit count must be a positive integer"));
        }
        self.expect(&Token::Semi)?;
        let n = n as usize;
        let mut stmts = Vec::new();
        while self.peek().is_some() {
            stmts.push(self.stmt()?);
        }
        let body = match stmts.len() {
            0 => Stmt::Skip,
            1 => stmts.pop().expect("len checked"),
            _ => Stmt::Seq(stmts),
        };
        // Validate qubit ranges through the Program constructor, converting
        // panics into parse errors up front.
        let max_q = max_qubit(&body);
        if let Some(q) = max_q {
            if q >= n {
                return Err(ParseError {
                    message: format!("qubit q{q} out of range (qubits {n})"),
                    line: 0,
                    col: 0,
                });
            }
        }
        Ok(Program::new(n, body))
    }
}

fn max_qubit(s: &Stmt) -> Option<usize> {
    match s {
        Stmt::Skip => None,
        Stmt::Seq(ss) => ss.iter().filter_map(max_qubit).max(),
        Stmt::Gate(g) => g.qubits.iter().map(|q| q.0).max(),
        Stmt::IfMeasure { qubit, zero, one } => [Some(qubit.0), max_qubit(zero), max_qubit(one)]
            .into_iter()
            .flatten()
            .max(),
    }
}

/// Parses GLQ source text into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] (with 1-based line/column) on malformed input.
///
/// # Examples
///
/// ```
/// use gleipnir_circuit::parse;
///
/// let p = parse("qubits 2; h q0; cnot q0, q1;")?;
/// assert_eq!(p.gate_count(), 2);
/// # Ok::<(), gleipnir_circuit::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ghz() {
        let p = parse("qubits 2;\nh q0;\ncnot q0, q1;\n").unwrap();
        assert_eq!(p.n_qubits(), 2);
        assert_eq!(p.gate_count(), 2);
    }

    #[test]
    fn parses_parameterized_gates() {
        let p = parse("qubits 1; rx(pi/2) q0; rz(-0.25) q0; phase(2*pi) q0;").unwrap();
        let gates = p.straight_line_gates().unwrap();
        assert!(
            matches!(gates[0].gate, Gate::Rx(t) if (t - std::f64::consts::FRAC_PI_2).abs() < 1e-15)
        );
        assert!(matches!(gates[1].gate, Gate::Rz(t) if (t + 0.25).abs() < 1e-15));
    }

    #[test]
    fn parses_if_else() {
        let src = "qubits 2; h q0; if q0 == 0 { x q1; } else { z q1; }";
        let p = parse(src).unwrap();
        assert_eq!(p.measure_count(), 1);
        assert_eq!(p.gate_count(), 3);
    }

    #[test]
    fn if_without_else_defaults_to_skip() {
        let p = parse("qubits 1; if q0 == 0 { x q0; }").unwrap();
        match p.body() {
            Stmt::IfMeasure { one, .. } => assert_eq!(**one, Stmt::Skip),
            other => panic!("expected IfMeasure, got {other:?}"),
        }
    }

    #[test]
    fn cx_alias() {
        let p = parse("qubits 2; cx q0, q1;").unwrap();
        let g = p.straight_line_gates().unwrap();
        assert_eq!(g[0].gate, Gate::Cnot);
    }

    #[test]
    fn error_unknown_gate() {
        let e = parse("qubits 1; warp q0;").unwrap_err();
        assert!(e.message.contains("unknown gate"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn error_wrong_arity() {
        let e = parse("qubits 2; h q0, q1;").unwrap_err();
        assert!(e.message.contains("takes 1 qubit"));
    }

    #[test]
    fn error_missing_header() {
        let e = parse("h q0;").unwrap_err();
        assert!(e.message.contains("qubits"));
    }

    #[test]
    fn error_out_of_range_qubit() {
        let e = parse("qubits 2; h q7;").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn error_repeated_operand() {
        let e = parse("qubits 2; cnot q0, q0;").unwrap_err();
        assert!(e.message.contains("repeated"));
    }

    #[test]
    fn error_position_reported() {
        let e = parse("qubits 1;\n\n  bad q0;").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn parameter_arithmetic() {
        let p = parse("qubits 1; rx((1+2)*pi/4 - 0.5) q0;").unwrap();
        let g = p.straight_line_gates().unwrap();
        let expect = 3.0 * std::f64::consts::PI / 4.0 - 0.5;
        assert!(matches!(g[0].gate, Gate::Rx(t) if (t - expect).abs() < 1e-14));
    }

    fn nested_ifs(depth: usize) -> String {
        format!(
            "qubits 1;\n{}x q0;{}",
            "if q0 == 0 { ".repeat(depth),
            " }".repeat(depth)
        )
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        let negated = format!("qubits 1; rx({}1) q0;", "-".repeat(MAX_DEPTH));
        let parenthesized = format!(
            "qubits 1; rx({}1{}) q0;",
            "(".repeat(MAX_DEPTH),
            ")".repeat(MAX_DEPTH)
        );
        for src in [negated, parenthesized, nested_ifs(MAX_DEPTH)] {
            assert_eq!(parse(&src).unwrap().gate_count(), 1);
        }
    }

    #[test]
    fn deep_nesting_is_a_positioned_error_not_a_stack_overflow() {
        let negated = format!("qubits 1; rx({}1) q0;", "-".repeat(200_000));
        let parenthesized = format!(
            "qubits 1; rx({}1{}) q0;",
            "(".repeat(200_000),
            ")".repeat(200_000)
        );
        for (src, col) in [(negated, 14 + MAX_DEPTH), (parenthesized, 14 + MAX_DEPTH)] {
            let e = parse(&src).unwrap_err();
            assert!(e.message.contains("nesting"), "{e}");
            assert_eq!((e.line, e.col), (1, col));
        }
        let e = parse(&nested_ifs(100_000)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        assert_eq!(e.line, 2);
    }
}
