//! The SQL subset CSD prototypes push down: `SELECT … FROM … WHERE …`.
//!
//! The parser accepts real TPC-H-flavoured text — aggregate projections,
//! multi-table FROM lists, GROUP BY / ORDER BY tails — but only *represents*
//! what the device executes: the table list and the WHERE predicate. The
//! projection is checked for shape and dropped; everything after the
//! predicate is host-side business and is skipped.

use crate::row::Value;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A comparison operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Column reference.
    Col(String),
    /// Literal value.
    Lit(Value),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Col(c) => f.write_str(c),
            Operand::Lit(v) => write!(f, "{v}"),
        }
    }
}

/// A boolean predicate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Comparison.
    Cmp {
        /// Left operand.
        left: Operand,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
    },
}

impl Expr {
    /// Column names referenced by this expression.
    pub(crate) fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(e) => e.collect_columns(out),
            Expr::Cmp { left, right, .. } => {
                for op in [left, right] {
                    if let Operand::Col(c) = op {
                        out.push(c);
                    }
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
        }
    }
}

/// A parsed query: what the device needs of it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Query {
    /// FROM-list table names.
    pub tables: Vec<String>,
    /// The WHERE predicate, if any.
    pub predicate: Option<Expr>,
}

/// Parse errors, with the offending position where known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sql parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
    })
}

// --- tokenizer ---

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64, bool), // value, is_integer
    Str(String),
    Symbol(char), // ( ) , *
    Op(CmpOp),
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '*' => {
                out.push(Token::Symbol(c));
                i += 1;
            }
            '=' => {
                out.push(Token::Op(CmpOp::Eq));
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Op(CmpOp::Ne));
                    i += 2;
                } else {
                    return err(format!("stray '!' at byte {i}"));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    out.push(Token::Op(CmpOp::Le));
                    i += 2;
                }
                Some(&b'>') => {
                    out.push(Token::Op(CmpOp::Ne));
                    i += 2;
                }
                _ => {
                    out.push(Token::Op(CmpOp::Lt));
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Op(CmpOp::Ge));
                    i += 2;
                } else {
                    out.push(Token::Op(CmpOp::Gt));
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j == bytes.len() {
                    return err("unterminated string literal");
                }
                out.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let start = i;
                let mut j = i + 1;
                let mut is_int = true;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_digit() {
                        j += 1;
                    } else if d == '.'
                        || d == 'e'
                        || d == 'E'
                        || ((d == '+' || d == '-') && matches!(bytes[j - 1] as char, 'e' | 'E'))
                    {
                        is_int = false;
                        j += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[start..j];
                match text.parse::<f64>() {
                    Ok(v) => out.push(Token::Number(v, is_int)),
                    Err(_) => return err(format!("bad number '{text}'")),
                }
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i + 1;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' || d == '.' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(input[start..j].to_string()));
                i = j;
            }
            other => return err(format!("unexpected character '{other}' at byte {i}")),
        }
    }
    Ok(out)
}

// --- parser ---

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.is_keyword(kw) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected {kw}, found {:?}", self.peek()))
        }
    }

    /// Skips one projection item — `*`, a column, or an aggregate call —
    /// checking its shape.
    fn projection_item(&mut self) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Symbol('*')) => Ok(()),
            Some(Token::Ident(_)) => {
                if self.peek() == Some(&Token::Symbol('(')) {
                    self.pos += 1;
                    match self.next() {
                        Some(Token::Symbol('*') | Token::Ident(_)) => {}
                        other => return err(format!("bad aggregate argument {other:?}")),
                    }
                    match self.next() {
                        Some(Token::Symbol(')')) => Ok(()),
                        other => err(format!("expected ')', found {other:?}")),
                    }
                } else {
                    Ok(())
                }
            }
            other => err(format!("bad projection item {other:?}")),
        }
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match self.next() {
            Some(Token::Ident(name)) => Ok(Operand::Col(name)),
            Some(Token::Number(v, true)) => Ok(Operand::Lit(Value::Int(v as i64))),
            Some(Token::Number(v, false)) => Ok(Operand::Lit(Value::Float(v))),
            Some(Token::Str(s)) => Ok(Operand::Lit(Value::Str(s))),
            other => err(format!("bad operand {other:?}")),
        }
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.operand()?;
        let op = match self.next() {
            Some(Token::Op(op)) => op,
            other => return err(format!("expected comparison operator, found {other:?}")),
        };
        let right = self.operand()?;
        Ok(Expr::Cmp { left, op, right })
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(&Token::Symbol('(')) {
            self.pos += 1;
            let e = self.expr()?;
            match self.next() {
                Some(Token::Symbol(')')) => Ok(e),
                other => err(format!("expected ')', found {other:?}")),
            }
        } else if self.is_keyword("not") {
            self.pos += 1;
            Ok(Expr::Not(Box::new(self.primary()?)))
        } else {
            self.comparison()
        }
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while self.is_keyword("and") {
            self.pos += 1;
            e = Expr::And(Box::new(e), Box::new(self.primary()?));
        }
        Ok(e)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.and_expr()?;
        while self.is_keyword("or") {
            self.pos += 1;
            e = Expr::Or(Box::new(e), Box::new(self.and_expr()?));
        }
        Ok(e)
    }
}

/// Parses a full query string. Tokens after the predicate (GROUP BY,
/// ORDER BY, LIMIT) are host-side and skipped.
///
/// # Errors
///
/// [`ParseError`] on malformed input.
pub(crate) fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut p = Parser {
        tokens: tokenize(input)?,
        pos: 0,
    };
    p.expect_keyword("select")?;
    p.projection_item()?;
    while p.peek() == Some(&Token::Symbol(',')) {
        p.pos += 1;
        p.projection_item()?;
    }
    p.expect_keyword("from")?;
    let mut tables = Vec::new();
    loop {
        match p.next() {
            Some(Token::Ident(t)) => tables.push(t),
            other => return err(format!("bad table name {other:?}")),
        }
        if p.peek() == Some(&Token::Symbol(',')) {
            p.pos += 1;
        } else {
            break;
        }
    }
    let predicate = if p.is_keyword("where") {
        p.pos += 1;
        Some(p.expr()?)
    } else {
        None
    };
    Ok(Query { tables, predicate })
}

/// Parses a bare predicate (the segment mode's second half).
///
/// # Errors
///
/// [`ParseError`] on malformed input or trailing tokens.
pub fn parse_predicate(input: &str) -> Result<Expr, ParseError> {
    let mut p = Parser {
        tokens: tokenize(input)?,
        pos: 0,
    };
    let e = p.expr()?;
    if p.peek().is_some() {
        return err(format!("trailing tokens after predicate: {:?}", p.peek()));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select_where() {
        let q = parse_query("SELECT * FROM particles WHERE energy > 1.5").unwrap();
        assert_eq!(q.tables, vec!["particles"]);
        let p = q.predicate.unwrap();
        assert_eq!(
            p,
            Expr::Cmp {
                left: Operand::Col("energy".into()),
                op: CmpOp::Gt,
                right: Operand::Lit(Value::Float(1.5)),
            }
        );
    }

    #[test]
    fn and_or_precedence() {
        // a = 1 OR b = 2 AND c = 3  ⇒  a=1 OR (b=2 AND c=3)
        let e = parse_predicate("a = 1 OR b = 2 AND c = 3").unwrap();
        match e {
            Expr::Or(_, rhs) => assert!(matches!(*rhs, Expr::And(_, _))),
            other => panic!("wrong precedence: {other:?}"),
        }
    }

    #[test]
    fn parentheses_override() {
        let e = parse_predicate("(a = 1 OR b = 2) AND c = 3").unwrap();
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn not_operator() {
        let e = parse_predicate("NOT a = 1").unwrap();
        assert!(matches!(e, Expr::Not(_)));
    }

    #[test]
    fn string_and_date_literals() {
        let e = parse_predicate("l_shipdate <= '1998-09-02'").unwrap();
        assert_eq!(
            e,
            Expr::Cmp {
                left: Operand::Col("l_shipdate".into()),
                op: CmpOp::Le,
                right: Operand::Lit(Value::Str("1998-09-02".into())),
            }
        );
    }

    #[test]
    fn all_comparison_operators() {
        for (text, op) in [
            ("a = 1", CmpOp::Eq),
            ("a != 1", CmpOp::Ne),
            ("a <> 1", CmpOp::Ne),
            ("a < 1", CmpOp::Lt),
            ("a <= 1", CmpOp::Le),
            ("a > 1", CmpOp::Gt),
            ("a >= 1", CmpOp::Ge),
        ] {
            match parse_predicate(text).unwrap() {
                Expr::Cmp { op: got, .. } => assert_eq!(got, op, "{text}"),
                other => panic!("{text}: {other:?}"),
            }
        }
    }

    #[test]
    fn tpch_q1_shape() {
        let q = parse_query(
            "SELECT l_returnflag, l_linestatus, sum(l_quantity), count(*) FROM lineitem \
             WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus",
        )
        .unwrap();
        assert_eq!(q.tables, vec!["lineitem"]);
        // The GROUP BY tail is skipped, not read into the predicate.
        assert_eq!(
            q.predicate,
            Some(parse_predicate("l_shipdate <= '1998-09-02'").unwrap())
        );
    }

    #[test]
    fn multi_table_from_list() {
        let q = parse_query(
            "SELECT s_name FROM part, supplier, region WHERE r_name = 'EUROPE' AND p_size = 15",
        )
        .unwrap();
        assert_eq!(q.tables, vec!["part", "supplier", "region"]);
    }

    #[test]
    fn parse_print_parse_fixpoint() {
        for sql in [
            "SELECT * FROM t WHERE a > 1",
            "SELECT a, b FROM t WHERE a = 'x' AND b < 2.5",
            "SELECT count(*) FROM t, u WHERE a >= 1 OR b != 'y'",
            "SELECT * FROM t WHERE NOT (a = 1 AND b = 2)",
        ] {
            // The predicate printer normalizes parenthesisation; what it
            // prints parses back to the same tree.
            let p1 = parse_query(sql).unwrap().predicate.unwrap();
            let p2 = parse_predicate(&p1.to_string()).unwrap();
            assert_eq!(p1, p2, "{sql}");
        }
    }

    #[test]
    fn columns_collected() {
        let e = parse_predicate("a > 1 AND b = 'x' OR c < d").unwrap();
        let mut cols = e.columns();
        cols.sort_unstable();
        assert_eq!(cols, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_query("SELECT FROM t").is_err());
        assert!(parse_query("* FROM t").is_err());
        assert!(parse_query("SELECT sum(1) FROM t").is_err());
        assert!(parse_query("SELECT sum(a FROM t").is_err());
        assert!(parse_predicate("a >").is_err());
        assert!(parse_predicate("a = 'unterminated").is_err());
        assert!(parse_predicate("a = 1 garbage garbage").is_err());
        assert!(parse_predicate("a ! 1").is_err());
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let e = parse_predicate("a > -5 AND b < 3.05e8").unwrap();
        let cols = e.columns();
        assert_eq!(cols.len(), 2);
        match e {
            Expr::And(l, r) => {
                assert!(matches!(
                    *l,
                    Expr::Cmp {
                        right: Operand::Lit(Value::Int(-5)),
                        ..
                    }
                ));
                assert!(matches!(
                    *r,
                    Expr::Cmp {
                        right: Operand::Lit(Value::Float(_)),
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }
}
