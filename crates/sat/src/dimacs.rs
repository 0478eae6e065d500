//! Minimal DIMACS CNF reading/writing: the clause store of CNF dumps,
//! used by tests and debugging tools.

use crate::lit::{Lit, Var};
use crate::sink::CnfSink;

/// A DIMACS CNF instance, and a [`CnfSink`] that collects one.
///
/// Clauses are stored back to back in one literal vector, with the end
/// offset of each clause in a second one, so adding a clause allocates
/// nothing once the vectors have grown.
///
/// ```
/// use emm_sat::dimacs::Cnf;
/// use emm_sat::CnfSink;
///
/// let mut cnf = Cnf::new();
/// let a = cnf.new_var().positive();
/// let b = cnf.new_var().positive();
/// cnf.add_clause(&[a, !b]);
/// cnf.add_clause(&[b]);
/// assert_eq!(cnf.to_dimacs(), "p cnf 2 2\n1 -2 0\n2 0\n");
/// assert_eq!(Cnf::parse(&cnf.to_dimacs()), Ok(cnf));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Declared (or inferred, or created) variable count.
    num_vars: usize,
    /// Every clause's literals, in clause order.
    lits: Vec<Lit>,
    /// End offset in `lits` of each clause.
    ends: Vec<usize>,
}

/// Error parsing a DIMACS file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dimacs parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDimacsError {}

impl Cnf {
    /// Creates an empty instance with no variables.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// The clauses, in insertion order.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let clause = &self.lits[start..end];
            start = end;
            clause
        })
    }

    /// Ends the clause made of the literals pushed since the last one.
    fn close_clause(&mut self) {
        self.ends.push(self.lits.len());
    }

    /// Parses DIMACS CNF text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] on malformed input (bad tokens, literal
    /// indices exceeding the header, unterminated clauses are tolerated).
    pub fn parse(text: &str) -> Result<Cnf, ParseDimacsError> {
        let mut cnf = Cnf::default();
        let mut declared_vars: Option<usize> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut it = rest.split_whitespace();
                if it.next() != Some("cnf") {
                    return Err(ParseDimacsError {
                        line: lineno + 1,
                        message: "expected 'p cnf <vars> <clauses>'".into(),
                    });
                }
                let vars: usize =
                    it.next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| ParseDimacsError {
                            line: lineno + 1,
                            message: "bad variable count".into(),
                        })?;
                if vars > Var::LIMIT {
                    return Err(ParseDimacsError {
                        line: lineno + 1,
                        message: format!("{vars} variables exceed the limit of {}", Var::LIMIT),
                    });
                }
                declared_vars = Some(vars);
                cnf.num_vars = vars;
                continue;
            }
            for tok in line.split_whitespace() {
                let v: i64 = tok.parse().map_err(|_| ParseDimacsError {
                    line: lineno + 1,
                    message: format!("bad literal token {tok:?}"),
                })?;
                if v == 0 {
                    cnf.close_clause();
                } else {
                    let idx = v.unsigned_abs() as usize - 1;
                    if idx >= Var::LIMIT {
                        return Err(ParseDimacsError {
                            line: lineno + 1,
                            message: format!(
                                "literal {v} exceeds the limit of {} vars",
                                Var::LIMIT
                            ),
                        });
                    }
                    if let Some(dv) = declared_vars {
                        if idx >= dv {
                            return Err(ParseDimacsError {
                                line: lineno + 1,
                                message: format!("literal {v} exceeds declared {dv} vars"),
                            });
                        }
                    }
                    cnf.num_vars = cnf.num_vars.max(idx + 1);
                    cnf.lits.push(Lit::new(Var::from_index(idx), v > 0));
                }
            }
        }
        if cnf.lits.len() > cnf.ends.last().copied().unwrap_or(0) {
            cnf.close_clause();
        }
        Ok(cnf)
    }

    /// Renders the instance as DIMACS CNF text.
    pub fn to_dimacs(&self) -> String {
        self.to_dimacs_with_comments(&[])
    }

    /// Renders the instance as DIMACS CNF text after one `c` comment line
    /// per entry of `comments` (each a single line, without the `c `).
    ///
    /// The text is written byte by byte into one buffer reserved up front
    /// for literals over [`Cnf::num_vars`] variables.
    pub fn to_dimacs_with_comments(&self, comments: &[&str]) -> String {
        let header = format!("p cnf {} {}\n", self.num_vars, self.num_clauses());
        let comment_bytes: usize = comments.iter().map(|c| c.len() + 3).sum();
        // A literal is at most '-', the digits of `num_vars`, and ' '; a
        // clause ends in "0\n".
        let lit_bytes = self.num_vars.to_string().len() + 2;
        let mut out = Vec::with_capacity(
            comment_bytes + header.len() + self.lits.len() * lit_bytes + self.ends.len() * 2,
        );
        for comment in comments {
            out.extend_from_slice(b"c ");
            out.extend_from_slice(comment.as_bytes());
            out.push(b'\n');
        }
        out.extend_from_slice(header.as_bytes());
        for clause in self.clauses() {
            for &l in clause {
                if l.is_negative() {
                    out.push(b'-');
                }
                push_decimal(&mut out, l.var().index() as u64 + 1);
                out.push(b' ');
            }
            out.extend_from_slice(b"0\n");
        }
        String::from_utf8(out).expect("comments are UTF-8 and the rest is ASCII")
    }

    /// Loads the instance into a fresh solver.
    pub fn to_solver(&self) -> crate::Solver {
        let mut s = crate::Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for clause in self.clauses() {
            s.add_clause(clause);
        }
        s
    }
}

impl CnfSink for Cnf {
    fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.lits.extend_from_slice(lits);
        self.close_clause();
    }
}

/// Appends the decimal digits of `n` to `out`.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    #[test]
    fn parse_roundtrip() {
        // Negative literals, a 10-digit variable, units and an empty
        // clause, in an order the writer must keep.
        let text = "p cnf 1000000000 5\n-1000000000 7 0\n3 0\n-2 -1 1000000000 0\n0\n-5 0\n";
        let cnf = Cnf::parse(&format!("c comment\n{text}")).expect("parse");
        assert_eq!(cnf.num_vars(), 1_000_000_000);
        let high = Var::from_index(999_999_999);
        let v = |i: usize| Var::from_index(i - 1);
        let clauses: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(
            clauses,
            [
                &[high.negative(), v(7).positive()][..],
                &[v(3).positive()][..],
                &[v(2).negative(), v(1).negative(), high.positive()][..],
                &[][..],
                &[v(5).negative()][..],
            ]
        );
        assert_eq!(cnf.to_dimacs(), text);
        assert_eq!(Cnf::parse(&cnf.to_dimacs()), Ok(cnf));
    }

    #[test]
    fn parse_rejects_overflow_literal() {
        assert!(Cnf::parse("p cnf 1 1\n2 0\n").is_err());
        // Indices and declared counts past what a `Var` can name are
        // errors, not silently truncated variables.
        assert!(Cnf::parse("p cnf 5000000000 1\n4294967297 0\n").is_err());
        assert!(Cnf::parse("p cnf 5000000000 0\n").is_err());
        assert!(Cnf::parse("4294967297 0\n").is_err());
        assert!(Cnf::parse("-2147483648 0\n").is_err());
        // The last index a `Var` can name still parses.
        let cnf = Cnf::parse("2147483647 0\n").expect("in range");
        assert_eq!(cnf.num_vars(), Var::LIMIT);
        assert!(Cnf::parse("p cnf 2147483647 0\n").is_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cnf::parse("p cnf 1 1\nxyz 0\n").is_err());
    }

    #[test]
    fn to_solver_solves() {
        let cnf = Cnf::parse("p cnf 2 2\n1 2 0\n-1 0\n").expect("parse");
        let mut s = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
        let cnf2 = Cnf::parse("p cnf 1 2\n1 0\n-1 0\n").expect("parse");
        assert_eq!(cnf2.to_solver().solve(), SolveResult::Unsat);
    }

    #[test]
    fn unterminated_last_clause_is_kept() {
        let cnf = Cnf::parse("p cnf 3 2\n1 0\n-2 3").expect("parse");
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.to_dimacs(), "p cnf 3 2\n1 0\n-2 3 0\n");
    }

    #[test]
    fn cnf_sink_counts_vars_and_keeps_insertion_order() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var().positive();
        let b = cnf.new_var().positive();
        cnf.add_clause(&[a, !b]);
        let g = cnf.add_and_gate(a, b);
        cnf.assert_true(g);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(g, Var::from_index(2).positive());
        let clauses: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(
            clauses,
            [
                &[a, !b][..],
                &[!g, a][..],
                &[!g, b][..],
                &[g, !a, !b][..],
                &[g][..],
            ]
        );
        assert_eq!(
            cnf.to_dimacs(),
            "p cnf 3 5\n1 -2 0\n-3 1 0\n-3 2 0\n3 -1 -2 0\n3 0\n"
        );
        assert_eq!(cnf.to_solver().solve(), SolveResult::Sat);
    }
}
