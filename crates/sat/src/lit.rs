//! Boolean variables, literals, and three-valued assignments.

use std::fmt;
use std::ops::Not;

/// A Boolean variable, numbered densely from zero.
///
/// Variables are created by [`Solver::new_var`](crate::Solver::new_var) (or
/// any other [`CnfSink`](crate::CnfSink)) and are only meaningful for the
/// solver instance that created them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Var(u32);

impl Var {
    /// How many variables a `Var` can name: valid indices are below this
    /// (a [`Lit`] packs the index and the sign into one `u32`).
    pub const LIMIT: usize = (u32::MAX / 2) as usize;

    /// Creates a variable from its dense index, which must be below
    /// [`Var::LIMIT`].
    #[inline]
    pub fn from_index(index: usize) -> Var {
        debug_assert!(index < Var::LIMIT, "variable index overflow");
        Var(index as u32)
    }

    /// Returns the dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// Returns the negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `2 * var + sign` where `sign == 1` means negated, so a literal
/// fits in a `u32` and indexes arrays (e.g. watch lists) directly.
///
/// ```
/// use emm_sat::{Lit, Var};
/// let v = Var::from_index(3);
/// let p = v.positive();
/// assert_eq!(!p, v.negative());
/// assert_eq!((!p).var(), v);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal over `var`; `positive == false` yields the negation.
    #[inline]
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 << 1 | (!positive) as u32)
    }

    /// Reconstructs a literal from its dense code (see [`Lit::code`]).
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Returns the dense code of this literal, suitable for array indexing.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Returns the underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is a positive (non-negated) literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns `true` if this is a negated literal.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "!x{}", self.0 >> 1)
        } else {
            write!(f, "x{}", self.0 >> 1)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A three-valued Boolean: true, false, or unassigned.
///
/// The encoding (`0 = true`, `1 = false`, `>=2 = undefined`) lets literal
/// evaluation be computed from a variable assignment with a single XOR of the
/// literal's sign bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LBool(u8);

impl LBool {
    /// The true value.
    pub const TRUE: LBool = LBool(0);
    /// The false value.
    pub const FALSE: LBool = LBool(1);
    /// The unassigned value.
    pub const UNDEF: LBool = LBool(2);

    /// Creates a defined `LBool` from a `bool`.
    #[inline]
    pub fn from_bool(b: bool) -> LBool {
        LBool(!b as u8)
    }

    /// Returns `Some(bool)` when defined, `None` when unassigned.
    #[inline]
    pub fn to_option(self) -> Option<bool> {
        match self.0 {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        }
    }

    /// Returns `true` when this value is [`LBool::TRUE`].
    #[inline]
    pub fn is_true(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` when this value is [`LBool::FALSE`].
    #[inline]
    pub fn is_false(self) -> bool {
        self.0 == 1
    }

    /// Returns `true` when unassigned.
    #[inline]
    pub fn is_undef(self) -> bool {
        self.0 >= 2
    }

    /// Applies a literal's sign: the value of literal `l` over variable value
    /// `v` is `v.xor_sign(l.is_negative())`.
    #[inline]
    pub fn xor_sign(self, negate: bool) -> LBool {
        if self.0 >= 2 {
            self
        } else {
            LBool(self.0 ^ negate as u8)
        }
    }
}

impl Default for LBool {
    fn default() -> Self {
        LBool::UNDEF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_roundtrip() {
        for idx in [0usize, 1, 5, 1000] {
            let v = Var::from_index(idx);
            assert_eq!(v.index(), idx);
            let p = v.positive();
            let n = v.negative();
            assert!(p.is_positive());
            assert!(n.is_negative());
            assert_eq!(!p, n);
            assert_eq!(!n, p);
            assert_eq!(p.var(), v);
            assert_eq!(n.var(), v);
            assert_eq!(Lit::from_code(p.code()), p);
        }
    }

    #[test]
    fn lbool_xor_sign() {
        assert_eq!(LBool::TRUE.xor_sign(false), LBool::TRUE);
        assert_eq!(LBool::TRUE.xor_sign(true), LBool::FALSE);
        assert_eq!(LBool::FALSE.xor_sign(true), LBool::TRUE);
        assert!(LBool::UNDEF.xor_sign(true).is_undef());
        assert_eq!(LBool::from_bool(true), LBool::TRUE);
        assert_eq!(LBool::from_bool(false), LBool::FALSE);
        assert_eq!(LBool::TRUE.to_option(), Some(true));
        assert_eq!(LBool::FALSE.to_option(), Some(false));
        assert_eq!(LBool::UNDEF.to_option(), None);
    }
}
