//! History pattern strings — the labels of state-machine states.

use std::fmt;
use std::str::FromStr;

/// Error parsing a [`HistPattern`] from its string notation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParsePatternError {
    /// A character other than `0` or `1` at the given byte index.
    InvalidChar {
        /// Byte offset of the offending character.
        index: usize,
        /// The character found.
        found: char,
    },
    /// The string encodes more than 16 outcomes.
    TooLong {
        /// Number of characters supplied.
        len: usize,
    },
}

impl fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePatternError::InvalidChar { index, found } => {
                write!(f, "invalid pattern character {found:?} at index {index}")
            }
            ParsePatternError::TooLong { len } => {
                write!(f, "pattern length {len} exceeds 16 outcomes")
            }
        }
    }
}

impl std::error::Error for ParsePatternError {}

/// A branch-history pattern: up to 16 outcomes with the *newest* outcome in
/// bit 0, exactly like [`brepl_predict::PatternTable`] keys. The paper
/// writes these as strings with the rightmost digit most recent; `Display`
/// follows that convention.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HistPattern {
    bits: u32,
    len: u32,
}

impl HistPattern {
    /// The empty pattern (matches everything).
    pub const EMPTY: HistPattern = HistPattern { bits: 0, len: 0 };

    /// Creates a pattern from `len` low bits of `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 16`.
    pub fn new(bits: u32, len: u32) -> Self {
        assert!(len <= 16, "pattern length exceeds 16");
        let mask = if len == 0 { 0 } else { (1u32 << len) - 1 };
        HistPattern {
            bits: bits & mask,
            len,
        }
    }

    /// Parses the paper's string notation, e.g. `"011"` (rightmost digit
    /// most recent). Also available through [`FromStr`] (`s.parse()`).
    ///
    /// # Errors
    ///
    /// Returns [`ParsePatternError`] on characters other than `0`/`1` or
    /// on more than 16 outcomes — malformed caller input never aborts the
    /// process.
    pub fn parse(s: &str) -> Result<Self, ParsePatternError> {
        let n = s.chars().count();
        if n > 16 {
            return Err(ParsePatternError::TooLong { len: n });
        }
        let mut bits = 0u32;
        for (i, (idx, c)) in s.char_indices().rev().enumerate() {
            match c {
                '0' => {}
                '1' => bits |= 1 << i,
                _ => {
                    return Err(ParsePatternError::InvalidChar {
                        index: idx,
                        found: c,
                    })
                }
            }
        }
        Ok(HistPattern::new(bits, n as u32))
    }

    /// The raw bits (newest outcome in bit 0).
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Number of outcomes recorded.
    pub fn len(self) -> u32 {
        self.len
    }

    /// True for the empty pattern.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Appends a new outcome (shifting older outcomes up), truncating to
    /// `max_len` outcomes.
    pub fn append(self, taken: bool, max_len: u32) -> HistPattern {
        let bits = self.bits << 1 | u32::from(taken);
        let len = (self.len + 1).min(max_len);
        HistPattern::new(bits, len)
    }

    /// Extends the pattern with an *older* outcome at the far end —
    /// the refinement step that splits a state in two.
    pub fn prepend_older(self, taken: bool) -> HistPattern {
        HistPattern::new(self.bits | u32::from(taken) << self.len, self.len + 1)
    }

    /// True if `self` is a suffix of `other` — i.e. every history matching
    /// `other` also matches `self` (`self` records the same most recent
    /// outcomes, and fewer of them).
    pub fn is_suffix_of(self, other: HistPattern) -> bool {
        if self.len > other.len {
            return false;
        }
        let mask = if self.len == 0 {
            0
        } else {
            (1u32 << self.len) - 1
        };
        other.bits & mask == self.bits
    }

    /// True if a concrete history value (of `hist_len >= self.len()` bits)
    /// matches this pattern.
    pub fn matches(self, history: u32, hist_len: u32) -> bool {
        debug_assert!(hist_len >= self.len);
        let _ = hist_len;
        let mask = if self.len == 0 {
            0
        } else {
            (1u32 << self.len) - 1
        };
        history & mask == self.bits
    }
}

impl FromStr for HistPattern {
    type Err = ParsePatternError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HistPattern::parse(s)
    }
}

impl fmt::Debug for HistPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for HistPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 0 {
            return write!(f, "ε");
        }
        for i in (0..self.len).rev() {
            write!(f, "{}", self.bits >> i & 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0", "1", "01", "011", "1101", "000000000"] {
            assert_eq!(HistPattern::parse(s).unwrap().to_string(), s);
        }
        assert_eq!(HistPattern::EMPTY.to_string(), "ε");
    }

    #[test]
    fn newest_is_rightmost() {
        // The rightmost character is the newest outcome, in bit 0.
        assert_eq!(HistPattern::parse("01").unwrap().bits() & 1, 1);
        assert_eq!(HistPattern::parse("10").unwrap().bits() & 1, 0);
    }

    #[test]
    fn append_shifts_and_truncates() {
        let p = HistPattern::parse("011").unwrap();
        assert_eq!(p.append(false, 4).to_string(), "0110");
        assert_eq!(p.append(true, 3).to_string(), "111");
    }

    #[test]
    fn prepend_older_refines() {
        let p = HistPattern::parse("1").unwrap();
        assert_eq!(p.prepend_older(false).to_string(), "01");
        assert_eq!(p.prepend_older(true).to_string(), "11");
    }

    #[test]
    fn suffix_relation() {
        let one = HistPattern::parse("1").unwrap();
        let zero_one = HistPattern::parse("01").unwrap();
        let one_one = HistPattern::parse("11").unwrap();
        assert!(one.is_suffix_of(zero_one));
        assert!(one.is_suffix_of(one_one));
        assert!(!zero_one.is_suffix_of(one_one));
        assert!(!zero_one.is_suffix_of(one));
        assert!(HistPattern::EMPTY.is_suffix_of(one));
        assert!(one.is_suffix_of(one));
    }

    #[test]
    fn matches_concrete_history() {
        let p = HistPattern::parse("01").unwrap();
        assert!(p.matches(0b101, 3));
        assert!(!p.matches(0b111, 3));
        assert!(HistPattern::EMPTY.matches(0b111, 3));
    }

    #[test]
    fn bad_characters_are_errors_not_panics() {
        assert_eq!(
            HistPattern::parse("0x1"),
            Err(ParsePatternError::InvalidChar {
                index: 1,
                found: 'x'
            })
        );
        let e = HistPattern::parse("01☃").unwrap_err();
        assert!(matches!(
            e,
            ParsePatternError::InvalidChar { found: '☃', .. }
        ));
        assert!(e.to_string().contains("invalid pattern character"));
    }

    #[test]
    fn overlong_patterns_are_errors_not_panics() {
        let s = "01".repeat(9); // 18 outcomes
        assert_eq!(
            HistPattern::parse(&s),
            Err(ParsePatternError::TooLong { len: 18 })
        );
        // 16 outcomes is the documented maximum and still fine.
        assert!(HistPattern::parse(&"10".repeat(8)).is_ok());
    }

    #[test]
    fn from_str_round_trips() {
        let p: HistPattern = "0110".parse().unwrap();
        assert_eq!(p.to_string(), "0110");
        assert!("2".parse::<HistPattern>().is_err());
    }
}
