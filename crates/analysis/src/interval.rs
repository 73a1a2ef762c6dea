//! An integer interval lattice for value-range analysis over the
//! wrapping-arithmetic IR.
//!
//! Bounds are kept as `i128` with sentinel values one past the `i64`
//! range standing in for ±∞, so every concrete simulator value (always an
//! `i64`) is representable exactly and "unbounded" needs no extra flag.
//! The transfer functions mirror `brepl-sim` semantics precisely: integer
//! arithmetic **wraps**, so any finite-bound computation that could leave
//! the `i64` range degrades to [`Interval::top`] rather than claiming a
//! one-sided bound that wraparound would violate; division and remainder
//! truncate toward zero (and trap on zero divisors, which aborts the run
//! before any classification verdict is consulted); shifts mask their
//! amount to `0..64`.

use brepl_ir::{BinOp, CmpOp};

/// Lower sentinel: "unbounded below" (one past `i64::MIN`).
const NEG_INF: i128 = (i64::MIN as i128) - 1;
/// Upper sentinel: "unbounded above" (one past `i64::MAX`).
const POS_INF: i128 = (i64::MAX as i128) + 1;

/// A (possibly unbounded) range of `i64` values, or the empty set.
///
/// Invariant: either `lo > hi` (the canonical [`Interval::empty`]) or
/// `NEG_INF <= lo <= hi <= POS_INF` with each bound either a sentinel or
/// an in-range `i64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    lo: i128,
    hi: i128,
}

impl Interval {
    /// The empty interval (bottom of the lattice).
    pub fn empty() -> Self {
        Interval { lo: 1, hi: 0 }
    }

    /// The full `i64` range (top of the lattice).
    pub fn top() -> Self {
        Interval {
            lo: NEG_INF,
            hi: POS_INF,
        }
    }

    /// The singleton interval `[v, v]`.
    pub fn constant(v: i64) -> Self {
        Interval {
            lo: v as i128,
            hi: v as i128,
        }
    }

    /// The interval `[lo, hi]`; empty if `lo > hi`.
    pub fn range(lo: i64, hi: i64) -> Self {
        if lo > hi {
            Interval::empty()
        } else {
            Interval {
                lo: lo as i128,
                hi: hi as i128,
            }
        }
    }

    /// True for the empty set.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// The single contained value, if the interval is a singleton.
    pub fn as_constant(&self) -> Option<i64> {
        if self.lo == self.hi && self.lo >= i64::MIN as i128 && self.lo <= i64::MAX as i128 {
            Some(self.lo as i64)
        } else {
            None
        }
    }

    /// The lower bound as a concrete `i64` (see [`Self::hi_clamped`]).
    fn lo_clamped(&self) -> i64 {
        self.lo.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// The upper bound as a concrete `i64` (sentinels clamp to the range
    /// edge, which is exact: every runtime value is an `i64`).
    pub fn hi_clamped(&self) -> i64 {
        self.hi.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// True if `v` is in the interval.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v as i128 && (v as i128) <= self.hi
    }

    /// Set inclusion: is every value of `self` in `other`?
    pub fn subset_of(&self, other: &Interval) -> bool {
        self.is_empty() || (other.lo <= self.lo && self.hi <= other.hi)
    }

    /// Least upper bound (convex hull). This is the *join* of the
    /// may-analysis: the result covers every value either side covers.
    pub fn join(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Greatest lower bound (intersection).
    pub fn meet(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            Interval::empty()
        } else {
            Interval { lo, hi }
        }
    }

    /// Standard interval widening: a bound that moved since `old` jumps
    /// straight to its infinity, so ascending chains stabilize after at
    /// most two widenings per value.
    pub fn widen(&self, old: &Interval) -> Interval {
        if old.is_empty() {
            return *self;
        }
        if self.is_empty() {
            return *old;
        }
        Interval {
            lo: if self.lo < old.lo { NEG_INF } else { old.lo },
            hi: if self.hi > old.hi { POS_INF } else { old.hi },
        }
    }

    /// Canonicalizes a raw bound pair computed in `i128`: bounds past the
    /// `i64` range collapse to the matching sentinel, and a pair denoting
    /// no representable value at all becomes the canonical empty.
    fn canon(lo: i128, hi: i128) -> Interval {
        if lo > hi || hi < i64::MIN as i128 || lo > i64::MAX as i128 {
            return Interval::empty();
        }
        Interval {
            lo: if lo < i64::MIN as i128 { NEG_INF } else { lo },
            hi: if hi > i64::MAX as i128 { POS_INF } else { hi },
        }
    }

    /// True if any bound is a sentinel (the concrete result range is then
    /// not fully known, so wrapping arithmetic must give up).
    fn unbounded(&self) -> bool {
        self.lo <= NEG_INF || self.hi >= POS_INF
    }

    /// Sound transfer for wrapping binary arithmetic: compute exact bounds
    /// in `i128` and return them only when the whole result range fits in
    /// `i64` (then no operand pair wraps); otherwise [`Interval::top`].
    fn wrapping(lo: i128, hi: i128) -> Interval {
        if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
            Interval { lo, hi }
        } else {
            Interval::top()
        }
    }

    /// Abstract `self op rhs`, matching the simulator's integer semantics.
    pub fn binop(op: BinOp, a: &Interval, b: &Interval) -> Interval {
        if a.is_empty() || b.is_empty() {
            return Interval::empty();
        }
        match op {
            BinOp::Add => {
                if a.unbounded() || b.unbounded() {
                    Interval::top()
                } else {
                    Interval::wrapping(a.lo + b.lo, a.hi + b.hi)
                }
            }
            BinOp::Sub => {
                if a.unbounded() || b.unbounded() {
                    Interval::top()
                } else {
                    Interval::wrapping(a.lo - b.hi, a.hi - b.lo)
                }
            }
            BinOp::Mul => {
                if a.unbounded() || b.unbounded() {
                    Interval::top()
                } else {
                    let c = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
                    Interval::wrapping(
                        c.iter().copied().min().unwrap(),
                        c.iter().copied().max().unwrap(),
                    )
                }
            }
            BinOp::Div => match b.as_constant() {
                // x / k truncates toward zero, which is monotone in x for
                // fixed k, so the endpoint quotients bound the result.
                // (i64::MIN / -1 wraps; that pair is outside the constant
                // fast path only when it can occur, so check it.)
                Some(k) if k != 0 => {
                    let lo = a.lo_clamped() as i128;
                    let hi = a.hi_clamped() as i128;
                    let q1 = lo / k as i128;
                    let q2 = hi / k as i128;
                    Interval::wrapping(q1.min(q2), q1.max(q2))
                }
                _ => Interval::top(),
            },
            BinOp::Rem => match b.as_constant() {
                Some(k) if k != 0 => {
                    let m = (k as i128).abs() - 1;
                    let lo = a.lo_clamped() as i128;
                    let hi = a.hi_clamped() as i128;
                    // Truncated remainder keeps the dividend's sign.
                    if lo >= 0 {
                        Interval::canon(0, hi.min(m))
                    } else if hi <= 0 {
                        Interval::canon(lo.max(-m), 0)
                    } else {
                        Interval::canon(-m, m)
                    }
                }
                _ => Interval::top(),
            },
            BinOp::And => {
                let (alo, ahi) = (a.lo_clamped(), a.hi_clamped());
                let (blo, bhi) = (b.lo_clamped(), b.hi_clamped());
                if alo >= 0 && blo >= 0 {
                    // Both non-negative: the result drops bits only.
                    Interval::canon(0, (ahi as i128).min(bhi as i128))
                } else if blo == bhi && blo >= 0 {
                    Interval::canon(0, bhi as i128)
                } else if alo == ahi && alo >= 0 {
                    Interval::canon(0, ahi as i128)
                } else {
                    Interval::top()
                }
            }
            BinOp::Or | BinOp::Xor => {
                let (alo, ahi) = (a.lo_clamped(), a.hi_clamped());
                let (blo, bhi) = (b.lo_clamped(), b.hi_clamped());
                if alo >= 0 && blo >= 0 && !a.unbounded() && !b.unbounded() {
                    // For x, y >= 0: x|y <= x+y and x^y <= x+y; both stay
                    // non-negative.
                    Interval::wrapping(0, ahi as i128 + bhi as i128)
                } else {
                    Interval::top()
                }
            }
            BinOp::Shl => match b.as_constant() {
                Some(s) => {
                    // The simulator masks the amount to 0..64.
                    let s = (s as u32) & 63;
                    if a.unbounded() {
                        Interval::top()
                    } else {
                        Interval::wrapping(a.lo << s, a.hi << s)
                    }
                }
                None => Interval::top(),
            },
            BinOp::Shr => match b.as_constant() {
                Some(s) => {
                    let s = (s as u32) & 63;
                    // Arithmetic shift of an i64 never leaves the i64
                    // range and is monotone, so clamp the (possibly
                    // sentinel) bounds to concrete values first.
                    let lo = (a.lo_clamped() >> s) as i128;
                    let hi = (a.hi_clamped() >> s) as i128;
                    Interval::canon(lo, hi)
                }
                None => Interval::top(),
            },
        }
    }

    /// Abstract comparison `a op b` as a 0/1 interval: `[1,1]` when every
    /// value pair satisfies the predicate, `[0,0]` when none does,
    /// `[0,1]` otherwise.
    pub fn cmp(op: CmpOp, a: &Interval, b: &Interval) -> Interval {
        if a.is_empty() || b.is_empty() {
            return Interval::empty();
        }
        let (always, never) = match op {
            CmpOp::Eq => (
                a.as_constant().is_some() && a.as_constant() == b.as_constant(),
                a.meet(b).is_empty(),
            ),
            CmpOp::Ne => (
                a.meet(b).is_empty(),
                a.as_constant().is_some() && a.as_constant() == b.as_constant(),
            ),
            CmpOp::Lt => (a.hi < b.lo, a.lo >= b.hi),
            CmpOp::Le => (a.hi <= b.lo, a.lo > b.hi),
            CmpOp::Gt => (a.lo > b.hi, a.hi <= b.lo),
            CmpOp::Ge => (a.lo >= b.hi, a.hi < b.lo),
        };
        if always {
            Interval::constant(1)
        } else if never {
            Interval::constant(0)
        } else {
            Interval::range(0, 1)
        }
    }

    /// Refines `self` under the assumption `self op [k,k]` holds
    /// (`hold = true`) or fails (`hold = false`): the branch-edge
    /// refinement of conditional constant propagation. Returns the
    /// (possibly empty) restriction; never grows the interval.
    pub fn refine_cmp(&self, op: CmpOp, k: i64, hold: bool) -> Interval {
        let op = if hold { op } else { op.negated() };
        let constraint = match op {
            CmpOp::Eq => Interval::constant(k),
            CmpOp::Ne => {
                // Only singleton exclusions shrink an interval.
                if self.as_constant() == Some(k) {
                    Interval::empty()
                } else if self.lo == k as i128 {
                    return Interval::canon(self.lo + 1, self.hi);
                } else if self.hi == k as i128 {
                    return Interval::canon(self.lo, self.hi - 1);
                } else {
                    return *self;
                }
            }
            CmpOp::Lt => Interval::canon(NEG_INF, k as i128 - 1),
            CmpOp::Le => Interval::canon(NEG_INF, k as i128),
            CmpOp::Gt => Interval::canon(k as i128 + 1, POS_INF),
            CmpOp::Ge => Interval::canon(k as i128, POS_INF),
        };
        self.meet(&constraint)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("∅");
        }
        match (self.lo <= NEG_INF, self.hi >= POS_INF) {
            (true, true) => f.write_str("[-inf, +inf]"),
            (true, false) => write!(f, "[-inf, {}]", self.hi),
            (false, true) => write!(f, "[{}, +inf]", self.lo),
            (false, false) => write!(f, "[{}, {}]", self.lo, self.hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The xorshift generator shared by the in-tree property tests.
    struct Gen(u64);

    impl Gen {
        fn new(seed: u64) -> Self {
            Gen(seed | 0x1234_5678)
        }
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        /// A value biased toward small magnitudes and range edges, where
        /// the transfer corner cases live.
        fn value(&mut self) -> i64 {
            match self.below(8) {
                0 => i64::MIN + self.below(4) as i64,
                1 => i64::MAX - self.below(4) as i64,
                2 => 0,
                3..=5 => self.below(64) as i64 - 32,
                _ => self.next() as i64,
            }
        }
        fn interval(&mut self) -> Interval {
            match self.below(10) {
                0 => Interval::empty(),
                1 => Interval::top(),
                2 => {
                    let v = self.value();
                    Interval::constant(v)
                }
                3 => Interval::canon(NEG_INF, self.value() as i128),
                4 => Interval::canon(self.value() as i128, POS_INF),
                _ => {
                    let a = self.value();
                    let b = self.value();
                    Interval::range(a.min(b), a.max(b))
                }
            }
        }
        /// A concrete member of `iv` (which must be non-empty).
        fn member(&mut self, iv: &Interval) -> i64 {
            let lo = iv.lo_clamped();
            let hi = iv.hi_clamped();
            let span = (hi as i128 - lo as i128 + 1) as u128;
            let off = (self.next() as u128) % span;
            (lo as i128 + off as i128) as i64
        }
    }

    const OPS: [BinOp; 10] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    const CMPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Concrete evaluation mirroring `brepl-sim`'s arith.rs.
    fn concrete(op: BinOp, x: i64, y: i64) -> Option<i64> {
        Some(match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return None; // trap
                }
                x.wrapping_div(y)
            }
            BinOp::Rem => {
                if y == 0 {
                    return None; // trap
                }
                x.wrapping_rem(y)
            }
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Shr => x.wrapping_shr(y as u32 & 63),
        })
    }

    #[test]
    fn join_is_commutative_idempotent_and_bounding() {
        let mut g = Gen::new(11);
        for _ in 0..2000 {
            let a = g.interval();
            let b = g.interval();
            assert_eq!(a.join(&b), b.join(&a), "join commutes: {a} {b}");
            assert_eq!(a.join(&a), a, "join idempotent: {a}");
            assert!(a.subset_of(&a.join(&b)), "{a} ⊆ {a} ⊔ {b}");
            assert!(b.subset_of(&a.join(&b)), "{b} ⊆ {a} ⊔ {b}");
        }
    }

    #[test]
    fn meet_is_commutative_idempotent_and_bounded() {
        let mut g = Gen::new(12);
        for _ in 0..2000 {
            let a = g.interval();
            let b = g.interval();
            assert_eq!(a.meet(&b), b.meet(&a), "meet commutes: {a} {b}");
            assert_eq!(a.meet(&a), a, "meet idempotent: {a}");
            assert!(a.meet(&b).subset_of(&a), "{a} ⊓ {b} ⊆ {a}");
            assert!(a.meet(&b).subset_of(&b), "{a} ⊓ {b} ⊆ {b}");
        }
    }

    #[test]
    fn lattice_absorption_laws() {
        let mut g = Gen::new(13);
        for _ in 0..2000 {
            let a = g.interval();
            let b = g.interval();
            assert_eq!(a.join(&a.meet(&b)), a, "absorption: {a} {b}");
            // Meet-absorption holds only up to convexity for join (the
            // hull can overshoot), but join(a, b) always contains a, so:
            assert_eq!(a.meet(&a.join(&b)), a, "absorption: {a} {b}");
        }
    }

    /// Transfer soundness: for random intervals and random members, the
    /// concrete result is inside the abstract result.
    #[test]
    fn binop_transfer_is_sound_on_members() {
        let mut g = Gen::new(14);
        for _ in 0..4000 {
            let a = g.interval();
            let b = g.interval();
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let op = OPS[g.below(OPS.len() as u64) as usize];
            let out = Interval::binop(op, &a, &b);
            for _ in 0..8 {
                let x = g.member(&a);
                let y = g.member(&b);
                if let Some(r) = concrete(op, x, y) {
                    assert!(
                        out.contains(r),
                        "{op:?}: {x} ∈ {a}, {y} ∈ {b}, concrete {r} ∉ {out}"
                    );
                }
            }
        }
    }

    /// Transfer monotonicity: growing an input never shrinks the output.
    #[test]
    fn binop_transfer_is_monotone() {
        let mut g = Gen::new(15);
        for _ in 0..4000 {
            let a = g.interval();
            let b = g.interval();
            let a2 = a.join(&g.interval());
            let b2 = b.join(&g.interval());
            let op = OPS[g.below(OPS.len() as u64) as usize];
            let small = Interval::binop(op, &a, &b);
            let big = Interval::binop(op, &a2, &b2);
            assert!(
                small.subset_of(&big),
                "{op:?} not monotone: {a}⊆{a2}, {b}⊆{b2}, but {small} ⊄ {big}"
            );
        }
    }

    #[test]
    fn cmp_transfer_is_sound_and_monotone() {
        let mut g = Gen::new(16);
        for _ in 0..4000 {
            let a = g.interval();
            let b = g.interval();
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let op = CMPS[g.below(CMPS.len() as u64) as usize];
            let out = Interval::cmp(op, &a, &b);
            for _ in 0..8 {
                let x = g.member(&a);
                let y = g.member(&b);
                let r = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                };
                assert!(out.contains(i64::from(r)), "{op:?} {a} {b}: {r} ∉ {out}");
            }
            let a2 = a.join(&g.interval());
            let b2 = b.join(&g.interval());
            assert!(
                out.subset_of(&Interval::cmp(op, &a2, &b2)),
                "cmp not monotone"
            );
        }
    }

    /// Edge refinement soundness: a member satisfying (or failing) the
    /// predicate survives refinement; refinement never grows the set.
    #[test]
    fn refine_cmp_is_sound_and_shrinking() {
        let mut g = Gen::new(17);
        for _ in 0..4000 {
            let a = g.interval();
            if a.is_empty() {
                continue;
            }
            let k = if g.below(2) == 0 {
                g.value()
            } else {
                g.member(&a)
            };
            let op = CMPS[g.below(CMPS.len() as u64) as usize];
            for hold in [false, true] {
                let refined = a.refine_cmp(op, k, hold);
                assert!(refined.subset_of(&a), "refine grew {a} to {refined}");
                for _ in 0..8 {
                    let x = g.member(&a);
                    let sat = match op {
                        CmpOp::Eq => x == k,
                        CmpOp::Ne => x != k,
                        CmpOp::Lt => x < k,
                        CmpOp::Le => x <= k,
                        CmpOp::Gt => x > k,
                        CmpOp::Ge => x >= k,
                    };
                    if sat == hold {
                        assert!(
                            refined.contains(x),
                            "refine({a}, {op:?} {k}, {hold}) dropped {x}: {refined}"
                        );
                    }
                }
            }
        }
    }

    /// Widening termination: any ascending chain, widened step by step,
    /// stabilizes within a handful of steps — the adversarial loop-nest
    /// shape (bounds creeping both directions every iteration) included.
    #[test]
    fn widening_terminates_on_adversarial_chains() {
        let mut g = Gen::new(18);
        for _ in 0..500 {
            let mut cur = g.interval();
            let mut widenings = 0usize;
            for _step in 0..1000 {
                // Adversarial growth: creep a bound, jump, or join in a
                // random interval — always at least weakly ascending.
                let grown = match g.below(3) {
                    0 => cur.join(&g.interval()),
                    1 => cur.join(&Interval::constant(g.value())),
                    _ => {
                        let lo = cur.lo_clamped().saturating_sub(1);
                        let hi = cur.hi_clamped().saturating_add(1);
                        cur.join(&Interval::range(lo, hi))
                    }
                };
                let next = grown.widen(&cur);
                assert!(cur.subset_of(&next), "widening must ascend");
                if next == cur {
                    break;
                }
                cur = next;
                widenings += 1;
            }
            // Each widening pushes at least one bound to its sentinel, so
            // two widenings (plus the possible initial jump out of empty)
            // exhaust the chain.
            assert!(widenings <= 3, "chain did not stabilize: {widenings}");
        }
        // Deterministic worst case: nested loops each bumping a counter.
        let mut iv = Interval::constant(0);
        for depth in 0..64 {
            let bumped = Interval::binop(BinOp::Add, &iv, &Interval::constant(1));
            let next = iv.join(&bumped).widen(&iv);
            if next == iv {
                assert!(depth <= 2, "nested bump chain widened too slowly");
                break;
            }
            iv = next;
        }
        assert!(iv.contains(i64::MAX), "widened bound must cover the loop");
    }

    #[test]
    fn display_covers_all_shapes() {
        assert_eq!(Interval::empty().to_string(), "∅");
        assert_eq!(Interval::top().to_string(), "[-inf, +inf]");
        assert_eq!(Interval::range(1, 5).to_string(), "[1, 5]");
        assert_eq!(Interval::canon(NEG_INF, 7).to_string(), "[-inf, 7]");
        assert_eq!(Interval::canon(7, POS_INF).to_string(), "[7, +inf]");
    }
}
