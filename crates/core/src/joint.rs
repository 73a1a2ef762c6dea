//! Joint state-budget allocation for several branches in one loop — the
//! paper's §6 ("Further Work"):
//!
//! > "A problem of our code replication scheme is that the code size is
//! > multiplied if more than one branch in a loop should be improved. A
//! > possible solution treats all branches of that loop at the same time
//! > and constructs a single state machine for all branches using a higher
//! > number of states. In that case the search for the optimal state
//! > machine must be replaced by a branch-and-bound search since the
//! > search time grows exponentially with the number of states."
//!
//! Our product-state replication already realizes the "single machine for
//! all branches" (the product automaton); what remains is the *search*:
//! given per-branch accuracy curves (mispredictions as a function of that
//! branch's machine size) and a total product budget, choose each branch's
//! size so the product stays within budget and total mispredictions are
//! minimal. The size vectors are exponential in the number of branches,
//! but the search need not be: once the first `i` sizes are fixed, all
//! that matters to the rest is the quotient `budget / product`, and a
//! budget `B` has at most `2·√B` distinct quotients. An exact dynamic
//! program over `(branch, quotient)` therefore fills at most
//! `branches × 2√B` cells — 18 × 44 for the 512-state product cap — where
//! a branch-and-bound over the size vectors visits millions of nodes on
//! the same loops.

use brepl_ir::BranchId;

/// One branch's accuracy curve: `misses[n]` is the misprediction count of
/// its best machine with *exactly* `n + 1` states (`misses[0]` = profile).
/// Curves need not be monotone; the search handles dips and plateaus.
#[derive(Clone, Debug)]
pub struct BranchCurve {
    /// The branch this curve belongs to.
    pub site: BranchId,
    /// Mispredictions by machine size; index 0 is the 1-state (profile)
    /// prediction.
    pub misses: Vec<u64>,
}

impl BranchCurve {
    /// The largest size that fits in `remaining` states.
    fn max_size(&self, remaining: u64) -> usize {
        remaining.min(self.misses.len() as u64) as usize
    }
}

/// The outcome of a joint allocation: the chosen machine size per branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JointAllocation {
    /// `(site, states)` for every input branch, in input order.
    pub states: Vec<(BranchId, usize)>,
    /// Total mispredictions under the allocation.
    pub total_misses: u64,
    /// The product of the chosen sizes (the loop's replication factor).
    pub product: u64,
}

/// Chooses machine sizes for the branches of one loop, minimizing total
/// mispredictions subject to `product(states) <= budget`.
///
/// Exact: a dynamic program over `(branch index, remaining budget)`, where
/// the remaining budget is `budget` divided (rounding down) by the sizes
/// chosen so far. Among equally good allocations it returns the greedy
/// one — left to right, each branch at its best size within what the
/// earlier branches left, the smaller size on a tie — when that is
/// optimal, and otherwise the lexicographically greatest optimal size
/// vector. That is the choice of the depth-first branch-and-bound this
/// search replaced (greedy incumbent, larger sizes first), so selections
/// did not change with it. Costs saturate at `u64::MAX`.
///
/// # Panics
///
/// Panics if `budget == 0` or any curve is empty.
pub fn allocate_joint_states(curves: &[BranchCurve], budget: u64) -> JointAllocation {
    assert!(budget >= 1, "budget must be at least 1");
    for c in curves {
        assert!(!c.misses.is_empty(), "curve for {} is empty", c.site);
    }

    // Every remaining budget is `budget / m` for some m >= 1, since
    // (b / x) / y == b / (x * y) in integer division; ascending.
    let mut quotients = Vec::new();
    let mut m = 1;
    while m <= budget {
        let q = budget / m;
        quotients.push(q);
        m = budget / q + 1;
    }
    quotients.reverse();
    let slot = |r: u64| {
        quotients
            .binary_search(&r)
            .expect("a remaining budget is a quotient of the budget")
    };

    // best[i * width + slot(r)]: the fewest misses branches `i..` can reach
    // within `r` states. The row past the last branch is all zero.
    let width = quotients.len();
    let mut best = vec![0u64; (curves.len() + 1) * width];
    // Misses of giving branch `i` `n` of `r` states, the rest optimal.
    let with_size = |best: &[u64], i: usize, r: u64, n: usize| {
        curves[i].misses[n - 1].saturating_add(best[(i + 1) * width + slot(r / n as u64)])
    };
    for i in (0..curves.len()).rev() {
        for (q, &r) in quotients.iter().enumerate() {
            best[i * width + q] = (1..=curves[i].max_size(r))
                .map(|n| with_size(&best, i, r, n))
                .min()
                .expect("one state always fits");
        }
    }
    let total_misses = best[slot(budget)];

    let greedy = greedy_sizes(curves, budget);
    let greedy_misses = greedy
        .iter()
        .zip(curves)
        .fold(0u64, |acc, (&n, c)| acc.saturating_add(c.misses[n - 1]));
    let sizes = if greedy_misses == total_misses {
        greedy
    } else {
        let mut r = budget;
        (0..curves.len())
            .map(|i| {
                let here = best[i * width + slot(r)];
                let n = (1..=curves[i].max_size(r))
                    .rev()
                    .find(|&n| with_size(&best, i, r, n) == here)
                    .expect("the optimum is reached by some size");
                r /= n as u64;
                n
            })
            .collect()
    };

    JointAllocation {
        states: curves
            .iter()
            .zip(&sizes)
            .map(|(c, &n)| (c.site, n))
            .collect(),
        total_misses,
        product: sizes.iter().map(|&n| n as u64).product(),
    }
}

/// Left to right, each branch takes its best size within the states the
/// earlier branches left, the smaller size on a tie.
fn greedy_sizes(curves: &[BranchCurve], budget: u64) -> Vec<usize> {
    let mut remaining = budget;
    curves
        .iter()
        .map(|c| {
            let n = (1..=c.max_size(remaining))
                .min_by_key(|&n| c.misses[n - 1])
                .expect("one state always fits");
            remaining /= n as u64;
            n
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(site: u32, misses: &[u64]) -> BranchCurve {
        BranchCurve {
            site: BranchId(site),
            misses: misses.to_vec(),
        }
    }

    #[test]
    fn single_branch_takes_best_within_budget() {
        let curves = [curve(0, &[100, 40, 10, 2, 1])];
        let a = allocate_joint_states(&curves, 4);
        assert_eq!(a.states, vec![(BranchId(0), 4)]);
        assert_eq!(a.total_misses, 2);
        let b = allocate_joint_states(&curves, 100);
        assert_eq!(b.states, vec![(BranchId(0), 5)]);
        assert_eq!(b.total_misses, 1);
    }

    #[test]
    fn budget_is_shared_where_it_pays_most() {
        // Branch 0 gains a lot from 2 states; branch 1 needs 4 states to
        // gain anything. Budget 8 fits exactly 2 x 4.
        let curves = [
            curve(0, &[1000, 100, 90, 85]),
            curve(1, &[500, 500, 500, 80]),
        ];
        let a = allocate_joint_states(&curves, 8);
        assert_eq!(a.states, vec![(BranchId(0), 2), (BranchId(1), 4)]);
        assert_eq!(a.total_misses, 180);
        assert_eq!(a.product, 8);
    }

    #[test]
    fn tight_budget_prioritizes_the_bigger_win() {
        // Only one branch can get 2 states under budget 2.
        let curves = [curve(0, &[100, 10]), curve(1, &[100, 60])];
        let a = allocate_joint_states(&curves, 2);
        assert_eq!(a.states, vec![(BranchId(0), 2), (BranchId(1), 1)]);
        assert_eq!(a.total_misses, 110);
    }

    fn cost(curves: &[BranchCurve], sizes: &[usize]) -> u64 {
        sizes
            .iter()
            .zip(curves)
            .map(|(&n, c)| c.misses[n - 1])
            .sum()
    }

    /// Left to right, each branch at its cheapest size within what the
    /// earlier ones left, the smaller size on a tie.
    fn greedy(curves: &[BranchCurve], budget: u64) -> Vec<usize> {
        let mut remaining = budget;
        curves
            .iter()
            .map(|c| {
                let cap = remaining.min(c.misses.len() as u64) as usize;
                let best = c.misses[..cap].iter().min().unwrap();
                let n = 1 + c.misses.iter().position(|m| m == best).unwrap();
                remaining /= n as u64;
                n
            })
            .collect()
    }

    /// Brute force over every size vector: the optimum and the
    /// lexicographically greatest vector that reaches it.
    fn lex_greatest_optimum(curves: &[BranchCurve], budget: u64) -> (Vec<usize>, u64) {
        let mut best: Option<(Vec<usize>, u64)> = None;
        let mut sizes = vec![1usize; curves.len()];
        loop {
            let product: u64 = sizes.iter().map(|&n| n as u64).product();
            let c = cost(curves, &sizes);
            let better = best
                .as_ref()
                .is_none_or(|(b, bc)| c < *bc || (c == *bc && sizes > *b));
            if product <= budget && better {
                best = Some((sizes.clone(), c));
            }
            // Next vector in odometer order; done after the last.
            let Some(i) = (0..sizes.len()).find(|&i| sizes[i] < curves[i].misses.len()) else {
                return best.unwrap();
            };
            sizes[i] += 1;
            sizes[..i].fill(1);
        }
    }

    #[test]
    fn exhaustive_agreement_on_random_instances() {
        let mut seed = 0x1357_9bdfu64;
        let mut rand = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        let (mut greedy_optimal, mut greedy_beaten) = (0, 0);
        for case in 0..300 {
            // Narrow miss ranges make equal-cost optima common.
            let spread = [4, 30, 1000][case % 3];
            let k = 1 + rand(4) as usize;
            let curves: Vec<BranchCurve> = (0..k)
                .map(|i| {
                    let len = 1 + rand(10) as usize;
                    let mut misses: Vec<u64> = (0..len).map(|_| rand(spread)).collect();
                    // Profile entry should be the largest-ish to be realistic,
                    // but the algorithm must not rely on it.
                    misses[0] += spread / 4;
                    curve(i as u32, &misses)
                })
                .collect();
            let budget = 1 + rand(if case % 2 == 0 { 20 } else { 512 });
            let got = allocate_joint_states(&curves, budget);

            let (optimum, total) = lex_greatest_optimum(&curves, budget);
            let greedy = greedy(&curves, budget);
            let want = if cost(&curves, &greedy) == total {
                greedy_optimal += 1;
                greedy
            } else {
                greedy_beaten += 1;
                optimum
            };
            let states: Vec<(BranchId, usize)> = curves
                .iter()
                .zip(&want)
                .map(|(c, &n)| (c.site, n))
                .collect();
            assert_eq!(got.states, states, "curves: {curves:?} budget {budget}");
            assert_eq!(got.total_misses, total);
            assert_eq!(got.product, want.iter().map(|&n| n as u64).product::<u64>());
            assert!(got.product <= budget);
        }
        // Both arms of the tie rule are exercised.
        assert!(greedy_optimal > 0 && greedy_beaten > 0);
    }

    /// An 18-branch loop of the random-CFG workload (`synth-cfgs`, seed 0):
    /// 4-entry curves under the 512-state product cap.
    #[test]
    fn eighteen_branch_loop_keeps_its_allocation() {
        let rows: [[u64; 4]; 18] = [
            [475, 0, 0, 0],
            [474, 474, 237, 2],
            [317, 316, 0, 0],
            [475, 1, 1, 1],
            [238, 2, 2, 2],
            [474, 237, 237, 237],
            [475, 1, 1, 1],
            [237, 2, 2, 2],
            [474, 237, 237, 237],
            [317, 316, 0, 0],
            [475, 1, 1, 1],
            [316, 316, 2, 1],
            [474, 237, 237, 237],
            [475, 2, 2, 2],
            [238, 2, 2, 2],
            [474, 237, 237, 237],
            [472, 118, 118, 118],
            [238, 2, 2, 2],
        ];
        let curves: Vec<BranchCurve> = rows
            .iter()
            .enumerate()
            .map(|(i, m)| curve(i as u32, m))
            .collect();
        let a = allocate_joint_states(&curves, 512);
        let sizes: Vec<usize> = a.states.iter().map(|&(_, n)| n).collect();
        assert_eq!(
            sizes,
            [2, 1, 1, 2, 1, 2, 2, 1, 2, 1, 2, 1, 2, 2, 1, 1, 2, 1]
        );
        assert_eq!(a.total_misses, 3683);
        assert_eq!(a.product, 512);
    }

    #[test]
    fn empty_input_is_trivial() {
        let a = allocate_joint_states(&[], 4);
        assert_eq!(a.total_misses, 0);
        assert_eq!(a.product, 1);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn zero_budget_rejected() {
        let _ = allocate_joint_states(&[curve(0, &[1])], 0);
    }
}
