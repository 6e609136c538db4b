//! Exact fast-forwarding of repeated floating-point addition.
//!
//! The simulator must charge a node a span of slots in one call — idle
//! listening at its listen slots, the sleep floor at every other — and
//! land on *exactly* the `f64` that one `x += c` per slot would have
//! produced: bit-identity between the engine paths is the repo's
//! non-negotiable contract, and `x + k·c` (one multiply) rounds
//! differently. [`iterate_add_periodic`] is that fold. For one addend
//! its helper `iterate_add` closes the gap in O(binade crossings)
//! instead of O(k):
//!
//! Within one binade every representable value is an integer multiple of
//! the unit in the last place `u`, i.e. `x = m·u` with `m ≤ 2^53`. The
//! increment measured in ulps is the exact rational `r = c/u = q + f`
//! (`q = ⌊r⌋`, `f` the fraction — exact because both operands are
//! integers times powers of two). One round-to-nearest-even addition then
//! advances the multiplier by a *constant*:
//!
//! * `f < 1/2` → `m ← m + q` (round down every step);
//! * `f > 1/2` → `m ← m + q + 1` (round up every step);
//! * `f = 1/2` → ties round to even: after at most one step `m` is even
//!   and stays even (`q` even keeps parity with `d = q`; `q` odd lands on
//!   even with `d = q + 1`), so the increment is again constant.
//!
//! A whole span of steps inside the binade is therefore one integer
//! multiply-add on the *bit pattern* (IEEE-754 bit patterns of positive
//! floats are ulp-counters, so `bits + t·d` is the landing value, and the
//! binade's top `2^53·u` is itself representable). Only the handful of
//! binade crossings — at most a few thousand between the subnormals and
//! infinity — take a manual step. An addition that rounds back onto `x`
//! (`c` below half an ulp, or `x` non-finite) is an absorbing fixed
//! point, detected **bitwise** (`-0.0 + 0.0` changes the bits but not the
//! value) and short-circuited.
//!
//! [`iterate_add_periodic`] extends this to two addends in a periodic
//! pattern — a listen cost on a node's listen slots and the sleep floor
//! on every other slot: each addend moves the multiplier by its own
//! constant, so a range folds to `bits + n_lo·d_lo + n_hi·d_hi`. With no
//! marked slots it is `iterate_add` itself.

const MASK52: u64 = (1 << 52) - 1;
const TWO53: u64 = 1 << 53;

/// `x`'s binade decomposition: the integer multiplier `m` of the ulp
/// `2^e`, for positive finite bit pattern `bits`. Subnormals and the
/// first normal binade share the spacing `2^-1074`, and for both the bit
/// pattern *is* the multiplier, so they fold into one "binade" reaching
/// up to `2^53` ulps.
fn decompose(bits: u64) -> (u64, i64) {
    let exp = (bits >> 52) & 0x7ff;
    if exp <= 1 {
        (bits, -1074)
    } else {
        ((bits & MASK52) | (1 << 52), exp as i64 - 1075)
    }
}

/// How one addition of an increment moves the multiplier `m` of a value
/// in a binade, under round-to-nearest-even.
#[derive(Clone, Copy)]
enum Move {
    /// By the constant `d` ulps on every step that stays in the binade
    /// (`d` is capped at `EXIT`: one such step leaves the binade).
    By(u64),
    /// The increment is exactly `q + 1/2` ulps: each step rounds its tie
    /// to even, so the move depends on the parity of `m`.
    Tie(u64),
}

/// A move that leaves the binade in one step from any multiplier.
const EXIT: u64 = TWO53 + 1;

/// The move of `c` (zero, or positive and finite) in the binade whose ulp
/// is `2^e`. The increment in ulps is the exact rational
/// `r = c / 2^e = q + f`.
fn ulp_move(c: f64, e: i64) -> Move {
    if c == 0.0 {
        return Move::By(0);
    }
    let (mc, ec) = decompose(c.to_bits());
    let shift = ec - e;
    if shift >= 0 {
        // Integer ratio (no fractional part, no rounding at all).
        if shift >= 64 {
            return Move::By(EXIT); // c astronomically larger
        }
        let q = ((mc as u128) << shift).min(EXIT as u128);
        return Move::By(q as u64);
    }
    let s = -shift;
    if s >= 64 {
        // r < 2^53 / 2^64 < 1/2: every addition rounds straight back.
        return Move::By(0);
    }
    let s = s as u32;
    let q = mc >> s;
    let rem = mc & ((1u64 << s) - 1);
    match rem.cmp(&(1u64 << (s - 1))) {
        std::cmp::Ordering::Less => Move::By(q),
        std::cmp::Ordering::Equal => Move::Tie(q),
        std::cmp::Ordering::Greater => Move::By(q + 1),
    }
}

/// Advances as many of the remaining `k` steps of `x += c` as stay inside
/// `x`'s current binade, in O(1). Returns the landing value and the steps
/// taken (`≥ 1`), or `None` when not even one step can be fast-forwarded
/// (the caller falls back to a manual addition).
fn fast_span(x: f64, c: f64, k: u64) -> Option<(f64, u64)> {
    if !x.is_finite() || x <= 0.0 || c <= 0.0 || c.is_nan() || c.is_infinite() {
        return None;
    }
    let xb = x.to_bits();
    let (m, e) = decompose(xb);
    // The constant per-step ulp increment under round-to-nearest-even.
    let d = match ulp_move(c, e) {
        Move::By(d) => d,
        Move::Tie(q) if m & 1 == 1 => {
            // Odd multiplier: take the one tie-rounding step that lands
            // on the even neighbour; from there the increment is constant
            // and the next call batches.
            let m1 = (m + q + 1) & !1;
            if m1 > TWO53 {
                return None;
            }
            return Some((f64::from_bits(xb + (m1 - m)), 1));
        }
        // Even multiplier stays even: q even keeps d = q; q odd rounds up
        // to even every step with d = q + 1.
        Move::Tie(q) => q + (q & 1),
    };
    if d == 0 {
        return Some((x, k)); // sub-half-ulp increment: absorbing
    }
    // Every landing must stay ≤ 2^53 ulps (the binade top, itself
    // representable as the first value of the next binade).
    let t = ((TWO53 - m) / d).min(k);
    if t == 0 {
        return None;
    }
    Some((f64::from_bits(xb + t * d), t))
}

/// The exact result of `for _ in 0..k { x += c }`, bit for bit, in
/// O(binade crossings) instead of O(k).
///
/// `c` must be non-negative (or NaN); negative increments walk *down*
/// through binades and are not fast-forwarded (debug-asserted, and fall
/// back to the literal loop, which may be slow but stays correct).
/// Non-finite inputs terminate through the absorbing-fixed-point check.
fn iterate_add(mut x: f64, c: f64, mut k: u64) -> f64 {
    debug_assert!(
        c >= 0.0 || c.is_nan(),
        "iterate_add requires a non-negative (or NaN) increment, got {c}"
    );
    while k > 0 {
        let stepped = x + c;
        if stepped.to_bits() == x.to_bits() {
            // Absorbing fixed point: every remaining step is a no-op.
            // Bitwise, not `==`: -0.0 + 0.0 changes the bits to +0.0.
            return x;
        }
        x = stepped;
        k -= 1;
        if k == 0 {
            break;
        }
        if let Some((nx, t)) = fast_span(x, c, k) {
            debug_assert!(t >= 1 && t <= k);
            x = nx;
            k -= t;
        }
    }
    x
}

/// The exact result of adding, in slot order over `[from, to)`, `hi` on
/// every slot `s` with `s % l` in `marks` and `lo` on every other slot,
/// bit for bit, together with the number of marked slots. `marks` must be
/// ascending and below `l`; the addends must be non-negative (or NaN), as
/// for `iterate_add`.
///
/// With no marks this is one `iterate_add` of `lo`, inlined into the
/// caller so that a sleep-only span pays no second call. Otherwise,
/// inside one binade each addend moves the ulp multiplier by a constant
/// (see the module doc) unless it rounds a tie, so a range of `n_lo`
/// unmarked and `n_hi` marked slots lands on `bits + n_lo·d_lo + n_hi·d_hi`,
/// and `n_hi` is one binary search on `marks`. The last prefix that stays
/// in the binade is found by bisection and the crossing step taken
/// manually. In a binade where either addend ties, the parity of the
/// multiplier makes the moves depend on their order, so the range is
/// walked run by run: `iterate_add` for each unmarked run, one addition
/// per marked slot. An addend ties in exactly one binade, so that walk
/// happens in at most two.
#[inline]
pub fn iterate_add_periodic(
    x: f64,
    lo: f64,
    hi: f64,
    marks: &[u32],
    l: u64,
    from: u64,
    to: u64,
) -> (f64, u64) {
    debug_assert!(from <= to);
    if marks.is_empty() {
        return (iterate_add(x, lo, to - from), 0);
    }
    fold_marked(x, lo, hi, marks, l, from, to)
}

/// [`iterate_add_periodic`] over a nonempty mark list.
fn fold_marked(
    mut x: f64,
    lo: f64,
    hi: f64,
    marks: &[u32],
    l: u64,
    from: u64,
    to: u64,
) -> (f64, u64) {
    debug_assert!(
        (lo >= 0.0 || lo.is_nan()) && (hi >= 0.0 || hi.is_nan()),
        "iterate_add_periodic requires non-negative (or NaN) addends, got {lo} and {hi}"
    );
    debug_assert!(l > 0 && !marks.is_empty());
    debug_assert!(marks.windows(2).all(|w| w[0] < w[1]) && marks.iter().all(|&i| (i as u64) < l));
    // Marked slots in [0, s).
    let before = |s: u64| {
        (s / l) * marks.len() as u64 + marks.partition_point(|&i| (i as u64) < s % l) as u64
    };
    let addend = |s: u64| match marks.binary_search(&((s % l) as u32)) {
        Ok(_) => hi,
        Err(_) => lo,
    };
    let foldable = |c: f64| (0.0..f64::INFINITY).contains(&c);
    let mut s = from;
    while s < to {
        let xb = x.to_bits();
        if (x + lo).to_bits() == xb && (x + hi).to_bits() == xb {
            break; // absorbing fixed point for both addends
        }
        let moves = (x > 0.0 && x.is_finite() && foldable(lo) && foldable(hi)).then(|| {
            let (m, e) = decompose(xb);
            (m, ulp_move(lo, e), ulp_move(hi, e))
        });
        match moves {
            Some((m, Move::By(d_lo), Move::By(d_hi))) => {
                let base = before(s);
                // The multiplier after the steps of [s, p).
                let reach = |p: u64| {
                    let n_hi = before(p) - base;
                    let n_lo = p - s - n_hi;
                    m as u128 + n_lo as u128 * d_lo as u128 + n_hi as u128 * d_hi as u128
                };
                let top = TWO53 as u128;
                let p = if reach(to) <= top {
                    to
                } else {
                    // The longest prefix that stays in the binade.
                    let (mut inside, mut outside) = (s, to);
                    while outside - inside > 1 {
                        let mid = inside + (outside - inside) / 2;
                        if reach(mid) <= top {
                            inside = mid;
                        } else {
                            outside = mid;
                        }
                    }
                    inside
                };
                x = f64::from_bits(xb + (reach(p) - m as u128) as u64);
                s = p;
                if s < to {
                    // The crossing step, taken manually.
                    x += addend(s);
                    s += 1;
                }
            }
            // A tie, or a value the fold does not cover (`x` zero, negative
            // or not finite, or an addend not finite): one run at a time.
            _ => {
                let r = s % l;
                let i = marks.partition_point(|&f| (f as u64) < r);
                let next = match marks.get(i) {
                    Some(&f) => s - r + f as u64,
                    None => (s - r).saturating_add(l + marks[0] as u64),
                };
                if next > s {
                    let run = next.min(to) - s;
                    x = iterate_add(x, lo, run);
                    s += run;
                } else {
                    x += hi;
                    s += 1;
                }
            }
        }
    }
    (x, before(to) - before(from))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(mut x: f64, c: f64, k: u64) -> f64 {
        for _ in 0..k {
            let stepped = x + c;
            if stepped.to_bits() == x.to_bits() {
                // Same absorbing-fixed-point cut as the real thing (sound
                // for an oracle too: the addition is a pure function of
                // the bits, so no later step can differ) — without it the
                // u64::MAX edge cases would loop for centuries.
                return x;
            }
            x = stepped;
        }
        x
    }

    /// Bit-exact agreement with the literal loop.
    fn check(x: f64, c: f64, k: u64) {
        let fast = iterate_add(x, c, k);
        let slow = naive(x, c, k);
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "x={x:e} c={c:e} k={k}: fast {fast:e} vs naive {slow:e}"
        );
    }

    /// The in-order loop `iterate_add_periodic` must equal, with its
    /// marked-slot count.
    fn naive_periodic(
        mut x: f64,
        lo: f64,
        hi: f64,
        marks: &[u32],
        l: u64,
        from: u64,
        to: u64,
    ) -> (f64, u64) {
        let mut marked = 0;
        for s in from..to {
            if marks.contains(&((s % l) as u32)) {
                x += hi;
                marked += 1;
            } else {
                x += lo;
            }
        }
        (x, marked)
    }

    fn check_periodic(x: f64, lo: f64, hi: f64, marks: &[u32], l: u64, from: u64, to: u64) {
        let (fast, n) = iterate_add_periodic(x, lo, hi, marks, l, from, to);
        let (slow, want) = naive_periodic(x, lo, hi, marks, l, from, to);
        let ctx = format!("x={x:e} lo={lo:e} hi={hi:e} marks={marks:?} l={l} [{from}, {to})");
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "{ctx}: fast {fast:e} vs naive {slow:e}"
        );
        assert_eq!(n, want, "{ctx}: marked-slot count");
    }

    /// The marks of a period `l` from the low `l` bits of `bits`.
    fn marks_of(bits: u64, l: u64) -> Vec<u32> {
        (0..l as u32).filter(|&i| bits >> i & 1 == 1).collect()
    }

    /// `m·2^e` over random 53-bit multipliers `m` and exponents in `exps`.
    fn magnitude(exps: std::ops::Range<i32>) -> impl Strategy<Value = f64> {
        (0u64..(1 << 53), exps).prop_map(|(m, e)| m as f64 * (e as f64).exp2())
    }

    /// The engine's default sleep and listen slot costs (mJ).
    const SLEEP_MJ: f64 = 0.09 * 0.01;
    const LISTEN_MJ: f64 = 45.0 * 0.01;

    /// Addend pairs `(lo, hi)` whose moves tie in the binades the tie-prone
    /// starts sit in, the engine's defaults, and a zero sleep cost.
    const PAIRS: [(f64, f64); 8] = [
        (f64::EPSILON / 2.0, f64::EPSILON),
        (f64::EPSILON, f64::EPSILON / 2.0),
        (1.5 * f64::EPSILON, f64::EPSILON / 2.0),
        (f64::EPSILON / 2.0, 1.5 * f64::EPSILON),
        (SLEEP_MJ, LISTEN_MJ),
        (0.0, LISTEN_MJ),
        (0.0, f64::EPSILON / 2.0),
        (f64::EPSILON / 2.0, 0.0),
    ];

    /// Starts at zero, at and next to a binade bottom, and just below a
    /// binade top (where `ε` becomes a tie after the crossing).
    const STARTS: [f64; 5] = [0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 2.0 - 64.0 * f64::EPSILON];

    #[test]
    fn periodic_handpicked_edges() {
        let marks = [1u32, 4, 5];
        // No marks, every slot marked, and an empty range.
        for (lo, hi) in PAIRS {
            for x in STARTS {
                check_periodic(x, lo, hi, &[], 7, 3, 5_000);
                check_periodic(x, lo, hi, &[0, 1, 2], 3, 3, 5_000);
                check_periodic(x, lo, hi, &marks, 7, 9, 9);
            }
        }
        let (x, n) = iterate_add_periodic(1.0, SLEEP_MJ, LISTEN_MJ, &[], 7, 0, 1 << 40);
        assert_eq!(
            (x.to_bits(), n),
            (iterate_add(1.0, SLEEP_MJ, 1 << 40).to_bits(), 0)
        );
        // The engine's costs from an empty ledger through many binades.
        check_periodic(0.0, SLEEP_MJ, LISTEN_MJ, &marks, 7, 0, 1_000_000);
        check_periodic(0.0, SLEEP_MJ, LISTEN_MJ, &[6_999], 7_000, 12_345, 2_000_000);
        // Non-finite starts and an overflow to infinity.
        check_periodic(f64::INFINITY, 1.0, 2.0, &marks, 7, 0, 1_000);
        check_periodic(f64::MAX, f64::MAX / 8.0, 1.0, &marks, 7, 0, 100);
        let (x, n) = iterate_add_periodic(f64::NAN, 1.0, 2.0, &marks, 7, 0, u64::MAX);
        assert!(x.is_nan());
        assert_eq!(n, u64::MAX / 7 * 3); // the last, partial frame holds only slot 0
                                         // Absorbed addends over a huge range return at once.
        let (x, _) = iterate_add_periodic(1.0, 0.0, f64::EPSILON / 4.0, &marks, 7, 0, u64::MAX);
        assert_eq!(x, 1.0);
    }

    #[test]
    fn periodic_huge_range_is_fast_and_split_invariant() {
        let marks = [3u32, 17, 18, 40];
        let fold = |x, from, to| iterate_add_periodic(x, SLEEP_MJ, LISTEN_MJ, &marks, 41, from, to);
        let (whole, n) = fold(0.0, 5, 1 << 40);
        let (half, n1) = fold(0.0, 5, 700_000_000_007);
        let (split, n2) = fold(half, 700_000_000_007, 1 << 40);
        assert_eq!(whole.to_bits(), split.to_bits());
        assert_eq!(n, n1 + n2);
        assert!(whole > 0.0 && whole.is_finite());
    }

    #[test]
    fn zero_steps_is_identity() {
        for x in [0.0, -0.0, 1.5, f64::INFINITY, f64::NAN] {
            assert_eq!(iterate_add(x, 1.0, 0).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn handpicked_edges() {
        // Integer ratios, exact landings on binade tops.
        check(1.0, f64::EPSILON, 1 << 20);
        check(1.0, 1.0, 1000);
        // Sub-half-ulp increment: absorbing immediately.
        check(1.0, f64::EPSILON / 8.0, u64::MAX);
        // Exactly half an ulp: tie steps, both entry parities.
        check(1.0, f64::EPSILON / 2.0, 10_000);
        check(1.0 + f64::EPSILON, f64::EPSILON / 2.0, 10_000);
        // Tie with an odd integer part (q odd at the tie).
        check(1.0, 1.5 * f64::EPSILON, 10_000);
        // Fraction just below and above half.
        check(1.0, f64::EPSILON * 0.4999, 50_000);
        check(1.0, f64::EPSILON * 0.5001, 50_000);
        // Start at zero, subnormal increments, subnormal start.
        check(0.0, f64::MIN_POSITIVE / 4.0, 100_000);
        check(f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE / 8.0, 100_000);
        // Zero increment (with the -0.0 bit flip).
        check(-0.0, 0.0, 5);
        check(3.0, 0.0, u64::MAX);
        // Overflow to infinity and non-finite starts.
        check(f64::MAX, f64::MAX / 8.0, 100);
        check(f64::INFINITY, 1.0, u64::MAX);
        assert!(iterate_add(f64::NAN, 1.0, u64::MAX).is_nan());
        // The sleep floor the engine actually charges.
        check(0.0, 0.09 * 0.01, 1_000_000);
    }

    #[test]
    fn huge_k_is_fast_and_split_invariant() {
        // Cannot compare 2^40 steps against the naive loop, but the
        // definition forces split invariance; combined with the
        // proptested small-k agreement this pins the closed form.
        let c = 0.0009;
        let whole = iterate_add(0.0, c, 1 << 40);
        let split = iterate_add(
            iterate_add(0.0, c, 700_000_000_007),
            c,
            (1 << 40) - 700_000_000_007,
        );
        assert_eq!(whole.to_bits(), split.to_bits());
        assert!(whole > 0.0 && whole.is_finite());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random magnitudes across the whole exponent range.
        #[test]
        fn matches_naive_loop(
            xm in 0u64..(1 << 53),
            xe in -80i32..80,
            cm in 0u64..(1 << 53),
            ce in -90i32..10,
            k in 0u64..3000,
        ) {
            let x = xm as f64 * (xe as f64).exp2();
            let c = cm as f64 * (ce as f64).exp2();
            check(x, c, k);
        }

        /// Adversarial ulp-relative increments: c engineered near q + 1/2
        /// ulps of x, the rounding regime where constant-increment logic
        /// is most fragile.
        #[test]
        fn matches_naive_near_ties(
            xm in (1u64 << 52)..(1 << 53),
            q in 0u64..64,
            twist in -1i64..2,
            k in 1u64..3000,
        ) {
            let x = xm as f64 * (-52f64).exp2(); // in [1, 2)
            let ulps2 = (2 * q + 1) as i64 + twist; // 2r ulps: below/at/above tie
            let c = ulps2 as f64 * (-53f64).exp2();
            check(x, c, k);
        }

        /// Split invariance at arbitrary cut points (the property the
        /// engine relies on when flushing a node mid-span).
        #[test]
        fn split_invariant(
            xm in 0u64..(1 << 53),
            cm in 1u64..(1 << 53),
            ce in -80i32..0,
            k in 0u64..200_000u64,
            cut in 0u64..200_000u64,
        ) {
            let x = xm as f64 * (-26f64).exp2();
            let c = cm as f64 * (ce as f64).exp2();
            let cut = cut.min(k);
            let whole = iterate_add(x, c, k);
            let split = iterate_add(iterate_add(x, c, cut), c, k - cut);
            prop_assert_eq!(whole.to_bits(), split.to_bits());
        }

        /// The periodic fold against the in-order loop over random
        /// magnitudes, periods and mark sets.
        #[test]
        fn periodic_matches_naive_loop(
            x in magnitude(-80..40),
            lo in magnitude(-90..10),
            hi in magnitude(-90..10),
            l in 1u64..64,
            bits in any::<u64>(),
            from in 0u64..1_000_000,
            len in 0u64..3000,
        ) {
            check_periodic(x, lo, hi, &marks_of(bits, l), l, from, from + len);
        }

        /// Tie-prone addend pairs, the engine's costs and a zero sleep
        /// cost, from starts at and around binade edges.
        #[test]
        fn periodic_matches_naive_near_ties(
            pair in 0usize..PAIRS.len(),
            start in 0usize..STARTS.len(),
            l in 1u64..64,
            bits in any::<u64>(),
            from in 0u64..1_000_000,
            len in 0u64..5000,
        ) {
            let (lo, hi) = PAIRS[pair];
            check_periodic(STARTS[start], lo, hi, &marks_of(bits, l), l, from, from + len);
        }

        /// Splitting a range at any cut changes neither the value nor the
        /// count (the engine settles a node whenever it is touched).
        #[test]
        fn periodic_split_invariant(
            pair in 0usize..PAIRS.len(),
            start in 0usize..STARTS.len(),
            l in 1u64..64,
            bits in any::<u64>(),
            from in 0u64..1_000_000,
            len in 0u64..200_000,
            cut in 0u64..200_000,
        ) {
            let (lo, hi) = PAIRS[pair];
            let (x, marks, to) = (STARTS[start], marks_of(bits, l), from + len);
            let cut = from + cut.min(len);
            let (whole, n) = iterate_add_periodic(x, lo, hi, &marks, l, from, to);
            let (head, n1) = iterate_add_periodic(x, lo, hi, &marks, l, from, cut);
            let (split, n2) = iterate_add_periodic(head, lo, hi, &marks, l, cut, to);
            prop_assert_eq!(whole.to_bits(), split.to_bits());
            prop_assert_eq!(n, n1 + n2);
        }
    }
}
