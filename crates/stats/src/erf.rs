//! Error function `erf` and complement `erfc`, at a fixed cost.
//!
//! Verdict's analytic kernel integration (paper Appendix F.1) evaluates
//!
//! ```text
//! f(x, y) = -z²/2 · exp(-(x-y)²/z²) - √π/2 · z (x-y) erf((x-y)/z)
//! ```
//!
//! four times per covariance, so `erf` is the hottest arithmetic of both
//! inference and training. It runs no loop that depends on `x` and no
//! division:
//!
//! - `|x| < 0.5`: the odd Maclaurin polynomial `x + x·P(x²)`, whose
//!   coefficients are constants, so relative accuracy holds down to the
//!   subnormals (within 1 ulp);
//! - `0.5 ≤ |x| < 6`: a degree-12 Taylor polynomial about the centre `x₀` of
//!   one of 88 cells 1/16 wide, with `erf(x₀)` stored as a double-double
//!   (within 1.2e-16 absolute);
//! - `|x| ≥ 6`: `±1`, since `erfc(6) ≈ 2.2e-17` is below half an ulp of 1.
//!
//! `erfc` reads the same cells from the other side, `(1 − erf(x₀)) − …`, so
//! it keeps its relative accuracy up to 6; beyond, it is `e^{−x²}` (with `x²`
//! split exactly) times a continued fraction of fixed depth. It is within
//! 6e-16 relative on `[0, 26]`. The tests hold both to a double-double
//! oracle.
//!
//! The table is computed at compile time by `const fn`s in double-double
//! arithmetic, without libm, and no product is fused with a sum: each
//! rounds on its own, so `erf` has the same bits on every IEEE-754 host.
//! `erfc` past 6 calls the platform `exp`.

use std::f64::consts::FRAC_2_SQRT_PI;

/// `2/√π − FRAC_2_SQRT_PI`: `2/√π` is `FRAC_2_SQRT_PI + FRAC_2_SQRT_PI_LO`
/// to 106 bits.
const FRAC_2_SQRT_PI_LO: f64 = 1.533545961316588e-17;

/// Below this `|x|` the Maclaurin polynomial applies; the cells start here.
const CELL_START: f64 = 0.5;
/// From this `|x|` on, `erf` is `±1`; the cells end here.
const SATURATE: f64 = 6.0;
/// Width of one cell.
const CELL_WIDTH: f64 = 1.0 / 16.0;
/// `(SATURATE − CELL_START) / CELL_WIDTH`.
const CELLS: usize = 88;
/// Degree of each cell's Taylor polynomial. The first omitted term is
/// below `(x₀·CELL_WIDTH)¹³/13! ≈ 5e-16` of `erfc(x₀)`.
const DEGREE: usize = 12;
/// Terms of the Maclaurin polynomial `P`; the first omitted one is below
/// 0.05 ulp at `|x| = 0.5`.
const SMALL_TERMS: usize = 12;
/// Depth of `erfc`'s continued fraction past `SATURATE`: within 1e-19
/// relative at 6, and it converges faster as `x` grows.
const TAIL_DEPTH: usize = 8;
/// `erfc(27.25) < 2⁻¹⁰⁷⁵`: from here on it rounds to zero.
const ERFC_UNDERFLOW: f64 = 27.25;

/// `P(z)`, lowest power first, with `erf(x) = x + x·P(x²)`:
/// `P(0) = 2/√π − 1` and the coefficient of `zⁿ` is
/// `(2/√π)(−1)ⁿ/(n!(2n+1))`.
static SMALL: [f64; SMALL_TERMS] = small_coefficients();

/// One cell of `[CELL_START, SATURATE)`, centred on `x₀`.
#[derive(Clone, Copy)]
struct Cell {
    /// `erf(x₀) = hi + lo` to about 2⁻¹⁰⁵.
    hi: f64,
    lo: f64,
    /// The Taylor coefficients of `erf` about `x₀`, degree 1 first.
    taylor: [f64; DEGREE],
}

static TABLE: [Cell; CELLS] = build_table();

/// The error function `erf(x) = 2/√π ∫₀ˣ e^{-t²} dt`.
///
/// `erf(−x)` is `−erf(x)` bit for bit, `erf(±0) = ±0`, and NaN gives NaN.
#[inline]
pub fn erf(x: f64) -> f64 {
    let ax = x.abs();
    if ax < CELL_START {
        x + x * estrin(&SMALL, x * x)
    } else if ax < SATURATE {
        let (hi, tail) = taylor(ax);
        (hi + tail).copysign(x)
    } else if ax >= SATURATE {
        1.0f64.copysign(x)
    } else {
        x
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// For large positive `x` this keeps the relative accuracy that `1 - erf(x)`
/// would cancel away.
pub fn erfc(x: f64) -> f64 {
    if x < CELL_START {
        1.0 - erf(x)
    } else if x < SATURATE {
        let (hi, tail) = taylor(x);
        // `1 − hi` is exact: `hi` is in [0.5, 1].
        (1.0 - hi) - tail
    } else if x < ERFC_UNDERFLOW {
        erfc_tail(x)
    } else if x >= ERFC_UNDERFLOW {
        0.0
    } else {
        x
    }
}

/// `erf(ax) = hi + tail` for `ax` in `[CELL_START, SATURATE)`: the cell's
/// base `hi`, and its `lo` plus the Taylor polynomial in `ax − x₀`.
#[inline]
fn taylor(ax: f64) -> (f64, f64) {
    // Both differences are exact: `ax` is at least `CELL_START`, and the
    // cell centres are multiples of 1/32.
    let k = ((ax - CELL_START) * (1.0 / CELL_WIDTH)) as usize;
    let cell = &TABLE[k];
    let d = ax - centre(k);
    (cell.hi, cell.lo + d * estrin(&cell.taylor, d))
}

/// `Σ c[i]·zⁱ` over both polynomials' 12 terms, by Estrin's scheme:
/// adjacent terms pair up as `c + c′·z`, the pairs as `p + p′·z²`, and so on
/// with `z⁴` and `z⁸`. That is a tree four levels deep where Horner's rule
/// is a chain of 11 dependent steps, so independent calls overlap.
#[inline]
fn estrin(c: &[f64; 12], z: f64) -> f64 {
    let z2 = z * z;
    let z4 = z2 * z2;
    let z8 = z4 * z4;
    let p0 = (c[0] + c[1] * z) + (c[2] + c[3] * z) * z2;
    let p1 = (c[4] + c[5] * z) + (c[6] + c[7] * z) * z2;
    let p2 = (c[8] + c[9] * z) + (c[10] + c[11] * z) * z2;
    (p0 + p1 * z4) + p2 * z8
}

/// `erfc(x)` for `x` in `[SATURATE, ERFC_UNDERFLOW)`:
///
/// ```text
/// erfc(x) = x e^{−x²}/√π · 1/(x² + 1/2 − (1·2/4)/(x² + 5/2 − (3·4/4)/(x² + 9/2 − …)))
/// ```
///
/// evaluated from the bottom at `TAIL_DEPTH`. `x² = hi + lo` exactly, and
/// `e^{−x²} = e^{−hi}(1 − lo)` to within `lo²/2 ≈ 3e-27` relative.
fn erfc_tail(x: f64) -> f64 {
    let x2 = two_prod(x, x);
    let mut f = x2.hi + ((2 * TAIL_DEPTH) as f64 + 0.5);
    for k in (1..=TAIL_DEPTH).rev() {
        f = x2.hi + ((2 * k) as f64 - 1.5) - (k * (2 * k - 1)) as f64 * 0.5 / f;
    }
    (-x2.hi).exp() * (1.0 - x2.lo) * (x * (0.5 * FRAC_2_SQRT_PI) / f)
}

/// The centre of cell `k`.
#[inline]
const fn centre(k: usize) -> f64 {
    CELL_START + (k as f64 + 0.5) * CELL_WIDTH
}

const fn small_coefficients() -> [f64; SMALL_TERMS] {
    let mut coeffs = [0.0; SMALL_TERMS];
    coeffs[0] = (FRAC_2_SQRT_PI - 1.0) + FRAC_2_SQRT_PI_LO;
    let mut factorial = 1.0;
    let mut n = 1;
    while n < SMALL_TERMS {
        factorial *= n as f64;
        let c = FRAC_2_SQRT_PI / (factorial * (2 * n + 1) as f64);
        coeffs[n] = if n % 2 == 0 { c } else { -c };
        n += 1;
    }
    coeffs
}

const fn build_table() -> [Cell; CELLS] {
    let mut table = [Cell {
        hi: 0.0,
        lo: 0.0,
        taylor: [0.0; DEGREE],
    }; CELLS];
    let mut k = 0;
    while k < CELLS {
        let x0 = centre(k);
        // `x₀²` is exact: `x₀` is an odd multiple of 1/32 below 6.
        let t = x0 * x0;
        // erf′(x₀) = (2/√π)e^{−x₀²}.
        let slope = Dd::new(FRAC_2_SQRT_PI, FRAC_2_SQRT_PI_LO).times(exp_neg(t));
        let base = if x0 < 3.0 {
            erf_kummer(x0, slope)
        } else {
            Dd::of(1.0).minus(erfc_continued_fraction(x0, 64))
        };
        // The Taylor coefficients g_j of erf′ about x₀ follow from
        // erf″ = −2x·erf′: (j+1)·g_{j+1} = −2x₀·g_j − 2·g_{j−1}; erf's
        // coefficient of degree j+1 is g_j/(j+1).
        let mut g = [0.0; DEGREE];
        g[0] = slope.hi;
        g[1] = -2.0 * x0 * g[0];
        let mut j = 1;
        while j + 1 < DEGREE {
            g[j + 1] = (-2.0 * x0 * g[j] - 2.0 * g[j - 1]) / (j + 1) as f64;
            j += 1;
        }
        let cell = &mut table[k];
        cell.hi = base.hi;
        cell.lo = base.lo;
        j = 0;
        while j < DEGREE {
            cell.taylor[j] = g[j] / (j + 1) as f64;
            j += 1;
        }
        k += 1;
    }
    table
}

/// `erf(x)` for `0 < x < 3` by Kummer's series, whose terms are all
/// positive: `erf(x) = (2/√π)e^{−x²} · Σₙ x(2x²)ⁿ/(2n+1)!!`, where `slope`
/// is `(2/√π)e^{−x²}`.
const fn erf_kummer(x: f64, slope: Dd) -> Dd {
    let two_x2 = Dd::of(2.0).times(two_prod(x, x));
    let mut term = Dd::of(x);
    let mut sum = term;
    let mut n = 1;
    while term.hi > 1e-34 * sum.hi {
        term = term.times(two_x2).over(Dd::of((2 * n + 1) as f64));
        sum = sum.plus(term);
        n += 1;
    }
    slope.times(sum)
}

/// `erfc(x)` in double-double by the continued fraction of [`erfc_tail`]
/// at `depth`: 64 is within 2⁻¹¹⁰ relative for `x ≥ 3`.
const fn erfc_continued_fraction(x: f64, depth: usize) -> Dd {
    let x2 = two_prod(x, x);
    let mut f = x2.plus(Dd::of((2 * depth) as f64 + 0.5));
    let mut k = depth;
    while k > 0 {
        let a = Dd::of((k * (2 * k - 1)) as f64 * 0.5);
        f = x2.plus(Dd::of((2 * k) as f64 - 1.5)).minus(a.over(f));
        k -= 1;
    }
    // e^{−(hi + lo)} = e^{−hi}(1 − lo) to within lo²/2 < 3e-27 relative
    // (|lo| ≤ 2⁻⁵³·hi), and lo is zero at the cell centres.
    let e = exp_neg(x2.hi).times(Dd::of(1.0).minus(Dd::of(x2.lo)));
    let half_slope = Dd::new(0.5 * FRAC_2_SQRT_PI, 0.5 * FRAC_2_SQRT_PI_LO);
    e.times(half_slope).times(Dd::of(x)).over(f)
}

/// `e^{−t}` for `t ≥ 0` in double-double: the alternating series at
/// `t/2ʲ ≤ 1/2`, squared back `j` times.
const fn exp_neg(t: f64) -> Dd {
    let mut s = t;
    let mut halvings = 0;
    while s > 0.5 {
        s *= 0.5;
        halvings += 1;
    }
    let mut sum = Dd::of(1.0);
    let mut term = Dd::of(1.0);
    let mut n = 1;
    // 0.5²⁷/27! < 2⁻¹¹⁵.
    while n <= 27 {
        term = term.times(Dd::of(-s)).over(Dd::of(n as f64));
        sum = sum.plus(term);
        n += 1;
    }
    while halvings > 0 {
        sum = sum.times(sum);
        halvings -= 1;
    }
    sum
}

/// A double-double: the unevaluated sum `hi + lo` with `|lo| ≤ ulp(hi)/2`,
/// about 106 bits. Built from Dekker's split and exact two-product, so it
/// needs no fused multiply-add.
#[derive(Clone, Copy, Debug)]
struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    const fn new(hi: f64, lo: f64) -> Dd {
        Dd { hi, lo }
    }

    const fn of(v: f64) -> Dd {
        Dd { hi: v, lo: 0.0 }
    }

    const fn negated(self) -> Dd {
        Dd::new(-self.hi, -self.lo)
    }

    const fn plus(self, b: Dd) -> Dd {
        let s = two_sum(self.hi, b.hi);
        let t = two_sum(self.lo, b.lo);
        let s = fast_two_sum(s.hi, s.lo + t.hi);
        fast_two_sum(s.hi, s.lo + t.lo)
    }

    const fn minus(self, b: Dd) -> Dd {
        self.plus(b.negated())
    }

    const fn times(self, b: Dd) -> Dd {
        let p = two_prod(self.hi, b.hi);
        fast_two_sum(p.hi, p.lo + (self.hi * b.lo + self.lo * b.hi))
    }

    const fn over(self, b: Dd) -> Dd {
        let q1 = self.hi / b.hi;
        let r = self.minus(b.times(Dd::of(q1)));
        let q2 = r.hi / b.hi;
        let r = r.minus(b.times(Dd::of(q2)));
        let q3 = r.hi / b.hi;
        fast_two_sum(q1, q2).plus(Dd::of(q3))
    }
}

/// `a + b` exactly, for any `a`, `b`.
const fn two_sum(a: f64, b: f64) -> Dd {
    let s = a + b;
    let bb = s - a;
    Dd::new(s, (a - (s - bb)) + (b - bb))
}

/// `a + b` exactly, for `|a| ≥ |b|`.
const fn fast_two_sum(a: f64, b: f64) -> Dd {
    let s = a + b;
    Dd::new(s, b - (s - a))
}

/// Dekker's split: `a = hi + lo` with each half fitting 26 bits.
const fn split(a: f64) -> (f64, f64) {
    let c = 134_217_729.0 * a; // 2²⁷ + 1
    let hi = c - (c - a);
    (hi, a - hi)
}

/// `a·b` exactly (barring overflow and underflow), without a fused
/// multiply-add.
const fn two_prod(a: f64, b: f64) -> Dd {
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    Dd::new(p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values (15 significant digits, standard tables).
    const TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112462916018285),
        (0.5, 0.520499877813047),
        (1.0, 0.842700792949715),
        (1.5, 0.966105146475311),
        (2.0, 0.995322265018953),
        (2.5, 0.999593047982555),
        (3.0, 0.999977909503001),
        (4.0, 0.999999984582742),
    ];

    #[test]
    fn matches_reference_table() {
        for &(x, want) in TABLE {
            let got = erf(x);
            assert!((got - want).abs() < 1e-10, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.3, 0.9, 1.7, 2.5, 3.5, 5.99, 1e-300, 5e-324] {
            assert_eq!(erf(-x).to_bits(), (-erf(x)).to_bits(), "x = {x}");
        }
        assert_eq!(erf(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(erf(-0.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn erf_saturates_in_tails() {
        assert!((erf(10.0) - 1.0).abs() < 1e-15);
        assert!((erf(-10.0) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn erfc_complements() {
        for x in [-3.0, -0.5, 0.0, 0.5, 3.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn erfc_tail_is_accurate_relatively() {
        // erfc(3) = 2.209049699858544e-5
        let got = erfc(3.0);
        let want = 2.209049699858544e-5;
        assert!(((got - want) / want).abs() < 1e-14, "erfc(3) = {got}");
    }

    #[test]
    fn erf_monotone_on_grid() {
        let mut prev = erf(-5.0);
        let mut x = -5.0;
        while x < 5.0 {
            x += 0.05;
            let cur = erf(x);
            assert!(cur >= prev - 1e-12, "erf not monotone at {x}");
            prev = cur;
        }
    }

    #[test]
    fn erf_bounded_by_one() {
        let mut x = -8.0;
        while x < 8.0 {
            assert!(erf(x).abs() <= 1.0 + 1e-12);
            x += 0.1;
        }
    }

    #[test]
    fn nan_propagates_and_infinities_saturate() {
        use crate::normal::normal_cdf;
        for f in [erf, erfc, normal_cdf] {
            assert!(f(f64::NAN).is_nan());
            assert!(f(-f64::NAN).is_nan());
        }
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(normal_cdf(f64::INFINITY), 1.0);
        assert_eq!(normal_cdf(f64::NEG_INFINITY), 0.0);
    }

    /// The oracle: `erf(x)` by its Maclaurin series
    /// `2/√π Σ (−1)ⁿ x^{2n+1}/(n!(2n+1))` in double-double. The terms
    /// alternate, so it is good to about 2⁻¹⁰⁴ times the largest one:
    /// ≈ 1e-27 absolute at |x| = 4, where `erfc` is still 1.5e-8.
    fn maclaurin(x: f64) -> Dd {
        let x2 = two_prod(x, x);
        let mut power = Dd::of(x); // x^{2n+1}/n!
        let mut sum = power;
        let mut n = 1;
        loop {
            power = power.times(x2).over(Dd::of(-(n as f64)));
            let term = power.over(Dd::of((2 * n + 1) as f64));
            sum = sum.plus(term);
            if term.hi.abs() <= 1e-36 * sum.hi.abs() {
                break;
            }
            n += 1;
        }
        Dd::new(FRAC_2_SQRT_PI, FRAC_2_SQRT_PI_LO).times(sum)
    }

    /// `erfc(x)` for `x ≥ 0` to about 3e-27 relative: the Maclaurin series
    /// up to 4, the continued fraction at depth 200 beyond.
    fn erfc_oracle(x: f64) -> Dd {
        if x <= 4.0 {
            Dd::of(1.0).minus(maclaurin(x))
        } else {
            erfc_continued_fraction(x, 200)
        }
    }

    /// `erf(x)` to about 1e-27 absolute.
    fn erf_oracle(x: f64) -> f64 {
        if x.abs() <= 4.0 {
            maclaurin(x).hi
        } else {
            Dd::of(1.0).minus(erfc_oracle(x.abs())).hi.copysign(x)
        }
    }

    /// The spacing of doubles at `v`, subnormals included.
    fn ulp(v: f64) -> f64 {
        let v = v.abs();
        (v.next_up() - v).max(f64::from_bits(1))
    }

    fn check_erf(x: f64) {
        let got = erf(x);
        let want = erf_oracle(x);
        if x.abs() < CELL_START {
            let ulps = (got - want).abs() / ulp(want);
            assert!(
                ulps <= 2.0,
                "erf({x:e}) = {got:e}, want {want:e}: {ulps} ulp"
            );
        } else {
            let err = (got - want).abs();
            assert!(err <= 4e-16, "erf({x}) = {got}, want {want}: off {err:e}");
        }
    }

    #[test]
    fn the_two_oracles_agree_where_they_overlap() {
        // Between 3 and 4 the series is good to 1e-27 absolute, so to
        // 1e-19 of `erfc`.
        for i in 0..=40 {
            let x = 3.0 + i as f64 / 40.0;
            let series = Dd::of(1.0).minus(maclaurin(x));
            let fraction = erfc_continued_fraction(x, 200);
            let rel = series.minus(fraction).hi / fraction.hi;
            assert!(rel.abs() < 1e-18, "erfc({x}): {series:?} vs {fraction:?}");
        }
    }

    #[test]
    fn erf_is_within_two_ulp_near_zero_and_4e_16_elsewhere() {
        // A grid that is not aligned to the cells, over [−6.5, 6.5].
        let steps = 5000;
        for i in 0..=steps {
            check_erf(-6.5 + 13.0 * i as f64 / steps as f64);
        }
        // Both sides of every cell edge, and of the branch points.
        for k in 0..=CELLS {
            let edge = CELL_START + k as f64 * CELL_WIDTH;
            for x in [edge.next_down(), edge, edge.next_up()] {
                check_erf(x);
                check_erf(-x);
            }
        }
        // Tiny and subnormal arguments keep relative accuracy.
        let mut x = 0.5;
        while x > 1e-320 {
            check_erf(x);
            check_erf(-x);
            x *= 0.37;
        }
        for x in [f64::MIN_POSITIVE, f64::from_bits(1), f64::from_bits(12345)] {
            check_erf(x);
            check_erf(-x);
        }
    }

    #[test]
    fn erfc_is_within_1e_14_relative_up_to_26() {
        let steps = 2600;
        let mut edges = Vec::new();
        for k in 0..=CELLS {
            let edge = CELL_START + k as f64 * CELL_WIDTH;
            edges.extend([edge.next_down(), edge, edge.next_up()]);
        }
        let grid = (0..=steps).map(|i| 26.0 * i as f64 / steps as f64);
        for x in grid.chain(edges) {
            let got = erfc(x);
            let want = erfc_oracle(x).hi;
            let rel = ((got - want) / want).abs();
            assert!(rel <= 1e-14, "erfc({x}) = {got:e}, want {want:e}: {rel:e}");
        }
    }

    #[test]
    fn erfc_matches_reference_values() {
        // erfc, rounded to the nearest double.
        let cases = [
            (5.0, 1.537459794428035e-12),
            (10.0, 2.088487583762545e-45),
            (20.0, 5.395865611607901e-176),
            (26.0, 5.663192408856143e-296),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(((got - want) / want).abs() < 1e-14, "erfc({x}) = {got:e}");
            let oracle = erfc_oracle(x).hi;
            assert!(
                ((oracle - want) / want).abs() < 1e-15,
                "oracle({x}) = {oracle:e}"
            );
        }
        assert_eq!(erfc(ERFC_UNDERFLOW), 0.0);
        assert!(erfc(ERFC_UNDERFLOW.next_down()) >= 0.0);
    }
}
