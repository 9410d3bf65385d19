//! Property-based tests for the exact arithmetic substrate.

use proptest::prelude::*;
use quartz_math::{BigInt, Cyclotomic, Matrix, Monomial, Poly, Rational, Ring};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

fn arb_bigint() -> impl Strategy<Value = BigInt> {
    any::<i128>().prop_map(BigInt::from)
}

fn arb_rational() -> impl Strategy<Value = Rational> {
    (-10_000i64..10_000, 1i64..1_000).prop_map(|(n, d)| Rational::new(n, d))
}

fn arb_cyclotomic() -> impl Strategy<Value = Cyclotomic> {
    (
        arb_rational(),
        arb_rational(),
        arb_rational(),
        arb_rational(),
    )
        .prop_map(|(a, b, c, d)| {
            let mut out = Cyclotomic::from_rational(a);
            out += &Cyclotomic::zeta().scale(&b);
            out += &Cyclotomic::i().scale(&c);
            out += &Cyclotomic::root_of_unity(3).scale(&d);
            out
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bigint_add_commutes(a in arb_bigint(), b in arb_bigint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn bigint_mul_distributes(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn bigint_div_rem_reconstructs(a in arb_bigint(), b in arb_bigint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(&(&q * &b) + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
    }

    #[test]
    fn bigint_string_round_trip(a in arb_bigint()) {
        let s = a.to_string();
        prop_assert_eq!(BigInt::from_decimal_str(&s).unwrap(), a);
    }

    #[test]
    fn bigint_gcd_divides_both(a in arb_bigint(), b in arb_bigint()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn rational_field_axioms(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rational::one());
        }
    }

    #[test]
    fn rational_sub_then_add_round_trips(a in arb_rational(), b in arb_rational()) {
        prop_assert_eq!(&(&a - &b) + &b, a);
    }

    #[test]
    fn cyclotomic_ring_axioms(a in arb_cyclotomic(), b in arb_cyclotomic(), c in arb_cyclotomic()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn cyclotomic_conj_is_involution_and_multiplicative(a in arb_cyclotomic(), b in arb_cyclotomic()) {
        prop_assert_eq!(a.conj().conj(), a.clone());
        prop_assert_eq!((&a * &b).conj(), &a.conj() * &b.conj());
    }

    #[test]
    fn cyclotomic_inverse(a in arb_cyclotomic()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(&a * &a.inverse(), Cyclotomic::one());
    }

    #[test]
    fn cyclotomic_numeric_matches_conjugate(a in arb_cyclotomic()) {
        let (re, im) = a.to_complex_f64();
        let (cre, cim) = a.conj().to_complex_f64();
        prop_assert!((re - cre).abs() < 1e-6);
        prop_assert!((im + cim).abs() < 1e-6);
    }

    #[test]
    fn poly_exp_angles_compose(k1 in -3i64..4, k2 in -3i64..4, r1 in 0i64..8, r2 in 0i64..8) {
        // e^{iθ1}·e^{iθ2} = e^{i(θ1+θ2)}
        let a = Poly::exp_i_angle(&[k1, k2], r1);
        let b = Poly::exp_i_angle(&[k2, k1], r2);
        let combined = Poly::exp_i_angle(&[k1 + k2, k2 + k1], r1 + r2);
        prop_assert!(a.mul(&b).sub(&combined).is_zero_mod_trig());
    }

    #[test]
    fn poly_trig_normal_form_preserves_value(k in 1i64..4, r in 0i64..8, h in -3.0f64..3.0) {
        let p = Poly::sin_angle(&[k], r).pow(3).add(&Poly::cos_angle(&[k], r).pow(2));
        let nf = p.trig_normal_form();
        let x = p.eval_f64(&[h]);
        let y = nf.eval_f64(&[h]);
        prop_assert!((x.re - y.re).abs() < 1e-8 && (x.im - y.im).abs() < 1e-8);
    }

    #[test]
    fn poly_pythagoras_any_angle(k in -4i64..5, r in 0i64..8) {
        let expr = Poly::sin_angle(&[k], r).pow(2)
            .add(&Poly::cos_angle(&[k], r).pow(2))
            .sub(&Poly::one());
        prop_assert!(expr.is_zero_mod_trig());
    }
}

// ---------------------------------------------------------------------------
// Rational arithmetic at the edges of the machine-word representation.
//
// Every result is checked against a reference built from the operands'
// integer parts with `BigInt` cross-multiplication (n·d′ = n′·d), never
// through `Rational`'s own operators.

/// Integers around ±2^31, ±2^62, `i64::MAX` and `i64::MIN + 1` (and
/// `i64::MIN` itself), where products and sums leave the `i64` range.
const ANCHORS: [i64; 21] = [
    0,
    1,
    -1,
    2,
    3,
    (1 << 31) - 1,
    1 << 31,
    -(1 << 31),
    (1 << 31) + 1,
    -(1 << 31) - 1,
    1 << 62,
    -(1 << 62),
    (1 << 62) - 1,
    (1 << 62) + 1,
    -(1 << 62) - 1,
    i64::MAX,
    i64::MAX - 1,
    -i64::MAX,
    i64::MIN + 1,
    i64::MIN + 2,
    i64::MIN,
];

fn big(v: i64) -> BigInt {
    BigInt::from(v)
}

fn rational_hash(r: &Rational) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// Asserts that `r` is in canonical form and equals `n / d`, using only
/// `BigInt` arithmetic for the comparison.
fn assert_equals_fraction(r: &Rational, n: &BigInt, d: &BigInt, what: &str) {
    assert!(!d.is_zero(), "{what}: zero reference denominator");
    let (rn, rd) = (r.numer(), r.denom());
    assert!(rd.is_positive(), "{what}: denominator {rd} is not positive");
    let g = rn.gcd(&rd);
    assert!(g.is_one(), "{what}: {rn}/{rd} is not in lowest terms");
    assert_eq!(&rn * d, n * &rd, "{what}: {r} != {n}/{d}");
}

/// Checks `+ − × ÷` and `cmp` of `n1/d1` and `n2/d2` against the `BigInt`
/// reference.
fn check_rational_pair(n1: i64, d1: i64, n2: i64, d2: i64) {
    let (a, b) = (Rational::new(n1, d1), Rational::new(n2, d2));
    let (bn1, bd1, bn2, bd2) = (big(n1), big(d1), big(n2), big(d2));
    let what = |op: &str| format!("{n1}/{d1} {op} {n2}/{d2}");

    assert_equals_fraction(&a, &bn1, &bd1, &format!("{n1}/{d1}"));
    assert_equals_fraction(
        &(&a + &b),
        &(&(&bn1 * &bd2) + &(&bn2 * &bd1)),
        &(&bd1 * &bd2),
        &what("+"),
    );
    assert_equals_fraction(
        &(&a - &b),
        &(&(&bn1 * &bd2) - &(&bn2 * &bd1)),
        &(&bd1 * &bd2),
        &what("-"),
    );
    assert_equals_fraction(&(&a * &b), &(&bn1 * &bn2), &(&bd1 * &bd2), &what("*"));
    if n2 != 0 {
        assert_equals_fraction(&(&a / &b), &(&bn1 * &bd2), &(&bd1 * &bn2), &what("/"));
    }

    // n1/d1 vs n2/d2  <=>  n1·d2 vs n2·d1, reversed when d1·d2 < 0.
    let mut expected = (&bn1 * &bd2).cmp(&(&bn2 * &bd1));
    if (d1 < 0) != (d2 < 0) {
        expected = expected.reverse();
    }
    assert_eq!(a.cmp(&b), expected, "{}", what("cmp"));
    assert_eq!(a == b, expected == Ordering::Equal, "{}", what("=="));
}

#[test]
fn rational_ops_at_word_boundaries_match_bigint_cross_multiplication() {
    let denominators = ANCHORS.iter().copied().filter(|&d| d != 0);
    let operands: Vec<(i64, i64)> = denominators
        .flat_map(|d| {
            [1, -1, 2, (1 << 31) + 1, i64::MAX, i64::MIN + 1]
                .into_iter()
                .map(move |n| (n, d))
                .chain(ANCHORS.iter().map(move |&n| (n, d)).step_by(3))
        })
        .collect();
    for &(n1, d1) in &operands {
        for &(n2, d2) in operands.iter().step_by(7) {
            check_rational_pair(n1, d1, n2, d2);
        }
    }
}

#[test]
fn rational_products_that_overflow_i64_are_exact() {
    let m = Rational::from(i64::MAX);
    let square = &m * &m;
    assert_equals_fraction(&square, &(&big(i64::MAX) * &big(i64::MAX)), &big(1), "MAX²");
    let back = &square / &m;
    assert_eq!(back, m);
    assert_eq!(rational_hash(&back), rational_hash(&m));
    // (2^62)·4 = 2^64 leaves i64; halving twice comes back.
    let p = &Rational::from(1 << 62) * &Rational::from(4);
    assert_equals_fraction(&p, &BigInt::from(1i128 << 64), &big(1), "2^64");
    let q = &(&p * &Rational::new(1, 2)) * &Rational::new(1, 2);
    assert_eq!(q, Rational::from(1 << 62));
    // A denominator that overflows, and its reciprocal.
    let tiny = &Rational::new(1, i64::MAX) * &Rational::new(1, i64::MAX - 1);
    assert_equals_fraction(
        &tiny,
        &big(1),
        &(&big(i64::MAX) * &big(i64::MAX - 1)),
        "1/(MAX·(MAX−1))",
    );
    assert!(tiny > Rational::zero() && tiny < Rational::new(1, i64::MAX));
    assert_equals_fraction(
        &tiny.recip(),
        &(&big(i64::MAX) * &big(i64::MAX - 1)),
        &big(1),
        "recip",
    );
    // i64::MIN is not a small numerator, but its values compare and negate.
    let min = Rational::from(i64::MIN);
    assert_equals_fraction(&-&min, &-big(i64::MIN), &big(1), "−MIN");
    assert_eq!(&min + &Rational::one(), Rational::from(i64::MIN + 1));
    assert!(min < Rational::from(i64::MIN + 1));
    assert_eq!(min.abs(), -&min);
}

#[test]
fn rational_values_reached_through_bigints_are_canonical() {
    let huge = &Rational::from(i64::MAX) * &Rational::from(i64::MAX);
    for &x in &ANCHORS {
        for d in [1, 3, i64::MAX] {
            let expected = Rational::new(x, d);
            let via_sum = &(&expected + &huge) - &huge;
            let via_product = &(&expected * &huge) / &huge;
            let k = &big(i64::MAX) * &big(7);
            let via_bigints = Rational::from_bigints(&big(x) * &k, &big(d) * &k);
            for (how, r) in [
                ("sum", via_sum),
                ("product", via_product),
                ("from_bigints", via_bigints),
            ] {
                assert_eq!(r, expected, "{x}/{d} via {how}");
                assert_eq!(
                    rational_hash(&r),
                    rational_hash(&expected),
                    "{x}/{d} via {how}"
                );
                assert_eq!(r.to_string(), expected.to_string());
            }
        }
    }
    let z = &huge - &huge;
    assert!(z.is_zero());
    assert_eq!(z, Rational::zero());
    assert_eq!(rational_hash(&z), rational_hash(&Rational::zero()));
}

/// An integer near one of the anchors.
fn arb_near_anchor() -> impl Strategy<Value = i64> {
    (0..ANCHORS.len(), -3i64..4).prop_map(|(i, off)| ANCHORS[i].saturating_add(off))
}

// ---------------------------------------------------------------------------
// Polynomial oracles.

fn monomial(exps: &[u16]) -> Monomial {
    let mut m = Monomial::unit();
    for (idx, &e) in exps.iter().enumerate() {
        for _ in 0..e {
            m = m.mul(&Monomial::var(idx));
        }
    }
    m
}

/// A polynomial in two half-parameters (four variables) whose terms have
/// sᵢ-exponents up to 4, so both paths of the normal form are taken.
fn arb_poly() -> impl Strategy<Value = Poly> {
    let term = ((0u16..4, 0u16..5, 0u16..3, 0u16..5), -3i64..4, 0i64..8);
    prop::collection::vec(term, 0..7).prop_map(|terms| {
        let mut p = Poly::zero();
        for ((c0, s0, c1, s1), k, r) in terms {
            let coeff = Cyclotomic::root_of_unity(r).scale(&Rational::new(k, 2));
            p = p.add(&Poly::from_monomial(monomial(&[c0, s0, c1, s1]), coeff));
        }
        p
    })
}

/// The normal form as computed before it was made linear: every monomial is
/// reduced to its own polynomial, and the results are summed out of place.
fn quadratic_trig_normal_form(p: &Poly) -> Poly {
    let mut out = Poly::zero();
    for (m, coeff) in p.terms() {
        let mut acc = Poly::constant(coeff.clone());
        let mut residual = Vec::new();
        for idx in 0..8 {
            let e = m.exponent(idx);
            if idx % 2 == 0 {
                residual.push(e);
            } else {
                residual.push(e % 2);
                let one_minus_c2 = Poly::one().sub(&Poly::var_cos(idx / 2).pow(2));
                acc = acc.mul(&one_minus_c2.pow(u32::from(e / 2)));
            }
        }
        let reduced = acc.mul(&Poly::from_monomial(monomial(&residual), Cyclotomic::one()));
        out = out.add(&reduced);
    }
    out
}

fn arb_poly_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<Poly>> {
    prop::collection::vec(arb_poly(), rows * cols).prop_map(move |entries| {
        let mut it = entries.into_iter();
        Matrix::from_rows(
            (0..rows)
                .map(|_| it.by_ref().take(cols).collect())
                .collect(),
        )
    })
}

// ---------------------------------------------------------------------------
// The flat term list against a map reference.

/// Variables a reference term may use: six half-parameters, so that some
/// monomials are wider than the inline exponent array.
const REF_VARS: usize = 12;

/// A reference polynomial: trimmed exponent lists to nonzero coefficients,
/// iterated in the lexicographic order of the lists.
type RefPoly = BTreeMap<Vec<u16>, Cyclotomic>;

fn trimmed(exps: &[u16]) -> Vec<u16> {
    let len = exps.iter().rposition(|&e| e != 0).map_or(0, |i| i + 1);
    exps[..len].to_vec()
}

fn ref_add_term(p: &mut RefPoly, m: Vec<u16>, c: &Cyclotomic) {
    let sum = p.remove(&m).map_or_else(|| c.clone(), |old| &old + c);
    if !sum.is_zero() {
        p.insert(m, sum);
    }
}

fn ref_add(a: &RefPoly, b: &RefPoly, negate: bool) -> RefPoly {
    let mut out = a.clone();
    for (m, c) in b {
        let c = if negate { -c } else { c.clone() };
        ref_add_term(&mut out, m.clone(), &c);
    }
    out
}

fn ref_mul(a: &RefPoly, b: &RefPoly) -> RefPoly {
    let mut out = RefPoly::new();
    for (ma, ca) in a {
        for (mb, cb) in b {
            let n = ma.len().max(mb.len());
            let m: Vec<u16> = (0..n)
                .map(|i| ma.get(i).unwrap_or(&0) + mb.get(i).unwrap_or(&0))
                .collect();
            ref_add_term(&mut out, trimmed(&m), &(ca * cb));
        }
    }
    out
}

/// `s_i² = 1 − c_i²` applied to every term until each `s_i`-exponent is
/// below 2, with every product taken in the map representation.
fn ref_trig_normal_form(p: &RefPoly) -> RefPoly {
    let one = Cyclotomic::one();
    let mut out = RefPoly::new();
    for (m, c) in p {
        let mut acc = RefPoly::from([(Vec::new(), c.clone())]);
        let mut residual = m.clone();
        for sin in (1..m.len()).step_by(2) {
            let mut c_squared = vec![0; sin];
            c_squared[sin - 1] = 2;
            let one_minus_c_squared =
                RefPoly::from([(Vec::new(), one.clone()), (c_squared, -&one)]);
            for _ in 0..m[sin] / 2 {
                acc = ref_mul(&acc, &one_minus_c_squared);
            }
            residual[sin] %= 2;
        }
        for (m, c) in ref_mul(&acc, &RefPoly::from([(trimmed(&residual), one.clone())])) {
            ref_add_term(&mut out, m, &c);
        }
    }
    out
}

/// A polynomial's terms in its own iteration order, each monomial as its
/// trimmed exponent list.
fn term_list(p: &Poly) -> Vec<(Vec<u16>, Cyclotomic)> {
    p.terms()
        .map(|(m, c)| {
            let exps: Vec<u16> = (0..REF_VARS).map(|i| m.exponent(i)).collect();
            (trimmed(&exps), c.clone())
        })
        .collect()
}

fn ref_term_list(p: &RefPoly) -> Vec<(Vec<u16>, Cyclotomic)> {
    p.iter().map(|(m, c)| (m.clone(), c.clone())).collect()
}

/// Exponent lists drawn untrimmed: half of them over the first three
/// variables, so that sums and products meet equal monomials, and half over
/// up to [`REF_VARS`] variables, so that some monomials are wide.
fn arb_exponents() -> impl Strategy<Value = Vec<u16>> {
    prop_oneof![
        prop::collection::vec(0u16..3, 0..4),
        prop::collection::vec(0u16..3, 0..REF_VARS + 1),
    ]
}

/// Up to four terms, built both ways.
fn arb_poly_with_reference() -> impl Strategy<Value = (Poly, RefPoly)> {
    let term = (arb_exponents(), -2i64..3, 0i64..8);
    prop::collection::vec(term, 0..5).prop_map(|terms| {
        let mut poly = Poly::zero();
        let mut reference = RefPoly::new();
        for (exps, k, r) in terms {
            let coeff = Cyclotomic::root_of_unity(r).scale(&Rational::new(k, 2));
            poly += &Poly::from_monomial(Monomial::from_exponents(&exps), coeff.clone());
            if !coeff.is_zero() {
                ref_add_term(&mut reference, trimmed(&exps), &coeff);
            }
        }
        (poly, reference)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rational_ops_near_word_boundaries(
        n1 in arb_near_anchor(), d1 in arb_near_anchor(),
        n2 in arb_near_anchor(), d2 in arb_near_anchor(),
    ) {
        prop_assume!(d1 != 0 && d2 != 0);
        check_rational_pair(n1, d1, n2, d2);
    }

    #[test]
    fn rational_ops_on_arbitrary_words(n1 in any::<i64>(), d1 in any::<i64>(), n2 in any::<i64>(), d2 in any::<i64>()) {
        prop_assume!(d1 != 0 && d2 != 0);
        check_rational_pair(n1, d1, n2, d2);
    }

    #[test]
    fn trig_normal_form_matches_the_quadratic_oracle(p in arb_poly()) {
        let nf = p.trig_normal_form();
        prop_assert_eq!(&nf, &quadratic_trig_normal_form(&p));
        prop_assert_eq!(nf.trig_normal_form(), nf);
    }

    #[test]
    fn poly_matmul_matches_out_of_place_sums(a in arb_poly_matrix(2, 3), b in arb_poly_matrix(3, 2)) {
        let got = a.matmul(&b);
        for i in 0..2 {
            for j in 0..2 {
                let mut expected = Poly::zero();
                for k in 0..3 {
                    expected = expected.add(&a.get(i, k).mul(b.get(k, j)));
                }
                prop_assert_eq!(got.get(i, j), &expected);
            }
        }
    }

    #[test]
    fn poly_add_assign_matches_add(a in arb_poly(), b in arb_poly()) {
        let mut sum = a.clone();
        Ring::add_assign(&mut sum, &b);
        prop_assert_eq!(&sum, &a.add(&b));
        let mut diff = a.clone();
        diff -= &b;
        prop_assert_eq!(&diff, &a.sub(&b));
        prop_assert!(a.sub(&a).is_zero());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn poly_arithmetic_matches_the_map_reference(
        a in arb_poly_with_reference(),
        b in arb_poly_with_reference(),
    ) {
        let ((a, ra), (b, rb)) = (a, b);
        prop_assert_eq!(term_list(&a), ref_term_list(&ra));
        prop_assert_eq!(term_list(&a.add(&b)), ref_term_list(&ref_add(&ra, &rb, false)));
        prop_assert_eq!(term_list(&a.sub(&b)), ref_term_list(&ref_add(&ra, &rb, true)));
        let mut in_place = a.clone();
        in_place -= &b;
        prop_assert_eq!(term_list(&in_place), ref_term_list(&ref_add(&ra, &rb, true)));
        let product = a.mul(&b);
        let ref_product = ref_mul(&ra, &rb);
        prop_assert_eq!(term_list(&product), ref_term_list(&ref_product));
        prop_assert_eq!(
            term_list(&a.trig_normal_form()),
            ref_term_list(&ref_trig_normal_form(&ra))
        );
        prop_assert_eq!(
            term_list(&product.trig_normal_form()),
            ref_term_list(&ref_trig_normal_form(&ref_product))
        );
    }

    #[test]
    fn monomial_order_is_trimmed_vec_order(a in arb_exponents(), b in arb_exponents()) {
        // `a` extended past the inline width: a wide monomial with `a` as a
        // prefix.
        let mut a_wide = a.clone();
        a_wide.resize(REF_VARS, 0);
        a_wide[REF_VARS - 1] += 1;
        let hash = |m: &Monomial| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        for x in [&a, &b, &a_wide] {
            for y in [&a, &b, &a_wide] {
                let (mx, my) = (Monomial::from_exponents(x), Monomial::from_exponents(y));
                let (tx, ty) = (trimmed(x), trimmed(y));
                prop_assert_eq!(mx.cmp(&my), tx.cmp(&ty));
                prop_assert_eq!(mx == my, tx == ty);
                if mx == my {
                    prop_assert_eq!(hash(&mx), hash(&my));
                }
            }
        }
        let (ma, mb) = (Monomial::from_exponents(&a), Monomial::from_exponents(&b));
        // Built from variables, the same monomial in the same place.
        prop_assert_eq!(&monomial(&a), &ma);
        let product = ma.mul(&mb);
        for i in 0..REF_VARS {
            prop_assert_eq!(product.exponent(i), ma.exponent(i) + mb.exponent(i));
        }
        prop_assert_eq!(product.degree(), ma.degree() + mb.degree());
    }
}
