//! One [`Verifier`] reused across queries, as the generator runs it (its
//! gate-matrix memo warm from earlier queries), decides every query exactly
//! as a fresh verifier per query does, phase factor included.

use quartz_bench::verifier_bench_pairs;
use quartz_gen::LazyLibrary;
use quartz_ir::Circuit;
use quartz_verify::{Verdict, Verifier};

/// `count` circuit pairs drawn from a committed library, seeded: even draws
/// take two members of one class (equivalent, at whatever phase), odd draws
/// members of two classes.
fn library_pairs(file: &str, count: usize) -> Vec<(Circuit, Circuit)> {
    let path = format!("{}/../../libraries/{file}", env!("CARGO_MANIFEST_DIR"));
    let set = LazyLibrary::open(path).unwrap().ecc_set().unwrap();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut below = |n: usize| {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    (0..count)
        .map(|draw| {
            let first = set.eccs[below(set.eccs.len())].circuits();
            let second = if draw % 2 == 0 {
                first
            } else {
                set.eccs[below(set.eccs.len())].circuits()
            };
            (
                first[below(first.len())].clone(),
                second[below(second.len())].clone(),
            )
        })
        .collect()
}

#[test]
fn a_reused_verifier_decides_every_query_as_a_fresh_one() {
    let mut pairs: Vec<(Circuit, Circuit)> = verifier_bench_pairs()
        .into_iter()
        .map(|(_, a, b)| (a, b))
        .collect();
    pairs.extend(library_pairs("nam_n3_q2.qtzl", 200));
    pairs.extend(library_pairs("rigetti_n2_q2.qtzl", 200));

    let mut reused = Verifier::default();
    let (mut equivalent, mut phased) = (0, 0);
    // The second round is served entirely from the warm memo.
    for _round in 0..2 {
        for (a, b) in &pairs {
            let warm = reused.equivalent(a, b);
            assert_eq!(warm, Verifier::default().equivalent(a, b), "{a:?} vs {b:?}");
            if let Ok(Verdict::Equivalent(phase)) = warm {
                equivalent += 1;
                phased += usize::from(phase.pi4_units.rem_euclid(8) != 0);
            }
        }
    }
    // The draws reach the exact check, and some verdicts carry a phase.
    assert!(
        equivalent >= pairs.len() / 2,
        "{equivalent} of {}",
        2 * pairs.len()
    );
    assert!(phased > 0);
}
