//! Property-based tests for the persistence layer: random ECC sets must
//! survive the JSON codec and the binary `QTZL` artifact format losslessly,
//! and artifact validation must reject every corruption.

use proptest::prelude::*;
use quartz_gen::{checksum64, Ecc, EccSet, LazyLibrary, Library, TransformationIndex};
use quartz_ir::{Circuit, Gate, Instruction, ParamExpr};

/// Strategy producing a random instruction over `nq` qubits and `m ≥ 1`
/// formal parameters, mixing constant and parameter-dependent angles.
fn arb_instruction(nq: usize, m: usize) -> impl Strategy<Value = Instruction> {
    let gates = prop_oneof![
        Just(Gate::H),
        Just(Gate::X),
        Just(Gate::T),
        Just(Gate::Tdg),
        Just(Gate::Rz),
        Just(Gate::Cnot),
        Just(Gate::Cz),
    ];
    (gates, 0..nq, 0..nq.max(2), -6i32..=6, 0u32..2).prop_filter_map(
        "operands must be distinct",
        move |(gate, q0, q1_raw, quarters, symbolic)| {
            let symbolic = symbolic == 1;
            let q1 = q1_raw % nq;
            let params = if gate.num_params() == 1 {
                if symbolic {
                    vec![ParamExpr::var(0, m)]
                } else {
                    vec![ParamExpr::constant_pi4_with_params(quarters, m)]
                }
            } else {
                vec![]
            };
            match gate.num_qubits() {
                1 => Some(Instruction::new(gate, vec![q0], params)),
                2 if q0 != q1 => Some(Instruction::new(gate, vec![q0, q1], vec![])),
                _ => None,
            }
        },
    )
}

fn arb_circuit(nq: usize, m: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_instruction(nq, m), 0..max_len).prop_map(move |instrs| {
        let mut c = Circuit::new(nq, m);
        for i in instrs {
            c.push(i);
        }
        c
    })
}

/// A random (not necessarily semantically sound) ECC set: the persistence
/// layer must round-trip *any* structurally valid set, not just verified
/// ones.
fn arb_ecc_set(nq: usize, m: usize) -> impl Strategy<Value = EccSet> {
    prop::collection::vec(prop::collection::vec(arb_circuit(nq, m, 6), 1..4), 0..5).prop_map(
        move |classes| {
            let mut set = EccSet::new(nq, m);
            for circuits in classes {
                set.eccs.push(Ecc::new(circuits));
            }
            set
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn json_round_trips_losslessly(set in arb_ecc_set(2, 1)) {
        let json = set.to_json();
        let back = EccSet::from_json(&json).unwrap();
        prop_assert_eq!(back, set);
    }

    #[test]
    fn binary_artifacts_round_trip_losslessly(set in arb_ecc_set(2, 1), with_index_raw in 0u32..2) {
        let with_index = with_index_raw == 1;
        let library = Library::new("Nam", set.clone(), with_index);
        let bytes = library.to_bytes();
        let back = Library::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.ecc_set(), &set);
        prop_assert_eq!(back.header(), library.header());
        prop_assert_eq!(back.index().is_some(), with_index);
        // Re-encoding is byte-identical (what `quartz-lib verify-checksum
        // --deep` relies on).
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn loaded_index_reproduces_the_freshly_built_index(set in arb_ecc_set(2, 1)) {
        let library = Library::new("Nam", set.clone(), true);
        let loaded = Library::from_bytes(&library.to_bytes()).unwrap();
        let loaded_index = loaded.index().unwrap();
        let fresh = TransformationIndex::new(
            quartz_gen::transformations_from_ecc_set(&set, true),
        );
        prop_assert_eq!(loaded_index.len(), fresh.len());
        prop_assert_eq!(loaded_index.transformations(), fresh.transformations());
    }

    #[test]
    fn every_single_byte_flip_is_detected(set in arb_ecc_set(2, 1), seed in 0u64..u64::MAX) {
        // Any one-byte corruption — header *or* body — must be rejected:
        // the artifact checksum covers the header prefix chained into the
        // whole body, and a flip inside the checksum field itself mismatches
        // the recomputation.
        let bytes = Library::new("Nam", set, true).to_bytes();
        let pos = (seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        prop_assert!(
            Library::from_bytes(&corrupt).is_err(),
            "flipping byte {pos} of {} went undetected",
            bytes.len()
        );
        // FNV-1a's per-byte step is a bijection of the running state, so a
        // single flipped byte always changes the final checksum.
        prop_assert_ne!(checksum64(&bytes), checksum64(&corrupt));
    }

    #[test]
    fn artifacts_round_trip_losslessly_through_the_lazy_reader(set in arb_ecc_set(2, 1), with_index_raw in 0u32..2) {
        let with_index = with_index_raw == 1;
        let library = Library::new("Nam", set.clone(), with_index);
        let bytes = library.to_bytes();
        // Eagerly...
        let back = Library::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.ecc_set(), &set);
        prop_assert_eq!(back.header(), library.header());
        prop_assert_eq!(back.to_bytes(), bytes);
        // ...and through the reader's section decoders.
        let lazy = LazyLibrary::from_bytes(bytes).unwrap();
        prop_assert_eq!(&lazy.ecc_set().unwrap(), &set);
        prop_assert_eq!(lazy.index().unwrap().is_some(), with_index);
    }

    /// The whole file is sealed by one checksum, so every single-byte flip
    /// is a typed error when the artifact is opened, before any section is
    /// decoded.
    #[test]
    fn every_byte_flip_is_detected_at_open(
        set in arb_ecc_set(2, 1),
        seed in 0u64..u64::MAX,
    ) {
        let bytes = Library::new("Nam", set, true).to_bytes();
        let pos = (seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes;
        corrupt[pos] ^= 0x01;
        prop_assert!(
            LazyLibrary::from_bytes(corrupt).is_err(),
            "open accepted a flip at byte {pos}"
        );
    }
}
