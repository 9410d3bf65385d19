//! Adversarial tests for the lazy-loading path (DESIGN.md §12):
//! truncation at every section boundary must surface as a *typed*
//! [`LibraryError`] at open, corruption in a class the reader never touches
//! must still be caught by the digest sweep, an index section carrying more
//! than the rule list is refused, and I/O failures must name the offending
//! path.

use quartz_gen::{
    artifact_checksum, checksum64, Ecc, EccSet, LazyLibrary, Library, LibraryError, HEADER_LEN,
};
use quartz_ir::{Circuit, Gate, Instruction, ALL_GATES};

fn pair(gate: Gate, qubits: &[usize]) -> Circuit {
    let mut c = Circuit::new(2, 0);
    c.push(Instruction::new(gate, qubits.to_vec(), vec![]));
    c.push(Instruction::new(gate, qubits.to_vec(), vec![]));
    c
}

/// Three classes with distinct anchors, packed with a prebuilt index.
fn sample() -> Library {
    let mut set = EccSet::new(2, 0);
    set.eccs
        .push(Ecc::new(vec![pair(Gate::H, &[0]), Circuit::new(2, 0)]));
    set.eccs
        .push(Ecc::new(vec![pair(Gate::X, &[1]), Circuit::new(2, 0)]));
    set.eccs.push(Ecc::new(vec![
        pair(Gate::Cnot, &[0, 1]),
        Circuit::new(2, 0),
    ]));
    Library::new("Nam", set, true)
}

#[test]
fn truncation_at_every_section_boundary_is_a_typed_error() {
    let library = sample();
    let bytes = library.to_bytes();
    let lazy = LazyLibrary::from_bytes(bytes.clone()).unwrap();
    let table = lazy.class_table();
    let sections_start = HEADER_LEN + table.encoded_len();
    let ecc_len = library.header().ecc_len as usize;

    let mut boundaries = vec![
        0,
        1,
        HEADER_LEN - 1,
        HEADER_LEN,
        HEADER_LEN + 31,
        HEADER_LEN + 32,
        sections_start - 1,
        sections_start,
        sections_start + ecc_len - 1,
        sections_start + ecc_len,
        bytes.len() - 1,
    ];
    boundaries.dedup();

    for cut in boundaries {
        assert!(cut < bytes.len(), "test boundary {cut} is not a truncation");
        let truncated = bytes[..cut].to_vec();
        // The lazy open validates lengths before trusting any offset: every
        // truncation is a typed Truncated error, never a panic, a silent
        // partial library, or a failure at first touch.
        match LazyLibrary::from_bytes(truncated.clone()) {
            Err(LibraryError::Truncated { .. }) => {}
            // Cuts inside the 4-byte magic can't even prove the file is ours.
            Err(LibraryError::NotALibrary) if cut < 4 => {}
            Err(other) => panic!("truncation at {cut} gave a non-truncation error: {other}"),
            Ok(_) => panic!("truncation at {cut} opened successfully"),
        }
        // The eager decoder rejects it too.
        assert!(
            Library::from_bytes(&truncated).is_err(),
            "eager decode accepted a truncation at {cut}"
        );
    }
}

#[test]
fn corruption_in_an_untouched_class_is_caught_by_the_digest_sweep() {
    let library = sample();
    let bytes = library.to_bytes();
    let lazy = LazyLibrary::from_bytes(bytes.clone()).unwrap();
    let table = lazy.class_table();
    let sections_start = HEADER_LEN + table.encoded_len();

    // Flip the first byte of class 2's payload.
    let victim = 2usize;
    let victim_start: usize = table.classes[..victim].iter().map(|e| e.len as usize).sum();
    let mut corrupt = bytes;
    corrupt[sections_start + victim_start] ^= 0x01;

    // Open succeeds (the flip is outside the checksum-sealed prefix), and a
    // reader that only ever touches classes 0 and 1 — or the index — never
    // trips over it...
    let lazy = LazyLibrary::from_bytes(corrupt).unwrap();
    assert!(lazy.class(0).is_ok());
    assert!(lazy.class(1).is_ok());
    assert!(lazy.index().is_ok());
    assert_eq!(lazy.decoded_classes(), 2);

    // ...which is exactly why `verify_all` (run by the library cache and
    // `verify-checksum`) sweeps every digest without decoding:
    match lazy.verify_all() {
        Err(LibraryError::ClassDigestMismatch { class, .. }) => assert_eq!(class, victim),
        other => panic!("digest sweep missed the untouched corrupt class: {other:?}"),
    }
    // And a first touch of the victim class reports the same.
    assert!(matches!(
        lazy.class(victim),
        Err(LibraryError::ClassDigestMismatch { class, .. }) if class == victim
    ));
}

/// The index section holds the rule list and nothing else. A version-3
/// artifact whose index section still carries the per-rule gate histograms
/// and anchor buckets older versions stored after the rules — with the
/// index digest and the artifact checksum resealed over them, so only the
/// section's own length can tell — is refused by both decoders.
#[test]
fn an_index_section_with_a_histogram_and_bucket_tail_is_malformed() {
    let library = sample();
    let mut bytes = library.to_bytes();
    let table_len = LazyLibrary::from_bytes(bytes.clone())
        .unwrap()
        .class_table()
        .encoded_len();
    let index_start = HEADER_LEN + table_len + library.header().ecc_len as usize;

    let rules = library.index().unwrap().transformations();
    let mut buckets = vec![Vec::new(); ALL_GATES.len()];
    for (id, rule) in rules.iter().enumerate() {
        let histogram = rule.target.gate_histogram();
        for gate in ALL_GATES {
            bytes.extend_from_slice(&(histogram.count(gate) as u32).to_le_bytes());
        }
        buckets[rule.target.instructions()[0].gate.index()].push(id as u32);
    }
    for bucket in &buckets {
        bytes.extend_from_slice(&(bucket.len() as u32).to_le_bytes());
        for id in bucket {
            bytes.extend_from_slice(&id.to_le_bytes());
        }
    }

    // Reseal: index length in the header, index digest at the end of the
    // class table, then the checksum over header prefix and table.
    let index_len = (bytes.len() - index_start) as u64;
    bytes[56..64].copy_from_slice(&index_len.to_le_bytes());
    let digest = checksum64(&bytes[index_start..]);
    let table_end = HEADER_LEN + table_len;
    bytes[table_end - 8..table_end].copy_from_slice(&digest.to_le_bytes());
    let checksum = artifact_checksum(&bytes[..HEADER_LEN - 8], &bytes[HEADER_LEN..table_end]);
    bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());

    let lazy = LazyLibrary::from_bytes(bytes.clone()).expect("the resealed prefix is valid");
    lazy.verify_all().expect("every digest matches");
    assert!(
        matches!(lazy.index(), Err(LibraryError::Malformed(_))),
        "LazyLibrary::index accepted the tail"
    );
    assert!(
        matches!(Library::from_bytes(&bytes), Err(LibraryError::Malformed(_))),
        "Library::from_bytes accepted the tail"
    );
}

/// `quartz-lib` as a binary: both container versions get their version
/// printed — version 3 in the header dump, version 2 in the refusal — and
/// a command that no longer exists (`shard`) exits through the usage
/// error, whose text lists only the commands that do.
#[test]
fn inspect_prints_the_format_version_for_both_container_versions() {
    let dir = std::env::temp_dir().join(format!("quartz_inspect_fmt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let bytes = sample().to_bytes();
    let mut v2 = bytes.clone();
    v2[4..6].copy_from_slice(&2u16.to_le_bytes());
    let v3_path = dir.join("v3.qtzl");
    let v2_path = dir.join("v2.qtzl");
    std::fs::write(&v3_path, bytes).unwrap();
    std::fs::write(&v2_path, v2).unwrap();
    let (v3_path, v2_path) = (v3_path.to_str().unwrap(), v2_path.to_str().unwrap());
    let prefix = dir.join("split");
    let prefix = prefix.to_str().unwrap();
    // (arguments, exit code, text on stdout for 0 and on stderr otherwise)
    let cases: [(&[&str], i32, &str); 3] = [
        (&["inspect", v3_path], 0, "format version:     3"),
        (
            &["inspect", v2_path],
            1,
            "unsupported library format version 2",
        ),
        (
            &[
                "shard",
                "--in",
                v3_path,
                "--count",
                "2",
                "--out-prefix",
                prefix,
            ],
            2,
            "unknown command \"shard\"",
        ),
    ];
    for (args, code, text) in cases {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_quartz-lib"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(code), "{args:?}: {output:?}");
        let stream = if code == 0 {
            output.stdout
        } else {
            output.stderr
        };
        let stream = String::from_utf8(stream).unwrap();
        assert!(
            stream.contains(text),
            "{args:?} output lacks '{text}':\n{stream}"
        );
        if code == 2 {
            for gone in ["shard", "merge", "registry"] {
                assert!(
                    !stream.contains(&format!("quartz-lib {gone}")),
                    "usage text still lists `{gone}`:\n{stream}"
                );
            }
        }
    }
    assert!(
        !dir.join("split.shard0.qtzl").exists(),
        "a refused command wrote output"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn io_errors_name_the_offending_path() {
    let dir = std::env::temp_dir().join(format!("quartz_lazy_io_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A missing artifact: the Io error's Display names the path.
    let missing = dir.join("not_there.qtzl");
    let err = LazyLibrary::open(&missing).unwrap_err();
    assert!(matches!(err, LibraryError::Io(_)), "{err:?}");
    assert!(
        err.to_string().contains("not_there.qtzl"),
        "I/O error must name the offending path, got: {err}"
    );

    // An empty file has no magic: it is not a library.
    let empty = dir.join("empty.qtzl");
    std::fs::write(&empty, b"").unwrap();
    let err = LazyLibrary::open(&empty).unwrap_err();
    assert!(matches!(err, LibraryError::NotALibrary), "{err:?}");

    // A directory opens but cannot be read: an Io error naming it.
    let subdir = dir.join("a_directory.qtzl");
    std::fs::create_dir_all(&subdir).unwrap();
    let err = LazyLibrary::open(&subdir).unwrap_err();
    assert!(matches!(err, LibraryError::Io(_)), "{err:?}");
    assert!(
        err.to_string().contains("a_directory.qtzl"),
        "I/O error must name the offending path, got: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
