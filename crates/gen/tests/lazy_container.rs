//! Adversarial tests for the one reader (DESIGN.md §12): every flipped or
//! truncated byte must surface as a *typed* [`LibraryError`] at open, a
//! checksum-valid artifact whose sections do not decode is caught by
//! `verify_all` (and refused by the audit), an index section carrying more
//! than the rule list is refused, and I/O failures must name the offending
//! path.

use quartz_gen::{
    artifact_checksum, Auditor, Ecc, EccSet, LazyLibrary, Library, LibraryError, HEADER_LEN,
};
use quartz_ir::{Circuit, Gate, Instruction, ParamExpr, ALL_GATES};

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

/// Rewrites the checksum of `bytes` over its (edited) header prefix and body.
fn reseal(bytes: &mut [u8]) {
    let checksum = artifact_checksum(&bytes[..HEADER_LEN - 8], &bytes[HEADER_LEN..]);
    bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
}

/// Whether `result` is one of the errors a bad artifact buffer can give.
fn is_format_error<T>(result: &Result<T, LibraryError>) -> bool {
    matches!(
        result,
        Err(LibraryError::NotALibrary
            | LibraryError::UnsupportedVersion(_)
            | LibraryError::Truncated { .. }
            | LibraryError::ChecksumMismatch { .. }
            | LibraryError::Malformed(_))
    )
}

#[test]
fn truncation_at_every_section_boundary_is_a_typed_error() {
    let library = sample();
    let bytes = library.to_bytes();
    let ecc_len = library.header().ecc_len as usize;

    let mut boundaries = vec![
        0,
        1,
        HEADER_LEN - 1,
        HEADER_LEN,
        HEADER_LEN + ecc_len - 1,
        HEADER_LEN + ecc_len,
        bytes.len() - 1,
    ];
    boundaries.dedup();

    for cut in boundaries {
        assert!(cut < bytes.len(), "test boundary {cut} is not a truncation");
        let truncated = bytes[..cut].to_vec();
        // Open checks lengths before trusting any offset: every truncation
        // is a typed Truncated error, never a panic, a silent partial
        // library, or a checksum mismatch.
        match LazyLibrary::from_bytes(truncated.clone()) {
            Err(LibraryError::Truncated { .. }) => {}
            // Cuts inside the 4-byte magic can't even prove the file is ours.
            Err(LibraryError::NotALibrary) if cut < 4 => {}
            Err(other) => panic!("truncation at {cut} gave a non-truncation error: {other}"),
            Ok(_) => panic!("truncation at {cut} opened successfully"),
        }
        assert!(
            Library::from_bytes(&truncated).is_err(),
            "Library::from_bytes accepted a truncation at {cut}"
        );
    }
}

/// The committed NAM artifact, exhaustively: each of its bytes flipped, and
/// each of its proper prefixes, is a typed error at open.
#[test]
fn every_flip_and_truncation_of_the_committed_nam_artifact_is_a_typed_error() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../libraries/nam_n3_q2.qtzl"
    );
    let bytes = std::fs::read(path).unwrap();
    LazyLibrary::from_bytes(bytes.clone()).expect("the committed artifact opens");
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        let opened = LazyLibrary::from_bytes(corrupt);
        assert!(is_format_error(&opened), "flip at byte {pos}: {opened:?}");
    }
    for cut in 0..bytes.len() {
        let opened = LazyLibrary::from_bytes(bytes[..cut].to_vec());
        assert!(is_format_error(&opened), "{cut}-byte prefix: {opened:?}");
    }
}

/// The checksum proves the bytes are the ones packed, not that they decode:
/// an unknown gate index resealed into the payload opens, and `verify_all`
/// — which decodes both sections — reports it, as `quartz-lib
/// verify-checksum` does with the path in its message.
#[test]
fn verify_all_decodes_what_the_checksum_only_seals() {
    let dir = std::env::temp_dir().join(format!("quartz_verify_all_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut bytes = sample().to_bytes();
    // Class 0 is {∅, H·H}: after its circuit count and the empty
    // representative's 8-byte circuit header comes H·H's circuit header,
    // then its first gate index.
    let gate_at = HEADER_LEN + 4 + 8 + 8;
    assert_eq!(bytes[gate_at], Gate::H.index() as u8);
    bytes[gate_at] = ALL_GATES.len() as u8;
    reseal(&mut bytes);
    let path = dir.join("unknown_gate.qtzl");
    std::fs::write(&path, &bytes).unwrap();

    let library = LazyLibrary::open(&path).expect("the resealed artifact opens");
    assert!(
        matches!(library.verify_all(), Err(LibraryError::Malformed(_))),
        "verify_all accepted an unknown gate index"
    );

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_quartz-lib"))
        .arg("verify-checksum")
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains(path.to_str().unwrap()) && stderr.contains("unknown gate index"),
        "verify-checksum must name the path and the fault:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A member may be narrower than the header's `(q, m)`, never wider. The
/// committed NAM artifact's first circuit, patched to claim one qubit more
/// than the header's `q` and resealed, opens (the checksum holds) but does
/// not decode, and `quartz-lib verify-checksum` exits 1 naming the fault.
#[test]
fn a_member_wider_than_the_header_is_malformed() {
    let dir = std::env::temp_dir().join(format!("quartz_wide_member_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../libraries/nam_n3_q2.qtzl"
    );
    let mut bytes = std::fs::read(committed).unwrap();
    let header = LazyLibrary::from_bytes(bytes.clone())
        .unwrap()
        .header()
        .clone();
    assert_eq!(header.num_qubits, 2);
    // The payload opens with class 0's circuit count, then its first
    // circuit's qubit count.
    let qubits_at = HEADER_LEN + 4;
    let stored = u16::from_le_bytes([bytes[qubits_at], bytes[qubits_at + 1]]);
    assert!(u32::from(stored) <= header.num_qubits);
    bytes[qubits_at..qubits_at + 2].copy_from_slice(&3u16.to_le_bytes());
    reseal(&mut bytes);
    let path = dir.join("wide_member.qtzl");
    std::fs::write(&path, &bytes).unwrap();

    let library = LazyLibrary::open(&path).expect("the resealed artifact opens");
    assert!(
        matches!(library.verify_all(), Err(LibraryError::Malformed(_))),
        "verify_all accepted a 3-qubit member under q = 2"
    );
    assert!(matches!(
        Library::from_bytes(&bytes),
        Err(LibraryError::Malformed(_))
    ));

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_quartz-lib"))
        .arg("verify-checksum")
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("exceeds the header's q = 2"),
        "verify-checksum must name the fault:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every malformed operand shape is the decoder's to refuse, so the audit
/// has no shape lint: a payload circuit with an out-of-range qubit, a
/// repeated qubit, a coefficient count other than the circuit's `m`, or
/// more qubits than the header's `q`, resealed so the checksum holds,
/// opens, fails `verify_all` as `Malformed`, and `audit_artifact` returns
/// that same error instead of a report.
#[test]
fn resealed_shape_faults_are_refused_by_the_decoder_before_the_audit() {
    let dir = std::env::temp_dir().join(format!("quartz_shape_faults_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // One class {∅, Rz(p0)·CNOT} over (q, m) = (2, 1).
    let mut member = Circuit::new(2, 1);
    member.push(Instruction::new(
        Gate::Rz,
        vec![0],
        vec![ParamExpr::from_parts(vec![1], 0)],
    ));
    member.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
    let mut set = EccSet::new(2, 1);
    set.eccs.push(Ecc::new(vec![Circuit::new(2, 1), member]));
    let bytes = Library::new("Nam", set, true).to_bytes();

    // Payload layout: the class's circuit count (4 bytes), the empty
    // representative's circuit header (qubits u16, params u16, gates u32),
    // the member's circuit header, then Rz (gate u8, qubit u16, coefficient
    // count u16, coefficient i32, constant i32) and CNOT (gate u8, two
    // qubit u16s).
    let member_at = HEADER_LEN + 4 + 8;
    let rz_at = member_at + 8;
    let cnot_at = rz_at + 1 + 2 + 2 + 4 + 4;
    assert_eq!(bytes[rz_at], Gate::Rz.index() as u8);
    assert_eq!(bytes[cnot_at], Gate::Cnot.index() as u8);
    // (what, offset of a u16 field, its stored value, the patched value)
    let faults = [
        ("out-of-range qubit", rz_at + 1, 0, 2),
        ("repeated qubit", cnot_at + 3, 1, 0),
        ("coefficient count other than m", rz_at + 3, 1, 2),
        ("member wider than the header", member_at, 2, 3),
    ];
    for (what, at, stored, patched) in faults {
        let mut corrupt = bytes.clone();
        assert_eq!(
            u16::from_le_bytes([corrupt[at], corrupt[at + 1]]),
            stored,
            "{what}: layout moved"
        );
        corrupt[at..at + 2].copy_from_slice(&u16::to_le_bytes(patched));
        reseal(&mut corrupt);
        let path = dir.join("shape_fault.qtzl");
        std::fs::write(&path, &corrupt).unwrap();

        let library = LazyLibrary::open(&path).expect("the resealed artifact opens");
        let decoded = match library.verify_all() {
            Err(e @ LibraryError::Malformed(_)) => e.to_string(),
            other => panic!("{what}: verify_all gave {other:?}"),
        };
        match Auditor::default().audit_artifact(&path) {
            Err(e @ LibraryError::Malformed(_)) => assert_eq!(e.to_string(), decoded, "{what}"),
            Err(e) => panic!("{what}: the audit failed with {e}"),
            Ok(report) => panic!("{what}: the audit produced a report:\n{report}"),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The index section holds the rule list and nothing else. An artifact
/// whose index section still carries the per-rule gate histograms and
/// anchor buckets format version 2 stored after the rules — with the
/// checksum resealed over them, so only the section's own length can tell
/// — opens, and is refused by every decoder.
#[test]
fn an_index_section_with_a_histogram_and_bucket_tail_is_malformed() {
    let library = sample();
    let mut bytes = library.to_bytes();
    let index_start = HEADER_LEN + library.header().ecc_len as usize;

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

    // Reseal: index length in the header, then the checksum.
    let index_len = (bytes.len() - index_start) as u64;
    bytes[56..64].copy_from_slice(&index_len.to_le_bytes());
    reseal(&mut bytes);

    let lazy = LazyLibrary::from_bytes(bytes.clone()).expect("the resealed artifact opens");
    assert!(
        matches!(lazy.index(), Err(LibraryError::Malformed(_))),
        "LazyLibrary::index accepted the tail"
    );
    assert!(
        matches!(lazy.verify_all(), Err(LibraryError::Malformed(_))),
        "LazyLibrary::verify_all accepted the tail"
    );
    assert!(
        matches!(Library::from_bytes(&bytes), Err(LibraryError::Malformed(_))),
        "Library::from_bytes accepted the tail"
    );
}

/// `quartz-lib` as a binary: both container versions get their version
/// printed — version 4 in the header dump, version 3 in the refusal — a
/// command that no longer exists (`shard`) exits through the usage error,
/// whose text lists only the commands that do, and `generate` reports the
/// rule count that `inspect` prints for its output.
#[test]
fn inspect_prints_the_format_version_for_both_container_versions() {
    let dir = std::env::temp_dir().join(format!("quartz_inspect_fmt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let bytes = sample().to_bytes();
    let mut v3 = bytes.clone();
    v3[4..6].copy_from_slice(&3u16.to_le_bytes());
    let v4_path = dir.join("v4.qtzl");
    let v3_path = dir.join("v3.qtzl");
    std::fs::write(&v4_path, bytes).unwrap();
    std::fs::write(&v3_path, v3).unwrap();
    let (v4_path, v3_path) = (v4_path.to_str().unwrap(), v3_path.to_str().unwrap());
    let prefix = dir.join("split");
    let prefix = prefix.to_str().unwrap();
    // (arguments, exit code, text on stdout for 0 and on stderr otherwise)
    let cases: [(&[&str], i32, &str); 3] = [
        (&["inspect", v4_path], 0, "format version:     4"),
        (
            &["inspect", v3_path],
            1,
            "unsupported library format version 3",
        ),
        (
            &[
                "shard",
                "--in",
                v4_path,
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
        if code == 0 {
            assert!(!stream.contains("class table"), "{stream}");
        }
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

    // `generate` reports the rule count of the index it writes, which is
    // the count `inspect` prints for that file.
    let generated = dir.join("generated.qtzl");
    let quartz_lib = |args: &[&str]| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_quartz-lib"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(0), "{args:?}: {output:?}");
        output
    };
    let generate = quartz_lib(&[
        "generate",
        "--gate-set",
        "nam",
        "--n",
        "2",
        "--q",
        "1",
        "--m",
        "1",
        "--out",
        generated.to_str().unwrap(),
    ]);
    let inspect =
        String::from_utf8(quartz_lib(&["inspect", generated.to_str().unwrap()]).stdout).unwrap();
    let indexed = inspect
        .lines()
        .find_map(|line| line.trim().strip_prefix("transformations:"))
        .expect("inspect prints the indexed rule count")
        .trim();
    let stderr = String::from_utf8(generate.stderr).unwrap();
    assert!(
        stderr.contains(&format!(" {indexed} transformations indexed")),
        "generate must report the {indexed} rules inspect counts:\n{stderr}"
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
