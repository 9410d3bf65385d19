//! Concurrency battery for the content-addressed registry (DESIGN.md
//! §12.4): racing publishers must converge on one intact winner, and
//! readers racing publishers and the garbage collector must only ever see
//! a key as *absent* or *fully intact* — never torn.

use quartz_gen::{Ecc, EccSet, Library, LibraryError, Registry, RegistryKey};
use quartz_ir::{Circuit, Gate, Instruction};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn pair(gate: Gate, qubits: &[usize]) -> Circuit {
    let mut c = Circuit::new(2, 0);
    c.push(Instruction::new(gate, qubits.to_vec(), vec![]));
    c.push(Instruction::new(gate, qubits.to_vec(), vec![]));
    c
}

/// A small Nam-legal library; `with_index` toggles the trailing index
/// section, which changes the artifact checksum but not its registry key.
fn sample_library(with_index: bool) -> Library {
    let mut set = EccSet::new(2, 0);
    set.eccs
        .push(Ecc::new(vec![pair(Gate::H, &[0]), Circuit::new(2, 0)]));
    set.eccs.push(Ecc::new(vec![
        pair(Gate::Cnot, &[0, 1]),
        Circuit::new(2, 0),
    ]));
    Library::new("Nam", set, with_index)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quartz_registry_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reads the blobs a `get` resolved to, tolerating a concurrent gc sweep
/// between the resolve and the read (`None` = vanished, treat as absent).
fn read_blobs(paths: &[PathBuf]) -> Option<Vec<Vec<u8>>> {
    paths.iter().map(|p| std::fs::read(p).ok()).collect()
}

#[test]
fn racing_adds_converge_on_one_winner_byte_identical_to_a_solo_add() {
    let dir = temp_dir("race_add");
    let library = sample_library(true);
    let artifact = dir.join("input.qtzl");
    library.save(&artifact).unwrap();

    // The reference: a solo add into its own registry.
    let solo_root = dir.join("solo");
    let solo = Registry::open(&solo_root).unwrap();
    let key = solo.add(std::slice::from_ref(&artifact)).unwrap();
    let solo_blobs: Vec<Vec<u8>> =
        read_blobs(&solo.get(&key).unwrap()).expect("solo blobs are stable");

    // The race: 8 threads publishing the same artifact into one registry.
    let contended_root = dir.join("contended");
    Registry::open(&contended_root).unwrap();
    let results: Vec<RegistryKey> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let root = contended_root.clone();
                let artifact = artifact.clone();
                scope.spawn(move || Registry::open(root).unwrap().add(&[artifact]).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for k in &results {
        assert_eq!(k, &key, "every racer derived the same content key");
    }

    // One intact winner, byte-identical to the solo publish.
    let contended = Registry::open(&contended_root).unwrap();
    let raced_blobs = read_blobs(&contended.get(&key).unwrap()).expect("winner blobs are stable");
    assert_eq!(raced_blobs, solo_blobs, "raced publish is torn or diverged");
    assert_eq!(contended.list().unwrap().len(), 1);

    // No torn staging files survive the race: gc sweeps tmp/ only.
    let leftover = std::fs::read_dir(contended_root.join("tmp"))
        .unwrap()
        .count();
    assert_eq!(leftover, 0, "{leftover} torn staging file(s) left behind");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_gets_during_adds_and_gcs_see_absent_or_intact_only() {
    let dir = temp_dir("race_get");
    // Two versions under the SAME key (the index toggle changes only the
    // checksum): republishing retargets the manifest and strands the old
    // blob for gc, so readers race both the publish and the sweep.
    let version_a = sample_library(false);
    let version_b = sample_library(true);
    let key = RegistryKey::from_header(version_a.header());
    assert_eq!(key, RegistryKey::from_header(version_b.header()));
    let bytes_a = version_a.to_bytes();
    let bytes_b = version_b.to_bytes();
    assert_ne!(bytes_a, bytes_b);
    let path_a = dir.join("a.qtzl");
    let path_b = dir.join("b.qtzl");
    version_a.save(&path_a).unwrap();
    version_b.save(&path_b).unwrap();

    let root = dir.join("registry");
    Registry::open(&root).unwrap();
    const READERS: usize = 3;
    let done = Arc::new(AtomicBool::new(false));
    let readers_with_intact = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // The writer: flip between the two versions, sweeping after each
        // publish so the superseded blob actually vanishes mid-run. It keeps
        // flipping past its 24 rounds until every reader has resolved an
        // intact artifact mid-race (or 30 s pass), so a reader scheduled
        // late on a loaded host still races the writer.
        let writer_root = root.clone();
        let writer_done = Arc::clone(&done);
        let writer_sees = Arc::clone(&readers_with_intact);
        let (path_a, path_b) = (path_a.clone(), path_b.clone());
        scope.spawn(move || {
            let registry = Registry::open(writer_root).unwrap();
            let start = std::time::Instant::now();
            let mut round = 0usize;
            while round < 24
                || (writer_sees.load(Ordering::Acquire) < READERS
                    && start.elapsed() < std::time::Duration::from_secs(30))
            {
                let src = if round.is_multiple_of(2) {
                    &path_a
                } else {
                    &path_b
                };
                registry.add(std::slice::from_ref(src)).unwrap();
                registry.gc().unwrap();
                round += 1;
            }
            writer_done.store(true, Ordering::Release);
        });

        // The readers: every successful resolve must be one of the two
        // intact versions, bit-for-bit. A miss (NotFound) is the only
        // acceptable failure — that's "absent", racing the sweep.
        for _ in 0..READERS {
            let reader_root = root.clone();
            let reader_done = Arc::clone(&done);
            let reader_sees = Arc::clone(&readers_with_intact);
            let (bytes_a, bytes_b) = (bytes_a.clone(), bytes_b.clone());
            let reader_key = key.clone();
            scope.spawn(move || {
                let registry = Registry::open(reader_root).unwrap();
                let mut intact = 0usize;
                while !reader_done.load(Ordering::Acquire) {
                    match registry.get(&reader_key) {
                        Ok(paths) => {
                            if let Some(blobs) = read_blobs(&paths) {
                                assert_eq!(blobs.len(), 1);
                                assert!(
                                    blobs[0] == bytes_a || blobs[0] == bytes_b,
                                    "reader observed a torn artifact ({} bytes)",
                                    blobs[0].len()
                                );
                                intact += 1;
                                if intact == 1 {
                                    reader_sees.fetch_add(1, Ordering::Release);
                                }
                            }
                        }
                        Err(LibraryError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => panic!("reader saw a non-absent failure: {e}"),
                    }
                }
                assert!(intact > 0, "reader never observed an intact artifact");
            });
        }
    });

    let _ = std::fs::remove_dir_all(&dir);
}
