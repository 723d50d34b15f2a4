//! A ranged read of a file-backed object moves its range off the disk,
//! not the object. Measured with this process's `rchar` (the bytes its
//! read calls returned, `/proc/self/io`), so the file holds one test:
//! no other test may read in this process while it measures.

use bytes::Bytes;
use canopus_storage::{StorageError, StorageHierarchy, TierSpec};

const OBJECT: u64 = 4 << 20;
const RANGE: u64 = 64 << 10;
const PAGE: u64 = 4096;
const KEY: &str = "v/s0-1.0";

/// Bytes this process has read so far, all threads.
fn rchar() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").expect("/proc/self/io is readable");
    io.lines()
        .find_map(|l| l.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("/proc/self/io has an rchar line")
}

#[test]
fn a_ranged_read_of_a_file_backed_object_reads_only_its_range() {
    let root = std::env::temp_dir().join(format!("canopus_ranged_read_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = || vec![TierSpec::new("t", 2 * OBJECT, 1e9, 1e9, 0.0)];
    let disk = StorageHierarchy::file_backed(spec(), &root).unwrap();
    let memory = StorageHierarchy::new(spec());
    let object = Bytes::from((0..OBJECT).map(|i| (i * 7 % 251) as u8).collect::<Vec<_>>());
    for h in [&disk, &memory] {
        h.write_to_tier(0, KEY, object.clone()).unwrap();
    }

    let offset = 3 * RANGE + 17;
    let before = rchar();
    let (bytes, _, _) = disk.read_range(KEY, offset, RANGE).unwrap();
    let read = rchar() - before;
    assert!(
        read <= RANGE + PAGE,
        "a {RANGE} B range of a {OBJECT} B object read {read} B"
    );

    // Both backends hand out the same bytes and refuse the same ranges.
    for h in [&disk, &memory] {
        assert_eq!(h.read_range(KEY, offset, RANGE).unwrap().0, bytes);
        assert_eq!(
            bytes,
            object.slice(offset as usize..(offset + RANGE) as usize)
        );
        assert_eq!(h.read_range(KEY, OBJECT - 4, 4).unwrap().0.len(), 4);
        for (offset, len) in [(OBJECT - 4, 5), (u64::MAX, 1)] {
            assert!(matches!(
                h.read_range(KEY, offset, len),
                Err(StorageError::NotFound(_))
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
