//! Key→bytes store backing one tier.
//!
//! Devices hold real bytes so every experiment round-trips actual data —
//! a placement bug cannot hide behind a timing model. Capacity is enforced
//! strictly; the hierarchy's placement policy relies on
//! [`StorageError::CapacityExceeded`] to implement the paper's "if a
//! storage tier doesn't have sufficient capacity, it will be bypassed".
//!
//! Two backends share the same interface: the default in-memory store
//! (benchmarks want determinism and speed) and a directory-backed store
//! ([`Device::file_backed`]) that persists objects as files so the
//! `canopus` CLI can span multiple process invocations.

use crate::error::StorageError;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;

/// Thread-safe object store with a byte-capacity limit.
#[derive(Debug)]
pub struct Device {
    name: String,
    capacity: u64,
    inner: RwLock<Inner>,
    backend: Backend,
}

#[derive(Debug)]
enum Backend {
    Memory,
    Disk { dir: PathBuf },
}

#[derive(Debug, Default)]
struct Inner {
    /// Memory backend: the payloads. Disk backend: payload sizes only
    /// (`Bytes::new()` placeholders keep one map shape for both).
    objects: HashMap<String, Bytes>,
    used: u64,
}

/// Object keys contain `/`; encode them reversibly for the filesystem.
fn encode_key(key: &str) -> String {
    key.replace('%', "%25").replace('/', "%2F")
}

fn decode_key(name: &str) -> String {
    name.replace("%2F", "/").replace("%25", "%")
}

/// Staging subdirectory for in-flight disk writes. `put` writes the
/// payload here first and renames it into place, so a crash mid-write
/// can never leave a half-written object where `file_backed` would
/// index it — subdirectories are never part of the object index.
const TMP_SUBDIR: &str = ".tmp";

impl Device {
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        Self {
            name: name.into(),
            capacity,
            inner: RwLock::new(Inner::default()),
            backend: Backend::Memory,
        }
    }

    /// A device persisting objects as files under `dir` (created if
    /// absent). Existing objects are indexed so reopening a store
    /// resumes where the last process left off.
    ///
    /// Only regular files directly under `dir` are indexed; the
    /// contents of subdirectories (including leftovers in the
    /// [`TMP_SUBDIR`] staging area, which are discarded) are ignored.
    /// Files with non-UTF-8 names cannot have been written through
    /// [`Device::put`]'s key encoding, so they are skipped with a
    /// warning rather than indexed under a mangled, unreachable key.
    /// If the indexed bytes exceed `capacity` the open fails with
    /// [`std::io::ErrorKind::InvalidData`] instead of silently leaving
    /// the device over-full.
    pub fn file_backed(
        name: impl Into<String>,
        capacity: u64,
        dir: impl Into<PathBuf>,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Interrupted writes only ever live in the staging area.
        let _ = std::fs::remove_dir_all(dir.join(TMP_SUBDIR));
        let mut objects = HashMap::new();
        let mut used = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let file_name = entry.file_name();
            let Some(file_name) = file_name.to_str() else {
                eprintln!(
                    "canopus-storage: skipping non-UTF-8 file {:?} in {}",
                    entry.file_name(),
                    dir.display()
                );
                continue;
            };
            objects.insert(decode_key(file_name), Bytes::new());
            used += entry.metadata()?.len();
        }
        if used > capacity {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "directory {} holds {used} B of objects, exceeding the \
                     configured capacity of {capacity} B",
                    dir.display()
                ),
            ));
        }
        Ok(Self {
            name: name.into(),
            capacity,
            inner: RwLock::new(Inner { objects, used }),
            backend: Backend::Disk { dir },
        })
    }

    fn path_of(&self, key: &str) -> Option<PathBuf> {
        match &self.backend {
            Backend::Memory => None,
            Backend::Disk { dir } => Some(dir.join(encode_key(key))),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn used(&self) -> u64 {
        self.inner.read().used
    }

    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.used())
    }

    pub fn len(&self) -> usize {
        self.inner.read().objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Store an object. Fails if the key exists or capacity would be
    /// exceeded (replacement must be explicit via [`Device::remove`]).
    pub fn put(&self, key: &str, data: Bytes) -> Result<(), StorageError> {
        let mut inner = self.inner.write();
        if inner.objects.contains_key(key) {
            return Err(StorageError::AlreadyExists(key.to_string()));
        }
        let sz = data.len() as u64;
        let available = self.capacity.saturating_sub(inner.used);
        if sz > available {
            return Err(StorageError::CapacityExceeded {
                tier: self.name.clone(),
                requested: sz,
                available,
            });
        }
        if let Backend::Disk { dir } = &self.backend {
            // Stage + rename so an interrupted write (ENOSPC, crash)
            // never leaves a partial object where a reopen would index
            // it. Rename within one directory tree is atomic.
            let encoded = encode_key(key);
            let tmp_dir = dir.join(TMP_SUBDIR);
            let tmp = tmp_dir.join(&encoded);
            let io_err = |path: &PathBuf, e: std::io::Error| {
                StorageError::PlacementFailed(format!("io writing {}: {e}", path.display()))
            };
            std::fs::create_dir_all(&tmp_dir).map_err(|e| io_err(&tmp_dir, e))?;
            if let Err(e) = std::fs::write(&tmp, &data) {
                let _ = std::fs::remove_file(&tmp);
                return Err(io_err(&tmp, e));
            }
            let dst = dir.join(&encoded);
            if let Err(e) = std::fs::rename(&tmp, &dst) {
                let _ = std::fs::remove_file(&tmp);
                return Err(io_err(&dst, e));
            }
            inner.objects.insert(key.to_string(), Bytes::new());
        } else {
            inner.objects.insert(key.to_string(), data);
        }
        inner.used += sz;
        Ok(())
    }

    /// Fetch an object (cheap clone of a refcounted buffer for the memory
    /// backend; a file read for the disk backend).
    pub fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        let inner = self.inner.read();
        if !inner.objects.contains_key(key) {
            return Err(StorageError::NotFound(key.to_string()));
        }
        match self.path_of(key) {
            None => Ok(inner.objects[key].clone()),
            Some(path) => std::fs::read(&path)
                .map(Bytes::from)
                .map_err(|e| StorageError::NotFound(format!("{key} (io: {e})"))),
        }
    }

    /// Fetch `len` bytes of an object starting at `offset` (a zero-copy
    /// slice of the refcounted buffer for the memory backend; a file
    /// read + slice for the disk backend). The range must lie entirely
    /// within the object.
    pub fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Bytes, StorageError> {
        let data = self.get(key)?;
        let end = offset.checked_add(len).filter(|&e| e <= data.len() as u64);
        match end {
            Some(end) => Ok(data.slice(offset as usize..end as usize)),
            None => Err(StorageError::NotFound(format!(
                "{key} (range {offset}+{len} exceeds object of {} B)",
                data.len()
            ))),
        }
    }

    pub fn contains(&self, key: &str) -> bool {
        self.inner.read().objects.contains_key(key)
    }

    /// Size of an object in bytes.
    pub fn size_of(&self, key: &str) -> Result<u64, StorageError> {
        let inner = self.inner.read();
        if !inner.objects.contains_key(key) {
            return Err(StorageError::NotFound(key.to_string()));
        }
        match self.path_of(key) {
            None => Ok(inner.objects[key].len() as u64),
            Some(path) => std::fs::metadata(&path)
                .map(|m| m.len())
                .map_err(|e| StorageError::NotFound(format!("{key} (io: {e})"))),
        }
    }

    /// Delete an object, returning its bytes.
    pub fn remove(&self, key: &str) -> Result<Bytes, StorageError> {
        let data = self.get(key)?;
        let mut inner = self.inner.write();
        if inner.objects.remove(key).is_none() {
            return Err(StorageError::NotFound(key.to_string()));
        }
        if let Some(path) = self.path_of(key) {
            let _ = std::fs::remove_file(path);
        }
        inner.used -= data.len() as u64;
        Ok(data)
    }

    /// All stored keys (sorted, for deterministic reports).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.inner.read().objects.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        if let Backend::Disk { dir } = &self.backend {
            for key in inner.objects.keys() {
                let _ = std::fs::remove_file(dir.join(encode_key(key)));
            }
        }
        inner.objects.clear();
        inner.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let d = Device::new("t", 1024);
        d.put("a", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(d.get("a").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(d.used(), 5);
        assert_eq!(d.size_of("a").unwrap(), 5);
        assert!(d.contains("a"));
        assert!(!d.contains("b"));
    }

    #[test]
    fn capacity_enforced() {
        let d = Device::new("small", 10);
        d.put("a", Bytes::from(vec![0u8; 6])).unwrap();
        let err = d.put("b", Bytes::from(vec![0u8; 6])).unwrap_err();
        match err {
            StorageError::CapacityExceeded {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, 6);
                assert_eq!(available, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Exactly filling is fine.
        d.put("c", Bytes::from(vec![0u8; 4])).unwrap();
        assert_eq!(d.available(), 0);
    }

    #[test]
    fn duplicate_key_rejected() {
        let d = Device::new("t", 100);
        d.put("k", Bytes::from_static(b"1")).unwrap();
        assert_eq!(
            d.put("k", Bytes::from_static(b"2")).unwrap_err(),
            StorageError::AlreadyExists("k".into())
        );
    }

    #[test]
    fn remove_releases_capacity() {
        let d = Device::new("t", 10);
        d.put("a", Bytes::from(vec![1u8; 10])).unwrap();
        assert_eq!(d.available(), 0);
        let data = d.remove("a").unwrap();
        assert_eq!(data.len(), 10);
        assert_eq!(d.available(), 10);
        assert!(d.remove("a").is_err());
    }

    #[test]
    fn keys_sorted_and_clear() {
        let d = Device::new("t", 100);
        d.put("b", Bytes::from_static(b"x")).unwrap();
        d.put("a", Bytes::from_static(b"y")).unwrap();
        assert_eq!(d.keys(), vec!["a".to_string(), "b".to_string()]);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.used(), 0);
    }

    #[test]
    fn file_backed_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("canopus_dev_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let d = Device::file_backed("disk", 1024, &dir).unwrap();
            d.put("a/b", Bytes::from_static(b"hello")).unwrap();
            d.put("p%q", Bytes::from_static(b"odd")).unwrap();
            assert_eq!(d.get("a/b").unwrap(), Bytes::from_static(b"hello"));
            assert_eq!(d.used(), 8);
            assert_eq!(d.size_of("p%q").unwrap(), 3);
        }
        // Reopen: the index is rebuilt from the directory.
        {
            let d = Device::file_backed("disk", 1024, &dir).unwrap();
            assert_eq!(d.used(), 8);
            assert_eq!(d.keys(), vec!["a/b".to_string(), "p%q".to_string()]);
            assert_eq!(d.get("a/b").unwrap(), Bytes::from_static(b"hello"));
            let removed = d.remove("a/b").unwrap();
            assert_eq!(removed, Bytes::from_static(b"hello"));
            assert_eq!(d.used(), 3);
        }
        // Removal persisted too.
        {
            let d = Device::file_backed("disk", 1024, &dir).unwrap();
            assert!(d.get("a/b").is_err());
            assert_eq!(d.used(), 3);
            d.clear();
            assert_eq!(d.used(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backed_capacity_enforced() {
        let dir = std::env::temp_dir().join(format!("canopus_cap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Device::file_backed("disk", 10, &dir).unwrap();
        d.put("a", Bytes::from(vec![0u8; 8])).unwrap();
        assert!(matches!(
            d.put("b", Bytes::from(vec![0u8; 8])),
            Err(StorageError::CapacityExceeded { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_capacity_reopen_is_rejected_not_underflowed() {
        let dir = std::env::temp_dir().join(format!("canopus_over_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let d = Device::file_backed("disk", 100, &dir).unwrap();
            d.put("a", Bytes::from(vec![0u8; 80])).unwrap();
        }
        // Reopening with a smaller capacity than the directory already
        // holds must fail cleanly — not underflow `available()`.
        let err = Device::file_backed("disk", 10, &dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The original capacity still works.
        let d = Device::file_backed("disk", 100, &dir).unwrap();
        assert_eq!(d.used(), 80);
        assert_eq!(d.available(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn available_saturates_if_used_exceeds_capacity() {
        // Exercise the saturating arithmetic directly: a device whose
        // accounting somehow exceeds capacity must report 0 available
        // and reject further puts, not wrap around.
        let d = Device::new("t", 10);
        d.put("a", Bytes::from(vec![0u8; 10])).unwrap();
        assert_eq!(d.available(), 0);
        assert!(matches!(
            d.put("b", Bytes::from(vec![0u8; 1])),
            Err(StorageError::CapacityExceeded { available: 0, .. })
        ));
    }

    #[test]
    fn partial_write_leftovers_are_not_indexed_on_reopen() {
        let dir = std::env::temp_dir().join(format!("canopus_partial_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let d = Device::file_backed("disk", 1024, &dir).unwrap();
            d.put("good", Bytes::from_static(b"ok")).unwrap();
        }
        // Simulate a crash mid-put: a half-written payload stranded in
        // the staging area.
        let tmp = dir.join(TMP_SUBDIR);
        std::fs::create_dir_all(&tmp).unwrap();
        std::fs::write(tmp.join(encode_key("torn/key")), b"par").unwrap();
        {
            let d = Device::file_backed("disk", 1024, &dir).unwrap();
            assert_eq!(d.keys(), vec!["good".to_string()]);
            assert_eq!(d.used(), 2, "torn bytes don't count against capacity");
            assert!(d.get("torn/key").is_err());
            // The leftover was discarded, so the key is writable again.
            d.put("torn/key", Bytes::from_static(b"whole")).unwrap();
            assert_eq!(d.get("torn/key").unwrap(), Bytes::from_static(b"whole"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_filenames_are_skipped_not_mangled() {
        use std::os::unix::ffi::OsStrExt;
        let dir = std::env::temp_dir().join(format!("canopus_nonutf8_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bad = std::ffi::OsStr::from_bytes(&[0x66, 0x6F, 0x80, 0xFF]);
        std::fs::write(dir.join(bad), vec![0u8; 64]).unwrap();
        let d = Device::file_backed("disk", 32, &dir).unwrap();
        // The 64 stray bytes neither appear as a key nor count against
        // the 32 B capacity (the open would have failed otherwise).
        assert!(d.is_empty());
        assert_eq!(d.used(), 0);
        d.put("real", Bytes::from(vec![1u8; 16])).unwrap();
        assert_eq!(d.used(), 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subdirectory_contents_are_ignored_on_reopen() {
        let dir = std::env::temp_dir().join(format!("canopus_subdir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        std::fs::write(dir.join("nested").join("stray"), vec![0u8; 999]).unwrap();
        let d = Device::file_backed("disk", 100, &dir).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.used(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_encoding_roundtrip() {
        for key in ["a/b/c", "plain", "x%2Fy", "%", "a%b/c%d"] {
            assert_eq!(decode_key(&encode_key(key)), key, "{key}");
        }
    }

    #[test]
    fn concurrent_puts_respect_capacity() {
        use std::sync::Arc;
        let d = Arc::new(Device::new("t", 100));
        let mut handles = Vec::new();
        for i in 0..20 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                d.put(&format!("k{i}"), Bytes::from(vec![0u8; 10])).is_ok()
            }));
        }
        let ok_count = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(ok_count, 10, "exactly capacity/object_size puts succeed");
        assert_eq!(d.used(), 100);
    }
}
