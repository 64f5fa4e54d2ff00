//! Unique scratch directories that remove themselves.
//!
//! Every test, fuzzer harness and scratch database in the workspace makes
//! its directory here. A name is `{tag}-{pid}-{n}` under the system temp
//! dir, with `n` counting up within the process, so the threads of one
//! test binary never share a directory and neither do two processes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An empty directory, removed with its contents on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory whose name starts with `tag`. A leftover
    /// from an earlier process that had the same pid is cleared first.
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_call_gets_its_own_directory_removed_on_drop() {
        let a = TempDir::new("ordb-tempdir").unwrap();
        let b = TempDir::new("ordb-tempdir").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.is_dir() && b.is_dir());
        std::fs::write(a.join("f"), b"x").unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
        assert!(b.is_dir());
    }
}
