//! Per-process database directories.
//!
//! Every directory is named `<base>/db-<pid>-<counter>-<tag>`, so two
//! benchmark processes (say, one built from a parent commit and one from
//! a change) or two tests in one process never share or delete each
//! other's databases. The directory is removed when its guard drops.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// Where databases and trace files go: `$CARGO_TARGET_DIR/perfbench`, or
/// `target/perfbench` under the working directory.
pub(crate) fn base_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("perfbench")
}

/// A fresh directory that is removed on drop.
#[derive(Debug)]
pub(crate) struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create a new, empty directory unique to this process and call.
    pub(crate) fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base_dir().join(format!("db-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_and_removed_on_drop() {
        let a = ScratchDir::new("t").unwrap();
        let b = ScratchDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        let kept = b.path().to_path_buf();
        std::fs::write(kept.join("f"), b"x").unwrap();
        drop(b);
        assert!(!kept.exists());
        assert!(a.path().is_dir());
    }
}
