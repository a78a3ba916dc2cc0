//! Shared integration-test helpers (not a test binary: only top-level
//! files under `tests/` are compiled as suites).

use std::path::{Path, PathBuf};

/// Minimal self-cleaning temp dir (no tempfile crate in this container).
pub struct Dir(PathBuf);

impl Dir {
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch dirs live under the system temp dir"
    )]
    pub fn new(prefix: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
