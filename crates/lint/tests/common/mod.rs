//! Scratch directories shared by the integration tests.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A fresh `$TMPDIR/asan-lint-<tag>-<pid>` directory, removed when the
/// guard drops — also when the test fails. The process id keeps two
/// concurrent `cargo test` runs apart; the tag keeps tests apart.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("asan-lint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        Scratch(dir)
    }
}

impl Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
