//! Repo-root-anchored path resolution shared by every bench.
//!
//! Cargo runs bench binaries with `crates/bench` as the working
//! directory, so a bare `bench-out` passed through `GALE_BENCH_OUT_DIR`
//! from CI would resolve two levels deep and miss the repo root.

use std::path::{Path, PathBuf};

/// The repository root, derived from this crate's manifest directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Anchors a relative path at the repo root; absolute paths pass through.
pub fn repo_path(p: PathBuf) -> PathBuf {
    if p.is_absolute() {
        p
    } else {
        repo_root().join(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_paths_pass_through() {
        let abs = std::env::temp_dir().join("x.json");
        assert_eq!(repo_path(abs.clone()), abs);
    }

    #[test]
    fn relative_paths_anchor_at_repo_root() {
        assert_eq!(repo_path("b.json".into()), repo_root().join("b.json"));
    }

    #[test]
    fn repo_root_holds_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
