//! The database catalog manifest (`CATALOG`) — store layout v3.
//!
//! A multi-table database persists under **one** root directory:
//!
//! ```text
//! <root>/CATALOG              the manifest: ordered table names
//! <root>/tables/<name>/       one complete per-table store each
//!     wal.vlog, snapshot-*.vsnap, part-*.vcol, LOCK
//! ```
//!
//! The manifest is tiny and immutable for a given catalog (tables are
//! registered at build time); each per-table subdirectory is an ordinary
//! [`crate::SynopsisStore`] directory, so all the crash-safety machinery
//! — WAL replay, snapshot generations, torn-tail truncation of the log
//! and the part files, advisory locks — applies per table unchanged. A
//! single-table directory (no `CATALOG` file, store files at the root)
//! still opens: `Database::open` detects the layout by the manifest's
//! presence.
//!
//! The manifest is written like every other whole store file, through
//! [`crate::snapshot::write_atomic`]: temp file, fsync, rename,
//! parent-directory fsync.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::snapshot::write_atomic;
use crate::{Result, StoreError};

/// File magic for the catalog manifest.
pub const CATALOG_MAGIC: [u8; 8] = *b"VDBLCATL";
/// Store layout version the manifest declares. v3 = catalog manifest +
/// per-table subdirectories (v2 = flat single-table store).
pub const CATALOG_VERSION: u32 = 3;
/// Manifest file name inside the root directory.
pub const CATALOG_FILE: &str = "CATALOG";
/// Subdirectory holding the per-table stores.
pub const TABLES_DIR: &str = "tables";

/// The decoded catalog manifest: the database's table names, in
/// registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogManifest {
    /// Registered table names, in registration order.
    pub tables: Vec<String>,
}

/// Whether `name` can name a catalog table: a SQL identifier (what the
/// lexer can produce for `FROM`), which is also — by construction — a
/// safe subdirectory name.
pub fn is_valid_table_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The per-table store directory for `name` under `root`.
pub fn table_dir(root: &Path, name: &str) -> PathBuf {
    root.join(TABLES_DIR).join(name)
}

/// Whether `root` holds a v3 catalog (a manifest file exists).
pub fn catalog_exists(root: &Path) -> bool {
    root.join(CATALOG_FILE).is_file()
}

/// Writes the manifest into `root` (created if missing), atomically.
pub fn write_catalog(root: &Path, manifest: &CatalogManifest) -> Result<()> {
    for name in &manifest.tables {
        if !is_valid_table_name(name) {
            return Err(StoreError::Mismatch(format!(
                "invalid table name {name:?}: must be an identifier \
                 ([A-Za-z_][A-Za-z0-9_]*, at most 64 bytes)"
            )));
        }
    }
    let mut body = Vec::new();
    body.extend_from_slice(&(manifest.tables.len() as u32).to_le_bytes());
    for name in &manifest.tables {
        body.extend_from_slice(&(name.len() as u32).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
    }
    let mut header = Vec::with_capacity(20);
    header.extend_from_slice(&CATALOG_MAGIC);
    header.extend_from_slice(&CATALOG_VERSION.to_le_bytes());
    header.extend_from_slice(&(body.len() as u32).to_le_bytes());
    header.extend_from_slice(&crc32(&body).to_le_bytes());

    std::fs::create_dir_all(root)?;
    write_atomic(&root.join(CATALOG_FILE), &header, &body)
}

/// Reads and validates the manifest from `root`.
pub fn read_catalog(root: &Path) -> Result<CatalogManifest> {
    let path = root.join(CATALOG_FILE);
    let mut bytes = Vec::new();
    File::open(&path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 20 {
        return Err(StoreError::Corrupt("catalog shorter than header".into()));
    }
    if bytes[..8] != CATALOG_MAGIC {
        return Err(StoreError::Corrupt("bad catalog magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != CATALOG_VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported catalog version {version}"
        )));
    }
    let body_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let body_crc = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    let body = bytes
        .get(20..20 + body_len)
        .ok_or_else(|| StoreError::Corrupt("catalog truncated".into()))?;
    if bytes.len() != 20 + body_len {
        return Err(StoreError::Corrupt("catalog trailing bytes".into()));
    }
    if crc32(body) != body_crc {
        return Err(StoreError::Corrupt("catalog checksum mismatch".into()));
    }

    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        let s = body
            .get(*pos..*pos + n)
            .ok_or_else(|| StoreError::Corrupt("catalog body truncated".into()))?;
        *pos += n;
        Ok(s)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let mut tables = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let name = std::str::from_utf8(take(&mut pos, len)?)
            .map_err(|_| StoreError::Corrupt("catalog name is not UTF-8".into()))?
            .to_owned();
        if !is_valid_table_name(&name) {
            return Err(StoreError::Corrupt(format!(
                "catalog holds invalid table name {name:?}"
            )));
        }
        tables.push(name);
    }
    if pos != body.len() {
        return Err(StoreError::Corrupt("catalog body trailing bytes".into()));
    }
    Ok(CatalogManifest { tables })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("verdict-catalog-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips() {
        let dir = tempdir("roundtrip");
        let manifest = CatalogManifest {
            tables: vec!["orders".into(), "events".into()],
        };
        write_catalog(&dir, &manifest).unwrap();
        assert!(catalog_exists(&dir));
        assert_eq!(read_catalog(&dir).unwrap(), manifest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_detected() {
        let dir = tempdir("corrupt");
        write_catalog(
            &dir,
            &CatalogManifest {
                tables: vec!["orders".into()],
            },
        )
        .unwrap();
        let path = dir.join(CATALOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_catalog(&dir), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_version_refused() {
        let dir = tempdir("version");
        write_catalog(
            &dir,
            &CatalogManifest {
                tables: vec!["t".into()],
            },
        )
        .unwrap();
        let path = dir.join(CATALOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_catalog(&dir), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn name_validation() {
        assert!(is_valid_table_name("orders"));
        assert!(is_valid_table_name("_t2"));
        assert!(!is_valid_table_name(""));
        assert!(!is_valid_table_name("2fast"));
        assert!(!is_valid_table_name("has space"));
        assert!(!is_valid_table_name("dot.dot"));
        assert!(!is_valid_table_name("../escape"));
        assert!(!is_valid_table_name(&"x".repeat(65)));
        let dir = tempdir("badname");
        let err = write_catalog(
            &dir,
            &CatalogManifest {
                tables: vec!["../escape".into()],
            },
        );
        assert!(matches!(err, Err(StoreError::Mismatch(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_dirs_nest_under_tables() {
        let root = Path::new("/data/db");
        assert_eq!(
            table_dir(root, "orders"),
            Path::new("/data/db/tables/orders")
        );
    }
}
