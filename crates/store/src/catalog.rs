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
//! On disk it is the header prefix and then one frame
//! ([`crate::frame`]) whose payload lists the names. It is written like
//! every other whole store file, through `crate::snapshot::write_atomic`:
//! temp file, fsync, rename, parent-directory fsync.

use std::path::{Path, PathBuf};

use crate::frame::{check_header, header, whole_body, Seal, FRAME_HEADER_LEN, HEADER_PREFIX_LEN};
use crate::snapshot::write_atomic;
use crate::{Result, StoreError};

/// File magic for the catalog manifest.
pub(crate) const CATALOG_MAGIC: [u8; 8] = *b"VDBLCATL";
/// Store layout version the manifest declares. v3 = catalog manifest +
/// per-table subdirectories (v2 = flat single-table store).
pub(crate) const CATALOG_VERSION: u32 = 3;
/// Manifest file name inside the root directory.
pub(crate) const CATALOG_FILE: &str = "CATALOG";
/// Subdirectory holding the per-table stores.
pub(crate) const TABLES_DIR: &str = "tables";
/// Header: magic, version, then the names' frame head.
const CATALOG_HEADER_LEN: usize = HEADER_PREFIX_LEN + FRAME_HEADER_LEN;

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
    let mut file_header = header(CATALOG_MAGIC, CATALOG_VERSION).to_vec();
    file_header.extend_from_slice(&Seal::of(&body).head()?);

    std::fs::create_dir_all(root)?;
    write_atomic(&root.join(CATALOG_FILE), &file_header, &body)
}

/// Reads and validates the manifest from `root`.
pub fn read_catalog(root: &Path) -> Result<CatalogManifest> {
    let bytes = std::fs::read(root.join(CATALOG_FILE))?;
    check_header(&bytes, CATALOG_HEADER_LEN, CATALOG_MAGIC, CATALOG_VERSION).require("catalog")?;
    let seal = Seal::parse_head(&bytes[HEADER_PREFIX_LEN..], u64::MAX)?
        .expect("the checked header holds the frame head");
    let body = whole_body(seal, &bytes[CATALOG_HEADER_LEN..], "catalog")?;

    let corrupt = |what: String| StoreError::Corrupt(format!("catalog {what}"));
    let mut rest = body;
    let mut take = |n: usize| {
        let (taken, tail) = rest
            .split_at_checked(n)
            .ok_or_else(|| corrupt("body truncated".into()))?;
        rest = tail;
        Ok::<_, StoreError>(taken)
    };
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().unwrap()) as usize;
    let count = word(take(4)?);
    let mut tables = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let len = word(take(4)?);
        let name = std::str::from_utf8(take(len)?)
            .map_err(|_| corrupt("name is not UTF-8".into()))?
            .to_owned();
        if !is_valid_table_name(&name) {
            return Err(corrupt(format!("holds invalid table name {name:?}")));
        }
        tables.push(name);
    }
    if !rest.is_empty() {
        return Err(corrupt("body trailing bytes".into()));
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
