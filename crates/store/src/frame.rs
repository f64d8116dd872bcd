//! The framed-record layer: the one codec the WAL ([`crate::log`]), the
//! partition files ([`crate::partfile`]), the snapshots
//! ([`crate::snapshot`]), the catalog ([`crate::catalog`]) and the
//! server's wire share.
//!
//! Each format opens with the header prefix `magic 8B | version u32`
//! ([`header`], checked by [`check_header`]), and each checksums its data
//! as *sealed bodies*: a length and a CRC-32 ([`crate::crc`]) of the bytes
//! that follow (`Seal`). A **frame** is a seal as an 8-byte head, then its
//! body: `len u32 | crc u32 | payload`. WAL records and wire frames are
//! capped at [`MAX_FRAME_LEN`], so a corrupt length bounds allocation
//! instead of driving it; a partition file's walk bounds a length by the
//! bytes its file has left. Frames go onto a file through an `Appender`,
//! which cuts a failed write back to the last whole record, or refuses
//! every later append if that cut fails too, so no record lands behind a
//! torn frame (recovery would cut it off with the torn tail).

use std::fmt::Display;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Seek, SeekFrom, Write};
use std::path::PathBuf;

use crate::crc::crc32;
use crate::StoreError;

/// Length of the header prefix: magic, then version.
pub const HEADER_PREFIX_LEN: usize = 12;
/// Length of a frame head: payload length, then payload CRC.
pub const FRAME_HEADER_LEN: usize = 8;
/// Cap on one WAL record's or wire frame's payload.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Why a frame or a sealed body was refused.
#[derive(Debug)]
pub enum FrameError {
    /// The writer failed.
    Io(io::Error),
    /// A frame announced (or was asked to carry) more bytes than its cap.
    TooLarge(u64),
    /// The body's CRC did not match its seal.
    Crc {
        /// CRC the seal announced.
        expected: u32,
        /// CRC computed over the body.
        actual: u32,
    },
}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> Self {
        StoreError::Corrupt(match e {
            FrameError::Io(e) => return StoreError::Io(e),
            FrameError::TooLarge(n) => format!("frame of {n} bytes exceeds its cap"),
            FrameError::Crc { expected, actual } => {
                format!("checksum mismatch: sealed {expected:08x}, body {actual:08x}")
            }
        })
    }
}

/// The header prefix: `magic`, then `version`.
pub fn header(magic: [u8; 8], version: u32) -> [u8; HEADER_PREFIX_LEN] {
    let mut prefix = [0u8; HEADER_PREFIX_LEN];
    prefix[..8].copy_from_slice(&magic);
    prefix[8..].copy_from_slice(&version.to_le_bytes());
    prefix
}

/// What [`check_header`] found. What each means is the caller's call: the
/// WAL rewrites a torn create, everything else refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderStatus {
    /// Magic and version both valid.
    Ok,
    /// Fewer bytes than the header holds: a torn create.
    TooShort,
    /// Not our magic: a file or peer of another kind.
    ForeignMagic([u8; 8]),
    /// Our magic, another version (likely a newer build's): never
    /// overwritten.
    OtherVersion(u32),
}

/// Checks the front of `bytes` against a header of `len` bytes that opens
/// with `magic` and `version`.
pub fn check_header(bytes: &[u8], len: usize, magic: [u8; 8], version: u32) -> HeaderStatus {
    if bytes.len() < len.max(HEADER_PREFIX_LEN) {
        return HeaderStatus::TooShort;
    }
    let found: [u8; 8] = bytes[..8].try_into().unwrap();
    if found != magic {
        return HeaderStatus::ForeignMagic(found);
    }
    match u32::from_le_bytes(bytes[8..12].try_into().unwrap()) {
        v if v == version => HeaderStatus::Ok,
        v => HeaderStatus::OtherVersion(v),
    }
}

impl HeaderStatus {
    /// `Ok(())` for a valid header, else [`StoreError::Corrupt`] naming
    /// `what`.
    pub(crate) fn require(self, what: impl Display) -> crate::Result<()> {
        let problem = match self {
            HeaderStatus::Ok => return Ok(()),
            HeaderStatus::TooShort => "is shorter than its header".to_string(),
            HeaderStatus::ForeignMagic(m) => format!("has a foreign magic {m:02x?}"),
            HeaderStatus::OtherVersion(v) => format!("has unsupported format version {v}"),
        };
        Err(StoreError::Corrupt(format!("{what} {problem}")))
    }
}

/// A sealed body's length and CRC-32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seal {
    pub(crate) len: u64,
    pub(crate) crc: u32,
}

impl Seal {
    /// The seal of `body`.
    pub(crate) fn of(body: &[u8]) -> Seal {
        Seal {
            len: body.len() as u64,
            crc: crc32(body),
        }
    }

    /// The body this seal announces at the front of `bytes`: `Ok(None)`
    /// while `bytes` holds fewer than `len` bytes (the length is compared,
    /// never added to, so it cannot overflow), [`FrameError::Crc`] when
    /// their CRC is not the seal's.
    pub(crate) fn open(self, bytes: &[u8]) -> Result<Option<&[u8]>, FrameError> {
        let Some(body) = usize::try_from(self.len).ok().and_then(|n| bytes.get(..n)) else {
            return Ok(None);
        };
        match crc32(body) {
            actual if actual == self.crc => Ok(Some(body)),
            actual => Err(FrameError::Crc {
                expected: self.crc,
                actual,
            }),
        }
    }

    /// The seal as a frame head; a body too long for its `u32` length is
    /// [`FrameError::TooLarge`].
    pub(crate) fn head(self) -> Result<[u8; FRAME_HEADER_LEN], FrameError> {
        let len = u32::try_from(self.len).map_err(|_| FrameError::TooLarge(self.len))?;
        let mut head = [0u8; FRAME_HEADER_LEN];
        head[..4].copy_from_slice(&len.to_le_bytes());
        head[4..].copy_from_slice(&self.crc.to_le_bytes());
        Ok(head)
    }

    /// Parses the frame head at the front of `bytes`: `Ok(None)` while it
    /// is incomplete, [`FrameError::TooLarge`] for a length over `cap`.
    pub(crate) fn parse_head(bytes: &[u8], cap: u64) -> Result<Option<Seal>, FrameError> {
        let Some(head) = bytes.get(..FRAME_HEADER_LEN) else {
            return Ok(None);
        };
        let len = u64::from(u32::from_le_bytes(head[..4].try_into().unwrap()));
        if len > cap {
            return Err(FrameError::TooLarge(len));
        }
        let crc = u32::from_le_bytes(head[4..].try_into().unwrap());
        Ok(Some(Seal { len, crc }))
    }
}

/// Writes one frame as one vectored write of head and payload (more only
/// if the writer takes part of them, or is interrupted). A payload over
/// [`MAX_FRAME_LEN`] is refused before a byte is written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(payload.len() as u64));
    }
    let head = Seal::of(payload).head()?;
    let mut slices = [IoSlice::new(&head), IoSlice::new(payload)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match w.write_vectored(unsent) {
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Cuts one frame off the front of `buf`: `Ok(Some((payload, consumed)))`
/// for a whole valid frame, `Ok(None)` while `buf` holds only a prefix of
/// one, an error for one that can never become valid (a length over
/// [`MAX_FRAME_LEN`], judged from the head alone; a CRC mismatch).
pub fn parse_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some(seal) = Seal::parse_head(buf, MAX_FRAME_LEN as u64)? else {
        return Ok(None);
    };
    Ok(seal
        .open(&buf[FRAME_HEADER_LEN..])?
        .map(|payload| (payload, FRAME_HEADER_LEN + payload.len())))
}

/// The body `seal` announces when it is all of `rest`, the bytes after a
/// snapshot's or the catalog's header; `what` names the file.
pub(crate) fn whole_body<'a>(seal: Seal, rest: &'a [u8], what: &str) -> crate::Result<&'a [u8]> {
    match seal.open(rest) {
        Ok(Some(body)) if body.len() == rest.len() => Ok(body),
        Ok(Some(_)) => Err(StoreError::Corrupt(format!("{what} trailing bytes"))),
        Ok(None) => Err(StoreError::Corrupt(format!("{what} body truncated"))),
        Err(_) => Err(StoreError::Corrupt(format!("{what} checksum mismatch"))),
    }
}

/// A file an `Appender` writes: it grows at its end, and a failed write is
/// cut back off it.
pub(crate) trait Tail: Write {
    /// Cuts the file to its first `len` bytes, with the cursor at the end.
    fn cut(&mut self, len: u64) -> io::Result<()>;
}

impl Tail for File {
    fn cut(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)?;
        self.seek(SeekFrom::Start(len)).map(drop)
    }
}

/// Appends frames to a file of a header and whole records.
#[derive(Debug)]
pub(crate) struct Appender<F = File> {
    path: PathBuf,
    file: F,
    /// Bytes of the header and of every whole record.
    len: u64,
    /// Set when a failed append could not be cut back: a later record
    /// would land behind torn bytes, so every append refuses until a
    /// reopen.
    poisoned: bool,
}

impl Appender {
    /// Opens the file at `path` to append after its last byte.
    pub(crate) fn open(path: PathBuf) -> crate::Result<Appender> {
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.seek(SeekFrom::End(0))?;
        Ok(Appender {
            path,
            file,
            len,
            poisoned: false,
        })
    }

    /// Durably syncs every appended record (fsync).
    pub(crate) fn sync(&mut self) -> crate::Result<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

impl<F: Tail> Appender<F> {
    /// Bytes in the file: its header and every whole record.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Appends one frame carrying `payload` and flushes it to the OS,
    /// returning the bytes it took, head included. A payload over
    /// [`MAX_FRAME_LEN`] is [`StoreError::Mismatch`] and writes nothing;
    /// a failed write is cut back to the last whole record.
    pub(crate) fn append(&mut self, payload: &[u8]) -> crate::Result<u64> {
        if self.poisoned {
            return Err(StoreError::Corrupt(format!(
                "{} is poisoned by an earlier failed append; reopen the store",
                self.path.display()
            )));
        }
        let written = write_frame(&mut self.file, payload)
            .and_then(|()| self.file.flush().map_err(FrameError::Io));
        match written {
            Ok(()) => {
                let bytes = (FRAME_HEADER_LEN + payload.len()) as u64;
                self.len += bytes;
                Ok(bytes)
            }
            Err(FrameError::TooLarge(n)) => Err(StoreError::Mismatch(format!(
                "record of {n} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit; split the \
                 ingest batch"
            ))),
            Err(e) => {
                self.poisoned = self.file.cut(self.len).is_err();
                Err(e.into())
            }
        }
    }

    /// Cuts the file back to its first `len` bytes, a record boundary: a
    /// torn tail found at open, or every record a snapshot folded.
    pub(crate) fn cut(&mut self, len: u64) -> crate::Result<()> {
        self.file.cut(len)?;
        self.len = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory file whose writes fail once `budget` bytes have gone
    /// in, and whose cut fails when `cut_fails` is set.
    #[derive(Default)]
    struct Faulty {
        bytes: Vec<u8>,
        budget: Option<usize>,
        cut_fails: bool,
    }

    impl Write for Faulty {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = match &mut self.budget {
                Some(0) => return Err(io::Error::other("disk full")),
                Some(budget) => {
                    let n = buf.len().min(*budget);
                    *budget -= n;
                    n
                }
                None => buf.len(),
            };
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Tail for Faulty {
        fn cut(&mut self, len: u64) -> io::Result<()> {
            if self.cut_fails {
                return Err(io::Error::other("cut refused"));
            }
            self.bytes.truncate(len as usize);
            Ok(())
        }
    }

    const HEADER: &[u8] = b"sixteen byte hdr";

    fn appender() -> Appender<Faulty> {
        let file = Faulty {
            bytes: HEADER.to_vec(),
            ..Faulty::default()
        };
        Appender {
            path: PathBuf::from("faulty"),
            file,
            len: HEADER.len() as u64,
            poisoned: false,
        }
    }

    /// Every whole frame after the header, in order.
    fn scan(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut rest = &bytes[HEADER.len()..];
        let mut records = Vec::new();
        while let Ok(Some((payload, used))) = parse_frame(rest) {
            records.push(payload.to_vec());
            rest = &rest[used..];
        }
        records
    }

    /// A write that fails part-way through a frame — in its head, at the
    /// head's end, in its payload — leaves the file at its last whole
    /// record; the next append follows that record, and a scan finds
    /// every whole record and nothing else.
    #[test]
    fn a_failed_append_is_cut_back_to_the_last_whole_record() {
        for fail_after in [0, 3, FRAME_HEADER_LEN, FRAME_HEADER_LEN + 5] {
            let mut log = appender();
            assert_eq!(log.append(b"first record").unwrap(), 20);
            let whole = log.file.bytes.clone();
            log.file.budget = Some(fail_after);
            assert!(matches!(
                log.append(b"a record the disk refuses"),
                Err(StoreError::Io(_))
            ));
            assert_eq!(log.file.bytes, whole, "fail after {fail_after}");
            assert_eq!(log.len(), whole.len() as u64);
            log.file.budget = None;
            log.append(b"third record").unwrap();
            assert_eq!(log.len(), log.file.bytes.len() as u64);
            assert_eq!(
                scan(&log.file.bytes),
                [b"first record".to_vec(), b"third record".to_vec()]
            );
        }
    }

    /// When the cut back fails too, the torn bytes stay, and the appender
    /// refuses every later append instead of writing behind them.
    #[test]
    fn a_failed_cut_refuses_every_later_append() {
        let mut log = appender();
        log.append(b"first record").unwrap();
        log.file.budget = Some(5);
        log.file.cut_fails = true;
        assert!(log.append(b"torn record").is_err());
        let torn = log.file.bytes.clone();
        log.file.budget = None;
        log.file.cut_fails = false;
        for _ in 0..2 {
            match log.append(b"later record") {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
                other => panic!("a poisoned appender appended: {other:?}"),
            }
        }
        assert_eq!(log.file.bytes, torn);
        assert_eq!(scan(&torn), [b"first record".to_vec()]);
    }

    /// An oversized payload is refused before a byte is written, and the
    /// appender stays usable.
    #[test]
    fn an_oversized_payload_is_refused_whole() {
        let mut log = appender();
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(log.append(&big), Err(StoreError::Mismatch(_))));
        assert_eq!(log.file.bytes, HEADER);
        log.append(b"next").unwrap();
        assert_eq!(scan(&log.file.bytes), [b"next".to_vec()]);
    }

    #[test]
    fn header_statuses() {
        let magic = *b"VDBLTEST";
        let mut bytes = header(magic, 3).to_vec();
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(check_header(&bytes, 16, magic, 3), HeaderStatus::Ok);
        assert_eq!(
            check_header(&bytes[..15], 16, magic, 3),
            HeaderStatus::TooShort
        );
        assert_eq!(
            check_header(&bytes[..11], 0, magic, 3),
            HeaderStatus::TooShort
        );
        assert_eq!(
            check_header(&bytes, 16, *b"VDBLELSE", 3),
            HeaderStatus::ForeignMagic(magic)
        );
        assert_eq!(
            check_header(&bytes, 16, magic, 4),
            HeaderStatus::OtherVersion(3)
        );
        assert!(HeaderStatus::OtherVersion(3)
            .require("the test file")
            .is_err());
    }

    /// A seal whose length runs past what the bytes hold is short, never
    /// an overflow, up to the largest `u64`.
    #[test]
    fn a_seal_longer_than_its_bytes_is_short() {
        let body = b"sealed body";
        let seal = Seal::of(body);
        assert_eq!(seal.open(body).unwrap(), Some(&body[..]));
        for len in [seal.len + 1, 1 << 40, u64::MAX - 39, u64::MAX] {
            assert_eq!(Seal { len, ..seal }.open(body).unwrap(), None, "{len}");
        }
        let mut flipped = body.to_vec();
        flipped[3] ^= 1;
        assert!(matches!(seal.open(&flipped), Err(FrameError::Crc { .. })));
        assert!(matches!(
            Seal {
                len: 1 << 32,
                crc: 0
            }
            .head(),
            Err(FrameError::TooLarge(_))
        ));
    }
}
