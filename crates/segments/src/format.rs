//! The one framed-file container every history artifact uses.
//!
//! Layout (all integers little-endian), identical to the store's
//! checkpoint frame so the whole durability boundary shares one
//! validation discipline:
//!
//! ```text
//! magic[8] | version u8 | body_len u32 | crc32c u32 | body…
//! ```
//!
//! The reader validates magic, version, and — critically — that
//! `HEADER_LEN + body_len` equals the file's true size **before** any
//! allocation or mapping sized from the header, so a flipped length
//! byte can never trigger an oversized allocation. The CRC covers the
//! body and is checked after mapping; publication is write-to-temp +
//! `rename(2)`, so a reader never observes a half-written file under
//! its final name.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use sssj_store::crc::crc32c;

use crate::mapped::Mapped;

/// Frame format version.
pub const VERSION: u8 = 1;
/// Bytes before the body: magic 8 + version 1 + body_len 4 + crc 4.
pub const HEADER_LEN: usize = 17;
/// Upper bound on a single framed body — matches the checkpoint cap.
pub const MAX_BODY_LEN: u32 = 256 << 20;

fn corrupt(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// Writes `body` framed under `magic` to `dir/name`, atomically:
/// the bytes land in `dir/name.tmp` first and are renamed into place
/// (with `fsync` syncing file then directory when asked).
pub fn write_framed(
    dir: &Path,
    name: &str,
    magic: &[u8; 8],
    body: &[u8],
    fsync: bool,
) -> io::Result<PathBuf> {
    assert!(body.len() <= MAX_BODY_LEN as usize, "framed body too large");
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(magic);
    header[8] = VERSION;
    header[9..13].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[13..17].copy_from_slice(&crc32c(body).to_le_bytes());
    {
        // Header and body go to the file as they are: no framed copy
        // of the body is assembled in memory.
        let mut f = File::create(&tmp)?;
        f.write_all(&header)?;
        f.write_all(body)?;
        if fsync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, &path)?;
    if fsync {
        // Persist the rename itself.
        File::open(dir)?.sync_all()?;
    }
    Ok(path)
}

/// A validated framed file; [`body`](FramedBody::body) borrows the
/// mapped (or read) bytes past the header.
pub struct FramedBody {
    map: Mapped,
}

impl FramedBody {
    /// The frame's body bytes.
    pub fn body(&self) -> &[u8] {
        &self.map[HEADER_LEN..]
    }
}

/// Opens and fully validates `path` as a frame under `magic`.
///
/// Rejection order is deliberate: implausible file length, then the
/// 17-byte header (read into a stack buffer), then the exact
/// `header + body_len == file_len` cross-check — all before the file's
/// contents are mapped or read — and finally the body CRC.
pub fn read_framed(path: &Path, magic: &[u8; 8]) -> io::Result<FramedBody> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN as u64 {
        return Err(corrupt(path, "truncated: shorter than the frame header"));
    }
    if file_len > HEADER_LEN as u64 + MAX_BODY_LEN as u64 {
        return Err(corrupt(path, "implausibly large for a framed segment"));
    }
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header)?;
    if &header[..8] != magic {
        return Err(corrupt(path, "bad magic"));
    }
    if header[8] != VERSION {
        return Err(corrupt(path, format!("unsupported version {}", header[8])));
    }
    let body_len = u32::from_le_bytes(header[9..13].try_into().unwrap());
    let crc = u32::from_le_bytes(header[13..17].try_into().unwrap());
    if body_len > MAX_BODY_LEN {
        return Err(corrupt(path, "length field exceeds the frame cap"));
    }
    if HEADER_LEN as u64 + body_len as u64 != file_len {
        return Err(corrupt(
            path,
            format!(
                "length mismatch: header claims {body_len} body bytes, file holds {}",
                file_len - HEADER_LEN as u64
            ),
        ));
    }
    let map = Mapped::open(&mut file, file_len as usize)?;
    let framed = FramedBody { map };
    if crc32c(framed.body()) != crc {
        return Err(corrupt(path, "body checksum mismatch"));
    }
    Ok(framed)
}

/// Little-endian field cursor over a frame body; every read is
/// bounds-checked so a short body surfaces as an error, never a panic.
pub struct BodyReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// Starts reading at the body's first byte.
    pub fn new(bytes: &'a [u8]) -> Self {
        BodyReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated body: needed {n} bytes at offset {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        self.take(n)
    }

    /// Unread bytes left in the body.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless the body was consumed exactly.
    pub fn expect_end(&self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes after the body",
                self.remaining()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"SSSJTST1";

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sssj-format-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrips() {
        let dir = tdir("rt");
        let body: Vec<u8> = (0..9000u32).flat_map(|i| i.to_le_bytes()).collect();
        let path = write_framed(&dir, "seg", MAGIC, &body, false).unwrap();
        let framed = read_framed(&path, MAGIC).unwrap();
        assert_eq!(framed.body(), &body[..]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_truncation_bitflips_and_oversized_length() {
        let dir = tdir("corrupt");
        let body = vec![7u8; 4096];
        let path = write_framed(&dir, "seg", MAGIC, &body, false).unwrap();
        let good = fs::read(&path).unwrap();

        // Truncated mid-body.
        fs::write(&path, &good[..good.len() - 100]).unwrap();
        assert!(read_framed(&path, MAGIC).is_err());

        // A flipped body byte fails the CRC.
        let mut flipped = good.clone();
        flipped[HEADER_LEN + 1000] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(read_framed(&path, MAGIC).is_err());

        // An absurd length field is rejected up front — before any
        // allocation sized from it (the file is only 4 KiB).
        let mut huge = good.clone();
        huge[9..13].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        fs::write(&path, &huge).unwrap();
        assert!(read_framed(&path, MAGIC).is_err());

        // Wrong magic.
        let mut wrong = good.clone();
        wrong[0] ^= 0xff;
        fs::write(&path, &wrong).unwrap();
        assert!(read_framed(&path, MAGIC).is_err());

        // Intact file still reads.
        fs::write(&path, &good).unwrap();
        assert!(read_framed(&path, MAGIC).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn body_reader_is_bounds_checked() {
        let mut r = BodyReader::new(&[1, 0, 0, 0]);
        assert_eq!(r.u32().unwrap(), 1);
        assert!(r.u64().is_err());
        assert!(r.expect_end().is_ok());
    }
}
