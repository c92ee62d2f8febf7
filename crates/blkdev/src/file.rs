//! A file-backed functional block device.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::{check_range, BlockDevice, Result};

/// A block device backed by a host file, used by the runnable examples so a
/// cache survives process restarts the way a real cache SSD partition does.
///
/// Reads and writes are positional (`pread`/`pwrite`) on one shared file
/// with no lock, so a read never queues behind a `flush` that sits in
/// `fdatasync`, nor behind another thread's write.
pub struct FileDisk {
    file: File,
    capacity: u64,
}

impl FileDisk {
    /// Opens (creating if needed) `path` and sizes it to `capacity` bytes.
    pub fn create<P: AsRef<Path>>(path: P, capacity: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(capacity)?;
        Ok(FileDisk { file, capacity })
    }

    /// Opens an existing device file, using its current length as capacity.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let capacity = file.metadata()?.len();
        Ok(FileDisk { file, capacity })
    }
}

impl BlockDevice for FileDisk {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        check_range(offset, buf.len(), self.capacity)?;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        check_range(offset, data.len(), self.capacity)?;
        self.file.write_all_at(data, offset)?;
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmppath(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("blkdev-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn file_disk_round_trip() {
        let path = tmppath("rt");
        let d = FileDisk::create(&path, 8192).unwrap();
        d.write_at(4000, b"persist me").unwrap();
        d.flush().unwrap();
        drop(d);

        let d2 = FileDisk::open(&path).unwrap();
        assert_eq!(d2.capacity(), 8192);
        let mut buf = [0u8; 10];
        d2.read_at(4000, &mut buf).unwrap();
        assert_eq!(&buf, b"persist me");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_disk_bounds_checked() {
        let path = tmppath("bounds");
        let d = FileDisk::create(&path, 100).unwrap();
        assert!(d.write_at(90, &[0u8; 20]).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
