//! A directory-backed functional object store (one file per object).

use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::{ObjError, ObjectStore, Result};

/// An object store that persists each object as a file in a host directory,
/// so example programs survive process restarts like a real S3 bucket.
///
/// Object names are used directly as file names; LSVD object names contain
/// only `[A-Za-z0-9._-]`, which is filesystem-safe. PUT writes to a
/// temporary file and renames, so a crash mid-PUT never leaves a partial
/// object visible — matching S3's atomic-PUT semantics.
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Self> {
        fs::create_dir_all(&root)?;
        Ok(DirStore {
            root: root.as_ref().to_path_buf(),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl ObjectStore for DirStore {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        let tmp = self.root.join(format!(".tmp.{name}"));
        fs::write(&tmp, &data)?;
        fs::rename(&tmp, self.path(name))?;
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Bytes> {
        match fs::read(self.path(name)) {
            Ok(v) => Ok(Bytes::from(v)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(ObjError::NotFound(name.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Bytes> {
        // Read only the requested bytes: a ranged GET of a few KiB must
        // not cost a read of the whole (typically 8 MiB) object file.
        let mut file = match fs::File::open(self.path(name)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ObjError::NotFound(name.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        let size = file.metadata()?.len();
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(ObjError::BadRange {
                name: name.to_string(),
                offset,
                len,
                size,
            });
        }
        let mut buf = vec![0u8; len as usize];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    fn head(&self, name: &str) -> Result<u64> {
        match fs::metadata(self.path(name)) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(ObjError::NotFound(name.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn delete(&self, name: &str) -> Result<()> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if name.starts_with(prefix) && !name.starts_with(".tmp.") {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice_range;

    fn tmpdir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("objstore-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn dir_store_round_trip_and_persistence() {
        let root = tmpdir("rt");
        {
            let s = DirStore::open(&root).unwrap();
            s.put("vol.001", Bytes::from_static(b"data1")).unwrap();
            s.put("vol.002", Bytes::from_static(b"data22")).unwrap();
        }
        let s = DirStore::open(&root).unwrap();
        assert_eq!(s.get("vol.001").unwrap().as_ref(), b"data1");
        assert_eq!(s.head("vol.002").unwrap(), 6);
        assert_eq!(s.list("vol.").unwrap(), vec!["vol.001", "vol.002"]);
        assert_eq!(s.get_range("vol.002", 4, 2).unwrap().as_ref(), b"22");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_store_get_range_errors_match_slice_range() {
        let root = tmpdir("range");
        let s = DirStore::open(&root).unwrap();
        let data = Bytes::from_static(b"0123456789");
        s.put("obj", data.clone()).unwrap();
        assert_eq!(s.get_range("obj", 3, 4).unwrap().as_ref(), b"3456");
        assert_eq!(s.get_range("obj", 10, 0).unwrap().as_ref(), b"");
        for (offset, len) in [(8, 3), (11, 0), (u64::MAX, 2)] {
            let want = slice_range("obj", &data, offset, len).unwrap_err();
            let got = s.get_range("obj", offset, len).unwrap_err();
            assert!(matches!(got, ObjError::BadRange { .. }), "{got}");
            assert_eq!(got.to_string(), want.to_string());
        }
        match s.get_range("absent", 0, 1) {
            Err(ObjError::NotFound(name)) => assert_eq!(name, "absent"),
            other => panic!("expected NotFound, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_store_missing_and_delete() {
        let root = tmpdir("md");
        let s = DirStore::open(&root).unwrap();
        assert!(matches!(s.get("x"), Err(ObjError::NotFound(_))));
        s.delete("x").unwrap(); // idempotent
        s.put("x", Bytes::from_static(b"1")).unwrap();
        s.delete("x").unwrap();
        assert!(!s.exists("x").unwrap());
        fs::remove_dir_all(&root).unwrap();
    }
}
