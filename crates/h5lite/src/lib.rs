//! `h5lite` — a chunked multidimensional array container file format.
//!
//! The paper's post-hoc baseline writes each timestep to HDF5 on a Lustre
//! parallel filesystem, then plain Dask reads the chunked datasets back. We
//! have no HDF5, so this crate implements the features that path needs:
//!
//! * one file holds many named **datasets**,
//! * a dataset is an n-D `f64` array with a fixed **chunk shape**; chunks are
//!   written independently (each rank writes its own block per timestep),
//! * readers fetch single chunks or arbitrary hyper-rectangular **slices**
//!   assembled from the covering chunks — the same chunk-aligned access Dask
//!   uses ("We have chunked the HDF5 files and used the same chunking in the
//!   analytics", §3.3.1).
//!
//! ## On-disk layout
//!
//! ```text
//! [magic "H5LITE\0\1"] [chunk payloads ...] [index] [index offset: u64] [magic]
//! ```
//!
//! Chunks are appended as raw little-endian `f64`; the index (dataset table +
//! per-chunk offsets) is written at close, footer-pointer style, so writers
//! never seek backwards — mirroring append-friendly PFS usage.

#![forbid(unsafe_code)]

pub mod format;
pub mod reader;
pub mod writer;

pub use format::{ChunkCoord, DatasetMeta, FormatError};
pub use reader::H5Reader;
pub use writer::{H5Writer, SharedWriter};

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::NDArray;

    #[test]
    fn end_to_end_roundtrip() {
        let dir = std::env::temp_dir().join(format!("h5lite-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.h5l");

        let mut w = H5Writer::create(&path).unwrap();
        w.create_dataset("temp", &[4, 6], &[2, 3]).unwrap();
        for ci in 0..2 {
            for cj in 0..2 {
                let chunk =
                    NDArray::from_fn(&[2, 3], |i| (ci * 100 + cj * 10 + i[0] * 3 + i[1]) as f64);
                w.write_chunk("temp", &[ci, cj], &chunk).unwrap();
            }
        }
        w.close().unwrap();

        let r = H5Reader::open(&path).unwrap();
        assert_eq!(r.dataset_names(), vec!["temp".to_string()]);
        let meta = r.dataset("temp").unwrap();
        assert_eq!(meta.shape, vec![4, 6]);
        let c = r.read_chunk("temp", &[1, 1]).unwrap();
        assert_eq!(c.get(&[0, 0]), 110.0);
        // Cross-chunk slice.
        let s = r.read_slice("temp", &[1, 2], &[2, 2]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.get(&[0, 0]), 5.0); // chunk (0,0) element (1,2)
        assert_eq!(s.get(&[1, 1]), 110.0); // chunk (1,1) element (0,0)
        std::fs::remove_file(&path).unwrap();
    }
}
